//! Connection-layer scenario battery: the splice server programs from
//! `kproc::programs::server` driven end to end through the kernel —
//! backlog overflow accounting, connection lifecycle reclaim, byte-exact
//! service at depth 1 vs a depth-64 ring, ring latency below saturation,
//! tail-latency monotonicity in connection count, and seeded replay
//! determinism (`SERVER_SEED` is randomized by `scripts/ci.sh`).

use std::rc::Rc;

use knet::LinkModel;
use kproc::programs::{
    open_loop_delays, scenario_stats, CpuBound, ServeMode, ServerClient, SharedScenario,
    SpliceServer,
};
use kproc::{ProcState, SockAddr};
use ksim::{Dur, ObsConfig, ReqSpan, SloConfig};
use splice::{Kernel, KernelBuilder, KernelConfig};

const FILE_BYTES: u64 = 8 * 1024;
const PORT: u16 = 80;
const SEED: u64 = 0x5e12;

fn addr() -> SockAddr {
    SockAddr {
        host: 1,
        port: PORT,
    }
}

/// Builds a kernel with the bench link model and the seeded file.
fn server_kernel(seed: u64, trace: usize) -> Kernel {
    server_kernel_obs(seed, trace, None)
}

/// [`server_kernel`] with an observability override (e.g. an unmeetable
/// SLO to provoke the flight recorder).
fn server_kernel_obs(seed: u64, trace: usize, obs: Option<ObsConfig>) -> Kernel {
    let b = KernelBuilder::paper_machine_ram();
    let b = if trace > 0 { b.trace(trace) } else { b };
    let b = if let Some(cfg) = obs {
        b.observe(cfg)
    } else {
        b
    };
    let mut k = b.build();
    k.net_mut().set_link_model(
        1,
        LinkModel {
            bps: 125_000_000,
            base_latency: Dur::from_us(200),
            jitter: Dur::from_us(100),
            loss_ppm: 0,
            seed,
        },
    );
    k.setup_file("/d0/file", FILE_BYTES, seed);
    k.cold_cache();
    k
}

/// Arrivals beyond the listen backlog while the server naps are dropped
/// and *counted* — and the drops allocate nothing: no server-side
/// connection socket, no receive-buffer bytes. The accepted fleet is
/// served in full.
#[test]
fn backlog_overflow_drops_are_counted_without_leaked_sockets() {
    let backlog = 8usize;
    let clients = 16usize;
    let mut k = server_kernel(SEED, 0);
    let stats = scenario_stats();
    let server = k.spawn(Box::new(
        SpliceServer::new(
            PORT,
            "/d0/file",
            FILE_BYTES,
            backlog,
            backlog as u32,
            ServeMode::Splice,
            Rc::clone(&stats),
        )
        // Listen, then nap: every arrival lands on the backlog.
        .warmup(Dur::from_ms(50)),
    ));
    for delay in open_loop_delays(clients, Dur::from_ms(10), SEED) {
        k.spawn(Box::new(ServerClient::new(
            addr(),
            FILE_BYTES,
            SEED,
            // Past the server's own socket/bind/listen syscalls.
            delay + Dur::from_ms(1),
            Rc::clone(&stats),
        )));
    }
    // The dropped clients hang in recv forever, so run by exit count,
    // not `run_to_exit`: the server plus every accepted client.
    let horizon = k.horizon(600);
    k.run_until(horizon, |k| {
        k.procs().iter().filter(|p| p.exited()).count() == 1 + backlog
    });

    assert!(matches!(k.procs().must(server).state, ProcState::Exited(0)));
    let s = stats.borrow();
    assert_eq!(s.served, backlog as u64, "server must serve the backlog");
    assert_eq!(s.completed, backlog as u64);
    assert_eq!(s.mismatches, 0);
    assert_eq!(s.bytes_received, backlog as u64 * FILE_BYTES);

    let m = k.metrics().net;
    assert_eq!(
        m.dropped_backlog,
        (clients - backlog) as u64,
        "every overflow arrival is accounted as a backlog drop"
    );
    assert_eq!(m.conns_opened, backlog as u64, "drops never carve a conn");
    // The only open sockets left belong to the hung clients themselves;
    // the listener, every accepted conn, and every served client socket
    // are gone, and no receive buffer holds bytes.
    assert_eq!(k.net().open_socks(), clients - backlog);
    assert_eq!(k.net().total_rcv_used(), 0);
}

/// A full serve-and-close cycle returns the kernel to its baseline:
/// no sockets, no receive-buffer bytes, and the listening port is
/// immediately rebindable.
#[test]
fn connection_lifecycle_frees_port_and_buffers() {
    let mut k = server_kernel(SEED, 0);
    let stats = scenario_stats();
    let server = k.spawn(Box::new(SpliceServer::new(
        PORT,
        "/d0/file",
        FILE_BYTES,
        1,
        4,
        ServeMode::Splice,
        Rc::clone(&stats),
    )));
    k.spawn(Box::new(ServerClient::new(
        addr(),
        FILE_BYTES,
        SEED,
        Dur::from_ms(1),
        Rc::clone(&stats),
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    assert!(matches!(k.procs().must(server).state, ProcState::Exited(0)));
    assert_eq!(stats.borrow().completed, 1);
    assert_eq!(stats.borrow().mismatches, 0);
    assert_eq!(k.net().open_socks(), 0, "lifecycle leaked a socket");
    assert_eq!(k.net().total_rcv_used(), 0, "lifecycle leaked rcv bytes");
    // The port is free again: a fresh socket can bind it.
    let again = k.net_mut().socket(1);
    assert!(
        k.net_mut().bind(again, PORT).is_ok(),
        "port {PORT} still held after the listener closed"
    );
}

/// The seed from `SERVER_SEED` when set (`scripts/ci.sh` randomizes
/// it), else the fixed default.
fn server_seed() -> u64 {
    std::env::var("SERVER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// Runs `conns` open-loop clients, arriving uniformly over `window`,
/// against one server in `mode`, optionally beside a compute program.
/// The server must exit clean and every payload must be byte-exact.
fn run_fleet(
    conns: usize,
    window: Dur,
    mode: ServeMode,
    seed: u64,
    compute: Option<CpuBound>,
) -> (Kernel, SharedScenario) {
    let mut k = server_kernel(seed, 0);
    let stats = scenario_stats();
    let server = k.spawn(Box::new(SpliceServer::new(
        PORT,
        "/d0/file",
        FILE_BYTES,
        conns,
        conns as u32,
        mode,
        Rc::clone(&stats),
    )));
    for delay in open_loop_delays(conns, window, seed) {
        k.spawn(Box::new(ServerClient::new(
            addr(),
            FILE_BYTES,
            seed,
            delay,
            Rc::clone(&stats),
        )));
    }
    if let Some(compute) = compute {
        k.spawn(Box::new(compute));
    }
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(
        matches!(k.procs().must(server).state, ProcState::Exited(0)),
        "{mode:?} seed {seed}: server failed"
    );
    assert_eq!(
        stats.borrow().mismatches,
        0,
        "{mode:?} seed {seed}: payload corruption"
    );
    (k, stats)
}

/// Runs `conns` clients at a constant offered rate of 10k/s, as in the
/// bench; returns (completed, bytes_received, splices started).
fn serve_fleet(conns: usize, mode: ServeMode, seed: u64) -> (u64, u64, u64) {
    let window = Dur::from_ns(conns as u64 * 100_000);
    let (k, stats) = run_fleet(conns, window, mode, seed, None);
    let s = stats.borrow();
    (s.completed, s.bytes_received, k.metrics().splice.started)
}

/// One-at-a-time `splice(2)` service and depth-64 ring service deliver
/// the identical bytes to the identical fleet — the batching machinery
/// changes scheduling, never data.
#[test]
fn depth1_splice_and_ring64_serve_byte_exact() {
    let conns = 128usize;
    let (sync_done, sync_bytes, sync_splices) = serve_fleet(conns, ServeMode::Splice, SEED);
    let (ring_done, ring_bytes, ring_splices) =
        serve_fleet(conns, ServeMode::Ring { depth: 64 }, SEED);
    assert_eq!(sync_done, conns as u64);
    assert_eq!(ring_done, conns as u64);
    assert_eq!(sync_bytes, conns as u64 * FILE_BYTES);
    assert_eq!(ring_bytes, sync_bytes, "ring served different bytes");
    // Both in-kernel paths run exactly one splice per connection.
    assert_eq!(sync_splices, conns as u64);
    assert_eq!(ring_splices, conns as u64);
}

/// Runs a ring-served open-loop fleet and reports the p99 of the
/// request→last-byte latency histogram.
fn p99_at(conns: usize) -> u64 {
    let window = Dur::from_ns(conns as u64 * 100_000);
    let (_, stats) = run_fleet(conns, window, ServeMode::Ring { depth: 64 }, SEED, None);
    let s = stats.borrow();
    assert_eq!(s.completed, conns as u64);
    s.latency.p99().unwrap()
}

/// Below saturation a ring wave holds the connections already waiting
/// instead of waiting for `depth` of them: at one arrival every 50 ms,
/// far beyond one request's service time, a depth-64 ring serves as
/// fast as one-at-a-time `splice(2)` and far faster than the 3.2 s it
/// takes 64 arrivals to fill a wave. A compute program outlasting the
/// fleet shares the CPU, and the woken server and clients run ahead of
/// it: the ring p50 stays under a quarter of its 40 ms quantum.
/// `scripts/ci.sh` randomizes `SERVER_SEED`.
#[test]
fn ring_waves_do_not_wait_to_fill_below_saturation() {
    let seed = server_seed();
    let conns = 128usize;
    let gap = Dur::from_ms(50);
    let window = Dur::from_ns(conns as u64 * gap.as_ns());
    let p50 = |mode| {
        let compute = CpuBound::with_total(window + Dur::from_secs(1));
        let (_, stats) = run_fleet(conns, window, mode, seed, Some(compute));
        let s = stats.borrow();
        assert_eq!(s.completed, conns as u64, "{mode:?} seed {seed}: short");
        s.latency.p50().unwrap()
    };
    let sync = p50(ServeMode::Splice);
    let ring = p50(ServeMode::Ring { depth: 64 });
    let wave_fill = 64 * gap.as_ns();
    assert!(
        ring <= 2 * sync,
        "SERVER_SEED={seed}: ring p50 {ring}ns vs sync p50 {sync}ns"
    );
    assert!(
        ring < wave_fill / 10,
        "SERVER_SEED={seed}: ring p50 {ring}ns near the {wave_fill}ns wave-fill time"
    );
    let quarter_quantum = KernelConfig::default().machine.quantum.as_ns() / 4;
    assert!(
        ring < quarter_quantum,
        "SERVER_SEED={seed}: ring p50 {ring}ns queued behind the compute program"
    );
}

/// Under a constant offered rate, adding connections never *improves*
/// the tail: p99 at 1000 connections is at least p99 at 100.
#[test]
fn p99_is_monotone_in_connection_count() {
    let small = p99_at(100);
    let large = p99_at(1000);
    assert!(
        large >= small,
        "p99 fell from {small}ns at 100 conns to {large}ns at 1000 conns"
    );
}

/// The whole connection-scale scenario replays identically for a given
/// seed: sim end time, every net/sched counter, the latency histogram,
/// and the trace bytes. `scripts/ci.sh` randomizes `SERVER_SEED`; any
/// failure prints the seed to reproduce.
#[test]
fn server_scenario_replays_identically_under_seed() {
    let seed = server_seed();
    let conns = 400usize;
    let run = || {
        let mut k = server_kernel(seed, 1 << 16);
        let stats = scenario_stats();
        let server = k.spawn(Box::new(SpliceServer::new(
            PORT,
            "/d0/file",
            FILE_BYTES,
            conns,
            conns as u32,
            ServeMode::Ring { depth: 64 },
            Rc::clone(&stats),
        )));
        let window = Dur::from_ns(conns as u64 * 100_000);
        for delay in open_loop_delays(conns, window, seed) {
            k.spawn(Box::new(ServerClient::new(
                addr(),
                FILE_BYTES,
                seed,
                delay,
                Rc::clone(&stats),
            )));
        }
        let horizon = k.horizon(600);
        let end = k.run_to_exit(horizon);
        assert!(
            matches!(k.procs().must(server).state, ProcState::Exited(0)),
            "SERVER_SEED={seed}: server failed"
        );
        let s = stats.borrow();
        assert_eq!(s.completed, conns as u64, "SERVER_SEED={seed}: short");
        assert_eq!(s.mismatches, 0, "SERVER_SEED={seed}: corruption");
        let m = k.metrics();
        (
            end.as_ns(),
            m.net.sent,
            m.net.delivered,
            m.net.conns_opened,
            m.net.snd_blocked,
            m.sched.ctx_switches,
            s.latency.sum(),
            (s.latency.min(), s.latency.max()),
            k.trace_dump(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "SERVER_SEED={seed}: replay diverged");
}

/// The flight recorder and the committed-span set replay byte-identically
/// for a given seed: an unmeetable SLO target turns every request into a
/// violation, the burn-rate monitor alerts at the same close on both
/// runs, the frozen trace window renders to the same JSON bytes, and
/// the committed spans match span for span.
#[test]
fn flight_dump_and_committed_spans_replay_identically() {
    let seed = server_seed();
    let conns = 256usize;
    let cfg = ObsConfig {
        slo: SloConfig {
            latency_target: Dur::from_us(1),
            ..SloConfig::default()
        },
        ..ObsConfig::on()
    };
    let run = || {
        let mut k = server_kernel_obs(seed, 1 << 16, Some(cfg));
        let stats = scenario_stats();
        let server = k.spawn(Box::new(SpliceServer::new(
            PORT,
            "/d0/file",
            FILE_BYTES,
            conns,
            conns as u32,
            ServeMode::Splice,
            Rc::clone(&stats),
        )));
        let window = Dur::from_ns(conns as u64 * 100_000);
        for delay in open_loop_delays(conns, window, seed) {
            k.spawn(Box::new(ServerClient::new(
                addr(),
                FILE_BYTES,
                seed,
                delay,
                Rc::clone(&stats),
            )));
        }
        let horizon = k.horizon(600);
        k.run_to_exit(horizon);
        assert!(
            matches!(k.procs().must(server).state, ProcState::Exited(0)),
            "SERVER_SEED={seed}: server failed"
        );
        let c = k.obs().counters();
        assert_eq!(
            c.violations, c.requests,
            "SERVER_SEED={seed}: a 1 µs target must make every request violate"
        );
        assert_eq!(
            c.committed, c.requests,
            "SERVER_SEED={seed}: every violation must commit a span"
        );
        assert!(c.alerts >= 1, "SERVER_SEED={seed}: no alert fired");
        let flight = k
            .flight_json("server")
            .expect("alert froze no flight dump")
            .render_pretty();
        let spans: Vec<ReqSpan> = k.obs().committed_spans().copied().collect();
        (flight, spans)
    };
    let (flight_a, spans_a) = run();
    let (flight_b, spans_b) = run();
    assert_eq!(
        flight_a, flight_b,
        "SERVER_SEED={seed}: flight dump bytes diverged"
    );
    assert_eq!(
        spans_a, spans_b,
        "SERVER_SEED={seed}: committed spans diverged"
    );
}
