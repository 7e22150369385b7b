//! The three workloads. Each repetition builds a fresh kernel, runs the
//! workload, checks its output and returns what it measured on both
//! clocks: host time and allocations, and the simulated results.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use bench::{test_program, DiskRow, Experiment, Method};
use knet::LinkModel;
use kproc::programs::{scenario_stats, CpuBound, Repeat, ServeMode, SpliceServer};
use kproc::{ProcState, SockAddr};
use ksim::{Dur, SimTime};
use splice::{Kernel, KernelBuilder, MetricsSnapshot, ProfileSnapshot};

use crate::alloc;
use crate::programs::{Client, Outcome, Pass, PassTimer};
use crate::spans::Tracer;

/// Which workload a run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CopyScp,
    CopyCp,
    ServeRing,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "copy_scp" => Some(Workload::CopyScp),
            "copy_cp" => Some(Workload::CopyCp),
            "serve_ring" => Some(Workload::ServeRing),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CopyScp => "copy_scp",
            Workload::CopyCp => "copy_cp",
            Workload::ServeRing => "serve_ring",
        }
    }

    /// Runs one repetition.
    pub fn rep(self, seed: u64, tr: &mut Tracer) -> Rep {
        match self {
            Workload::CopyScp => copy_rep(Method::Scp, seed, tr),
            Workload::CopyCp => copy_rep(Method::Cp, seed, tr),
            Workload::ServeRing => ring_rep(seed, tr),
        }
    }
}

/// Block size of the paper's filesystem; one copy op is one block.
const BLOCK: u64 = 8192;
/// Copy passes per copy repetition: enough for the copier to outlast
/// the test program under either method (checked on every run).
const COPY_PASSES: u32 = 3;
/// Latency limit for one whole-file copy pass.
const COPY_LIMIT: Dur = Dur::from_secs(30);

/// Requests per serve_ring repetition: 64 full waves of the depth-64
/// ring, an exact p99 with 40 samples beyond it, and an arrival window
/// long enough that its length varies by under 2 % between seeds.
const RING_REQUESTS: usize = 4096;
const RING_DEPTH: u32 = 64;
/// Offered rate, requests per simulated second (open loop).
const RING_RATE: f64 = 25.0;
const RING_BACKLOG: u32 = 128;
const RING_PORT: u16 = 80;
/// A request not finished this long after it was due has failed.
const RING_TIMEOUT: Dur = Dur::from_secs(10);
/// Latency limit for goodput.
const RING_LIMIT: Dur = Dur::from_secs(5);
/// CPU the compute program needs beside the server: more than the
/// arrival window lasts at any seed.
const RING_COMPUTE_OPS: u64 = 160_000;

/// What one repetition measured.
pub struct Rep {
    /// Host seconds for build, file set-up, cold cache and the spawns.
    pub setup_s: f64,
    pub build_s: f64,
    pub setup_file_s: f64,
    pub cold_cache_s: f64,
    /// Host seconds inside the run phase's `run_until` slices and the
    /// spawns between them.
    pub run_s: f64,
    /// `run_s` as measured, before scaling to the reference machine.
    pub raw_run_s: f64,
    pub setup_allocs: u64,
    pub run_allocs: u64,
    /// Highest live heap from the start of set-up to the end of checks.
    pub peak_heap: u64,
    /// Simulated events dispatched in the run phase.
    pub events: u64,
    /// Ops of the run phase: blocks written (copies), requests (server).
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures (empty when every check passed).
    pub errors: Vec<String>,
    /// Simulated results.
    pub sim: Sim,
    /// The kernel's own accounts at the end of the run; dropped once
    /// fingerprinted, so earlier repetitions do not inflate the heap
    /// peak of later ones.
    pub accounts: Option<(MetricsSnapshot, ProfileSnapshot)>,
}

impl Rep {
    /// Scales every host time by `factor` (see [`crate::reference`]).
    pub fn scale_host_times(&mut self, factor: f64) {
        for t in [
            &mut self.setup_s,
            &mut self.build_s,
            &mut self.setup_file_s,
            &mut self.cold_cache_s,
            &mut self.run_s,
        ] {
            *t *= factor;
        }
    }
}

/// Simulated results of one repetition (identical for one seed).
pub struct Sim {
    pub kbps: f64,
    pub compute_share: f64,
    /// Request latencies in ns, sorted ascending (successes only).
    pub latencies: Vec<u64>,
    pub goodput_rps: f64,
    /// Simulated length of the run phase.
    pub run_ns: u64,
    /// How late each request's client first ran against its due time,
    /// ns, sorted (negative: it ran in the event gap before its due
    /// time). Empty for the copy workloads.
    pub lateness: Vec<i64>,
    /// Most the generator spawned a client ahead of its due time: it
    /// spawns at the last simulated event before the due time.
    pub gen_early_max_ns: u64,
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// splitmix64: every seeded draw of the benchmark's inputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host-time accounting for one phase: seconds and allocation calls
/// across the calls made inside it.
#[derive(Default)]
struct Meter {
    secs: f64,
    allocs: u64,
}

impl Meter {
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a = alloc::calls();
        let t = Instant::now();
        let r = f();
        self.secs += t.elapsed().as_secs_f64();
        self.allocs += alloc::calls() - a;
        r
    }
}

/// `Kernel::run_until` in a span, counting dispatched events through
/// the predicate: it is asked once before each event and once more
/// when the slice ends.
fn slice(
    k: &mut Kernel,
    tr: &mut Tracer,
    events: &mut u64,
    horizon: SimTime,
    mut done: impl FnMut(&Kernel) -> bool,
) -> SimTime {
    let mut asked = 0u64;
    let t = tr.span("Kernel::run_until", || {
        k.run_until(horizon, |k| {
            asked += 1;
            done(k)
        })
    });
    *events += asked - 1;
    t
}

/// Host seconds of the three set-up calls before the spawns.
#[derive(Default)]
struct BootTimes {
    build_s: f64,
    setup_file_s: f64,
    cold_cache_s: f64,
}

/// Builds the machine and puts the source file in place with a cold
/// cache, timing each call; the spawns are left to the caller.
fn boot(
    tr: &mut Tracer,
    builder: impl FnOnce() -> KernelBuilder,
    file: (&str, u64, u64),
) -> (Kernel, BootTimes) {
    let mut times = BootTimes::default();
    let t = Instant::now();
    let mut k = tr.span("KernelBuilder::build", || builder().build());
    times.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tr.span("Kernel::setup_file", || {
        k.setup_file(file.0, file.1, file.2)
    });
    times.setup_file_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tr.span("Kernel::cold_cache", || k.cold_cache());
    times.cold_cache_s = t.elapsed().as_secs_f64();
    (k, times)
}

/// The copy workloads' inputs: the paper's RAM-disk experiment with an
/// 8 MB file grown by 0–15 blocks, drawn from the seed.
fn copy_experiment(seed: u64) -> Experiment {
    let mut exp = Experiment::paper(DiskRow::Ram);
    exp.file_bytes += (mix(seed) % 16) * BLOCK;
    exp.seed = mix(seed ^ 0xC0FF);
    exp
}

/// Bytes the copier has moved: user writes for CP, spliced blocks for
/// SCP.
fn copied_bytes(m: &MetricsSnapshot) -> u64 {
    m.copy.copyin_bytes + m.splice.spans.iter().map(|s| s.bytes_moved).sum::<u64>()
}

/// copy_scp / copy_cp: the §6.2 test program beside a copier looping
/// over the file; the run ends when the copier's last pass ends.
fn copy_rep(method: Method, seed: u64, tr: &mut Tracer) -> Rep {
    let exp = copy_experiment(seed);
    alloc::reset_peak();
    let mut setup = Meter::default();
    tr.enter("setup");
    let (mut k, boot_times) = setup.run(|| {
        boot(
            tr,
            || KernelBuilder::paper_machine(exp.disk.profile()).config(exp.config.clone()),
            ("/d0/src", exp.file_bytes, exp.seed),
        )
    });
    let passes: Rc<RefCell<Vec<Pass>>> = Rc::default();
    let sim0 = k.now();
    let (test, copier) = setup.run(|| {
        let test = tr.span("Kernel::spawn", || k.spawn(Box::new(test_program())));
        let (exp, passes) = (exp.clone(), Rc::clone(&passes));
        let copy_loop = Repeat::new(COPY_PASSES, move || {
            Box::new(PassTimer::new(exp.copier(method, 1), Rc::clone(&passes)))
        });
        let copier = tr.span("Kernel::spawn", || k.spawn(Box::new(copy_loop)));
        (test, copier)
    });
    tr.exit();

    tr.enter("run");
    let mut errors = Vec::new();
    let mut run = Meter::default();
    let horizon = k.horizon(3600);
    let mut events = 0;
    let t_exit = run.run(|| {
        slice(&mut k, tr, &mut events, horizon, |k| {
            k.procs().must(test).exited()
        })
    });
    let copied_at_exit = copied_bytes(&tr.span("Kernel::metrics", || k.metrics()));
    if k.procs().must(copier).exited() {
        errors.push("the copier finished before the test program".to_string());
    }
    run.run(|| {
        slice(&mut k, tr, &mut events, horizon, |k| {
            k.procs().must(copier).exited()
        })
    });
    tr.exit();

    tr.enter("check");
    let profile = tr.span("Kernel::profile", || k.profile());
    let metrics = tr.span("Kernel::metrics", || k.metrics());
    let mismatch = tr.span("Kernel::verify_pattern_file", || {
        k.verify_pattern_file("/d1/dst", exp.file_bytes, exp.seed)
    });
    let fsck = tr.span("Kernel::fsck_all", || k.fsck_all());
    tr.exit();
    let peak_heap = alloc::peak();

    let copier_state = k.procs().must(copier).state;
    if copier_state != ProcState::Exited(0) {
        errors.push(format!("copier ended {copier_state:?}"));
    }
    if let Some(off) = mismatch {
        errors.push(format!("destination differs at byte {off}"));
    }
    errors.extend(fsck);

    // A pass that failed, or the last pass when its output is wrong,
    // fails all its blocks; so does every pass that never ran.
    let passes = passes.borrow();
    let good = passes.iter().filter(|p| p.code == 0).count() as u64;
    let good = good.saturating_sub(u64::from(mismatch.is_some()));
    let blocks_per_pass = exp.file_bytes / BLOCK;
    let lifetime = t_exit.since(sim0);
    let test_cpu = profile
        .proc(test.0)
        .expect("test program in profile")
        .cpu_time();
    let run_ns = passes.last().map_or(t_exit, |p| p.end).since(sim0).as_ns();
    let mut latencies: Vec<u64> = passes
        .iter()
        .filter(|p| p.code == 0)
        .map(|p| p.end.since(p.start).as_ns())
        .collect();
    latencies.sort_unstable();
    let within = latencies
        .iter()
        .filter(|&&l| l <= COPY_LIMIT.as_ns())
        .count();
    Rep {
        setup_s: setup.secs,
        build_s: boot_times.build_s,
        setup_file_s: boot_times.setup_file_s,
        cold_cache_s: boot_times.cold_cache_s,
        run_s: run.secs,
        raw_run_s: run.secs,
        setup_allocs: setup.allocs,
        run_allocs: run.allocs,
        peak_heap,
        events,
        ops: copied_bytes(&metrics) / BLOCK,
        attempted: COPY_PASSES as u64 * blocks_per_pass,
        failed: (COPY_PASSES as u64 - good) * blocks_per_pass,
        errors,
        sim: Sim {
            kbps: copied_at_exit as f64 / 1024.0 / lifetime.as_secs_f64(),
            compute_share: test_cpu.as_ns() as f64 / lifetime.as_ns() as f64,
            latencies,
            goodput_rps: within as f64 / (run_ns as f64 / 1e9),
            run_ns,
            lateness: Vec::new(),
            gen_early_max_ns: 0,
        },
        accounts: Some((metrics, profile)),
    }
}

/// Seeded arrivals: `RING_REQUESTS` due offsets in ns, drawn uniformly
/// over a window of `RING_REQUESTS / RING_RATE` seconds and sorted. This
/// is a Poisson process at `RING_RATE` conditioned on its count, so the
/// offered load is the same at every seed and only its bursts differ.
fn arrivals(seed: u64) -> Vec<u64> {
    let window_ns = (RING_REQUESTS as f64 / RING_RATE * 1e9) as u64;
    let mut due: Vec<u64> = (0..RING_REQUESTS as u64)
        .map(|i| mix(seed ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D)) % window_ns)
        .collect();
    due.sort_unstable();
    due
}

/// serve_ring: open-loop clients fetch one 8 KB file each from the
/// depth-64 ring server over the modelled 1 Gb/s link, beside a
/// compute program that outlasts the arrival window.
fn ring_rep(seed: u64, tr: &mut Tracer) -> Rep {
    let pattern = mix(seed ^ 0xF11E);
    alloc::reset_peak();
    let mut setup = Meter::default();
    tr.enter("setup");
    let (mut k, boot_times) = setup.run(|| {
        boot(
            tr,
            KernelBuilder::paper_machine_ram,
            ("/d0/file", BLOCK, pattern),
        )
    });
    let link = LinkModel {
        bps: 125_000_000,
        base_latency: Dur::from_us(200),
        jitter: Dur::from_us(100),
        loss_ppm: 0,
        seed: mix(seed ^ 0x11CC),
    };
    let server_stats = scenario_stats();
    let sim0 = k.now();
    let (compute, server) = setup.run(|| {
        tr.span("Kernel::net_mut", || k.net_mut().set_link_model(1, link));
        let compute = tr.span("Kernel::spawn", || {
            k.spawn(Box::new(CpuBound::new(RING_COMPUTE_OPS, Dur::from_ms(1))))
        });
        let server = SpliceServer::new(
            RING_PORT,
            "/d0/file",
            BLOCK,
            RING_REQUESTS,
            RING_BACKLOG,
            ServeMode::Ring { depth: RING_DEPTH },
            Rc::clone(&server_stats),
        );
        let server = tr.span("Kernel::spawn", || k.spawn(Box::new(server)));
        (compute, server)
    });
    tr.exit();

    // Release each client at its due time, between run_until slices.
    tr.enter("run");
    let due: Vec<SimTime> = arrivals(seed)
        .into_iter()
        .map(|ns| sim0 + Dur::from_ns(ns))
        .collect();
    let outcomes = Rc::new(RefCell::new(vec![Outcome::Pending; RING_REQUESTS]));
    let finished = Rc::new(Cell::new(0usize));
    let server_addr = SockAddr {
        host: 1,
        port: RING_PORT,
    };
    let mut run = Meter::default();
    let mut events = 0;
    let mut gen_early_max_ns = 0;
    for (slot, &at) in due.iter().enumerate() {
        run.run(|| {
            slice(&mut k, tr, &mut events, at, |_| false);
            gen_early_max_ns = gen_early_max_ns.max(at.since(k.now()).as_ns());
            let client = Client::new(
                server_addr,
                BLOCK,
                pattern,
                slot,
                Rc::clone(&outcomes),
                Rc::clone(&finished),
            );
            tr.span("Kernel::spawn", || k.spawn(Box::new(client)));
        });
    }
    // Stop at the last due time plus the timeout: a client still
    // waiting then has failed.
    let last_due = *due.last().expect("requests");
    run.run(|| {
        slice(&mut k, tr, &mut events, last_due + RING_TIMEOUT, |_| {
            finished.get() == RING_REQUESTS
        })
    });
    let horizon = k.horizon(3600);
    let compute_exit = run.run(|| {
        slice(&mut k, tr, &mut events, horizon, |k| {
            k.procs().must(compute).exited()
        })
    });
    tr.exit();

    tr.enter("check");
    let profile = tr.span("Kernel::profile", || k.profile());
    let metrics = tr.span("Kernel::metrics", || k.metrics());
    tr.exit();
    let peak_heap = alloc::peak();

    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    let mut failed = 0u64;
    let mut errors = Vec::new();
    for (slot, (outcome, &at)) in outcomes.borrow().iter().zip(&due).enumerate() {
        match *outcome {
            Outcome::Done { first_step, end } => {
                lateness.push(first_step.as_ns() as i64 - at.as_ns() as i64);
                // From the due time, or from the client's first step if
                // it ran in the event gap just before it.
                let latency = end.since(first_step.min(at));
                if latency > RING_TIMEOUT {
                    failed += 1;
                } else {
                    latencies.push(latency.as_ns());
                }
            }
            Outcome::Pending | Outcome::Failed => failed += 1,
            Outcome::Corrupt => {
                failed += 1;
                errors.push(format!(
                    "request {slot} received bytes that differ from the file"
                ));
            }
        }
    }
    latencies.sort_unstable();
    lateness.sort_unstable();
    let completed = latencies.len() as u64;

    if completed + failed != RING_REQUESTS as u64 {
        errors.push("completed + failed != attempted".to_string());
    }
    let net = &metrics.net;
    if net.sent != net.delivered + net.lost_link + net.dropped {
        errors.push(format!(
            "datagrams sent {} != delivered {} + lost {} + dropped {}",
            net.sent, net.delivered, net.lost_link, net.dropped
        ));
    }
    if failed == 0 {
        let server_state = k.procs().must(server).state;
        if server_state != ProcState::Exited(0) {
            errors.push(format!("server ended {server_state:?}"));
        }
        if server_stats.borrow().served != RING_REQUESTS as u64 {
            errors.push("server served a different request count".to_string());
        }
    }
    if compute_exit <= last_due {
        errors.push("the compute program ended inside the arrival window".to_string());
    }

    let window_s = last_due.since(due[0]).as_secs_f64();
    let lifetime = compute_exit.since(sim0);
    let compute_cpu = profile
        .proc(compute.0)
        .expect("compute program in profile")
        .cpu_time();
    let within = latencies
        .iter()
        .filter(|&&l| l <= RING_LIMIT.as_ns())
        .count();
    Rep {
        setup_s: setup.secs,
        build_s: boot_times.build_s,
        setup_file_s: boot_times.setup_file_s,
        cold_cache_s: boot_times.cold_cache_s,
        run_s: run.secs,
        raw_run_s: run.secs,
        setup_allocs: setup.allocs,
        run_allocs: run.allocs,
        peak_heap,
        events,
        ops: RING_REQUESTS as u64,
        attempted: RING_REQUESTS as u64,
        failed,
        errors,
        sim: Sim {
            kbps: (completed * BLOCK) as f64 / 1024.0 / window_s,
            compute_share: compute_cpu.as_ns() as f64 / lifetime.as_ns() as f64,
            latencies,
            goodput_rps: within as f64 / window_s,
            run_ns: k.now().since(sim0).as_ns(),
            lateness,
            gen_early_max_ns,
        },
        accounts: Some((metrics, profile)),
    }
}
