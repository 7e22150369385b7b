//! The repository's benchmark: three workloads on the simulated kernel,
//! measured on two clocks.
//!
//! * *Simulated* numbers are the paper's claims (copy throughput, the
//!   CPU share left to a compute program, request latency). They repeat
//!   exactly for a seed; the benchmark fails if two repetitions of one
//!   seed disagree on any of them or on any kernel counter.
//! * *Host* numbers measure how fast the simulator itself runs: set-up
//!   time, host time and allocations per op, peak live heap.
//!
//! ```text
//! perfbench --workload <copy_scp|copy_cp|serve_ring> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics. With `--trace 1`
//! it alternates untraced repetitions with traced ones, which record
//! host-time spans around every public call; it prints the per-layer
//! metrics and writes the spans to `perfbench/out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod probes;
mod programs;
mod reference;
mod spans;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;

use ksim::Json;
use spans::Tracer;
use workloads::{percentile, Rep, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Measured repetitions per run at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The paper's Table 1 RAM-disk row: the test program's speed as a
/// share of idle (test@CP 50 %, test@SCP 80 %).
fn paper_share(w: Workload) -> Option<f64> {
    match w {
        Workload::CopyScp => Some(0.80),
        Workload::CopyCp => Some(0.50),
        Workload::ServeRing => None,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

fn host_us_per_op(r: &Rep) -> f64 {
    r.run_s * 1e6 / r.ops as f64
}

/// Hash of every simulated result and kernel counter of a repetition.
fn fingerprint(r: &Rep) -> u64 {
    let s = &r.sim;
    let mut h = DefaultHasher::new();
    (
        s.kbps.to_bits(),
        s.compute_share.to_bits(),
        &s.latencies,
        s.goodput_rps.to_bits(),
        s.run_ns,
        &s.lateness,
        s.gen_early_max_ns,
    )
        .hash(&mut h);
    (r.events, r.ops, r.attempted, r.failed).hash(&mut h);
    let (metrics, profile) = r
        .accounts
        .as_ref()
        .expect("accounts kept until fingerprinted");
    metrics.to_json().render().hash(&mut h);
    profile.to_json().render().hash(&mut h);
    h.finish()
}

/// Runs repetitions until `seconds` have passed (at least [`MIN_REPS`]
/// each), taking the tracers in turn, so a traced and an untraced
/// series see the same moments of a shared host. Every repetition is
/// checked against the seed's `reference` fingerprint. The machine's
/// speed is gauged before the first repetition and after each one, and
/// every host time is scaled by the run's median gauge. Only the very
/// last repetition keeps its kernel accounts, so earlier ones do not add
/// to the heap peak of later ones.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    tracers: &mut [Tracer],
    reference: u64,
    errors: &mut Vec<String>,
) -> Vec<Vec<Rep>> {
    let start = Instant::now();
    let mut series: Vec<Vec<Rep>> = tracers.iter().map(|_| Vec::new()).collect();
    let mut gauges = vec![reference::gauge()];
    while series[0].len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        for (i, tr) in tracers.iter_mut().enumerate() {
            for rep in series.iter_mut().filter_map(|reps| reps.last_mut()) {
                rep.accounts = None;
            }
            tr.clear();
            let mut rep = w.rep(seed, tr);
            gauges.push(reference::gauge());
            if fingerprint(&rep) != reference {
                errors.push(format!(
                    "simulated results differ between repetitions of seed {seed}"
                ));
            }
            errors.extend(rep.errors.iter().cloned());
            // Simulated results are equal across repetitions (checked
            // above): keep the first repetition's samples only.
            if !series[i].is_empty() {
                rep.sim.latencies = Vec::new();
                rep.sim.lateness = Vec::new();
            }
            series[i].push(rep);
        }
    }
    let factor = reference::NOMINAL_S / median(gauges);
    for rep in series.iter_mut().flatten() {
        rep.scale_host_times(factor);
    }
    series
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per_op(x: u64, r: &Rep) -> f64 {
    x as f64 / r.ops as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let r = &reps[0];
    let s = &r.sim;
    let p = |q| percentile(&s.latencies, q).map_or(0.0, ms);
    vec![
        metric("setup_s", "s", median_of(reps, |r| r.setup_s)),
        metric("host_us_per_op", "us", median_of(reps, host_us_per_op)),
        metric(
            "peak_heap_mb",
            "MB",
            median_of(reps, |r| r.peak_heap as f64) / (1 << 20) as f64,
        ),
        metric("sim_kbps", "KB/s", s.kbps),
        metric("compute_cpu_share", "ratio", s.compute_share),
        metric("req_p50_ms", "ms", p(50.0)),
        metric("req_p99_ms", "ms", p(99.0)),
        metric("goodput_rps", "1/s", s.goodput_rps),
    ]
}

fn per_layer(reps: &[Rep], untraced_us_per_op: f64) -> Vec<Metric> {
    let r = reps.last().expect("traced repetitions");
    let (m, p) = r
        .accounts
        .as_ref()
        .expect("last repetition keeps its accounts");
    let sim = &reps[0].sim;
    let stage = |h: &ksim::Hist| h.p99().map_or(0.0, ms);
    let syscalls: u64 = p.procs.iter().map(|q| q.syscalls).sum();
    let sys_ns: u64 = p.procs.iter().map(|q| q.sys_time.as_ns()).sum();
    let busy_ns: u64 = p.devices.iter().map(|d| d.busy_time.as_ns()).sum();
    let requests: u64 = p.devices.iter().map(|d| d.requests).sum();
    let service_p99 = p.devices.iter().map(|d| d.service.p99).max().unwrap_or(0);
    let host_us = median_of(reps, host_us_per_op);
    let late_p99 = percentile(&sim.lateness, 99.0).map_or(0.0, |ns| ns as f64 / 1e6);
    let st = &p.stages;
    vec![
        metric("ksim.events_per_op", "1/op", per_op(r.events, r)),
        metric(
            "ksim.host_ns_per_event",
            "ns",
            median_of(reps, |r| r.run_s * 1e9 / r.events as f64),
        ),
        metric(
            "ksim.obs.spans_committed",
            "count",
            m.obs.spans_committed as f64,
        ),
        metric("ksim.obs.staged_peak", "count", m.obs.staged_peak as f64),
        metric("ksim.event_queue_ns", "ns", probes::event_queue_ns()),
        metric("ksim.callout_ns", "ns", probes::callout_ns()),
        metric("core.syscalls_per_op", "1/op", per_op(syscalls, r)),
        metric("core.sys_cpu_ms_per_op", "ms/op", per_op(sys_ns, r) / 1e6),
        metric(
            "core.copy.user_bytes_per_op",
            "B/op",
            per_op(m.copy.copyin_bytes + m.copy.copyout_bytes, r),
        ),
        metric(
            "core.splice.reads_issued_per_op",
            "1/op",
            per_op(m.splice.reads_issued, r),
        ),
        metric(
            "core.splice.backoff_ratio",
            "ratio",
            ratio(
                m.splice.read_backoffs + m.splice.write_backoffs,
                m.splice.reads_issued + m.splice.read_hits,
            ),
        ),
        metric(
            "core.splice.read_queue_wait_p99_ms",
            "ms",
            stage(&st.read_queue_wait),
        ),
        metric(
            "core.splice.read_service_p99_ms",
            "ms",
            stage(&st.read_service),
        ),
        metric(
            "core.splice.read_to_write_p99_ms",
            "ms",
            stage(&st.read_to_write),
        ),
        metric(
            "core.splice.write_service_p99_ms",
            "ms",
            stage(&st.write_service),
        ),
        metric("core.splice.end_to_end_p99_ms", "ms", stage(&st.end_to_end)),
        metric("core.ring.sqe_wait_p99_ms", "ms", stage(&st.sqe_wait)),
        metric(
            "kbuf.hit_ratio",
            "ratio",
            ratio(m.cache.hits, m.cache.hits + m.cache.misses),
        ),
        metric("kbuf.misses_per_op", "1/op", per_op(m.cache.misses, r)),
        metric(
            "kbuf.evictions_per_op",
            "1/op",
            per_op(m.cache.evictions, r),
        ),
        metric(
            "kbuf.reclaim_flushes_per_op",
            "1/op",
            per_op(m.cache.reclaim_flushes, r),
        ),
        metric(
            "kbuf.cold_cache_s",
            "s",
            median_of(reps, |r| r.cold_cache_s),
        ),
        metric("kbuf.getblk_brelse_ns", "ns", probes::getblk_brelse_ns()),
        metric("kfs.setup_file_s", "s", median_of(reps, |r| r.setup_file_s)),
        metric("kfs.bmap_ns", "ns", probes::bmap_ns()),
        metric(
            "khw.ramdisk.busy_frac",
            "ratio",
            ratio(busy_ns, r.sim.run_ns),
        ),
        metric("khw.ramdisk.requests_per_op", "1/op", per_op(requests, r)),
        metric("khw.ramdisk.service_p99_ms", "ms", ms(service_p99)),
        metric(
            "khw.copy.driver_bytes_per_op",
            "B/op",
            per_op(m.copy.driver_bytes, r),
        ),
        metric(
            "kproc.ctx_switches_per_op",
            "1/op",
            per_op(m.sched.ctx_switches, r),
        ),
        metric(
            "kproc.preemptions_per_op",
            "1/op",
            per_op(m.sched.preemptions, r),
        ),
        metric(
            "kproc.intr_cpu_ms_per_op",
            "ms/op",
            per_op(p.kernel_cpu.intr.as_ns(), r) / 1e6,
        ),
        metric(
            "kproc.soft_cpu_ms_per_op",
            "ms/op",
            per_op((p.kernel_cpu.soft + p.kernel_cpu.idle_soft).as_ns(), r) / 1e6,
        ),
        metric("kproc.procs_retained", "count", p.procs.len() as f64),
        metric("knet.backlog_peak", "count", m.net.backlog_peak as f64),
        metric(
            "knet.dropped_backlog",
            "count",
            m.net.dropped_backlog as f64,
        ),
        metric(
            "knet.dropped_rcv_full",
            "count",
            m.net.dropped_rcv_full as f64,
        ),
        metric(
            "knet.snd_blocked_per_req",
            "1/op",
            per_op(m.net.snd_blocked, r),
        ),
        metric("knet.send_deliver_ns", "ns", probes::send_deliver_ns()),
        metric("core.build_s", "s", median_of(reps, |r| r.build_s)),
        metric(
            "host.allocs_per_op",
            "1/op",
            median_of(reps, |r| r.run_allocs as f64 / r.ops as f64),
        ),
        metric(
            "host.setup_allocs",
            "count",
            median_of(reps, |r| r.setup_allocs as f64),
        ),
        metric("harness.gen_early_max_ms", "ms", ms(sim.gen_early_max_ns)),
        metric("kproc.client_start_delay_p99_ms", "ms", late_p99),
        metric(
            "harness.trace_overhead_us_per_op",
            "us",
            host_us - untraced_us_per_op,
        ),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = Json::obj();
    for m in metrics {
        // A non-finite value is reported as a failed check.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.set(
            m.name,
            Json::obj()
                .with("value", Json::Num(value))
                .with("unit", Json::Str(m.unit.into())),
        );
    }
    Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Num(attempted as f64))
        .with("failed", Json::Num(failed as f64))
        .with("metrics", body)
        .render()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <copy_scp|copy_cp|serve_ring> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    // One unmeasured repetition first: it faults in code and fills the
    // buffer arena, and it is the reference every later repetition of
    // this seed must reproduce exactly.
    let mut off = Tracer::new(false);
    let warm = w.rep(args.seed, &mut off);
    let reference = fingerprint(&warm);
    let mut errors = warm.errors.clone();
    drop(warm);

    let mut tracers = vec![off];
    if args.trace {
        tracers.push(Tracer::new(true));
    }
    let mut series = measure(
        w,
        args.seed,
        args.seconds,
        &mut tracers,
        reference,
        &mut errors,
    );
    let traced = if args.trace {
        Some((series.pop().unwrap(), tracers.pop().unwrap()))
    } else {
        None
    };
    let reps = series.pop().expect("untraced series");
    errors.sort();
    errors.dedup();

    let first = &reps[0];
    let s = &first.sim;
    println!(
        "workload {} seed {} ({} measured repetitions)",
        w.name(),
        args.seed,
        reps.len()
    );
    println!("simulated fingerprint {reference:016x}");
    let e2e = end_to_end(&reps);
    for m in &e2e {
        let clock = match m.name {
            "setup_s" | "host_us_per_op" | "peak_heap_mb" => "host",
            _ => "simulated",
        };
        println!("  {:<20} {:>14.4} {:<6} [{clock}]", m.name, m.value, m.unit);
    }
    println!(
        "  host times scaled to the reference machine; host_us_per_op as measured {:.4}",
        median_of(&reps, |r| r.raw_run_s * 1e6 / r.ops as f64)
    );
    println!(
        "  {:<20} {:>14.4} {:<6} [simulated] ({} of {} ops)",
        "fail_ratio",
        ratio(first.failed, first.attempted),
        "ratio",
        first.failed,
        first.attempted
    );
    println!(
        "  request latency from {} samples; p99 has {} beyond it",
        s.latencies.len(),
        s.latencies.len() - (s.latencies.len() as f64 * 0.99).ceil() as usize
    );
    if let Some(paper) = paper_share(w) {
        println!(
            "  compute_cpu_share {:.4} vs paper {paper:.2}: error {:+.4}",
            s.compute_share,
            s.compute_share - paper
        );
    }
    if !s.lateness.is_empty() {
        println!(
            "  generator: spawns each client at most {:.3} ms before its due time",
            ms(s.gen_early_max_ns)
        );
        println!(
            "  client first ran after due, ms: min {:.3} p50 {:.3} p99 {:.3} max {:.3}",
            s.lateness[0] as f64 / 1e6,
            percentile(&s.lateness, 50.0).unwrap() as f64 / 1e6,
            percentile(&s.lateness, 99.0).unwrap() as f64 / 1e6,
            s.lateness[s.lateness.len() - 1] as f64 / 1e6
        );
    }

    let metrics = match &traced {
        None => e2e,
        Some((treps, tracer)) => {
            let untraced_us = median_of(&reps, host_us_per_op);
            let layer = per_layer(treps, untraced_us);
            println!(
                "traced run: {} repetitions, host_us_per_op {:.4} traced vs {:.4} untraced",
                treps.len(),
                median_of(treps, host_us_per_op),
                untraced_us
            );
            for m in &layer {
                println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("  span self time (last traced repetition, host ms):");
            for (name, n, total, own) in tracer.totals() {
                println!(
                    "    {name:<28} {n:>6}x total {:>10.3} self {:>10.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("spans_{}_{}.json", w.name(), args.seed));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.to_json(w.name(), args.seed).render()))
            {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => errors.push(format!("writing {}: {e}", path.display())),
            }
            layer
        }
    };

    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not a finite number", m.name));
    }
    for e in &errors {
        println!("FAILED CHECK: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        result_line(correct, first.attempted, first.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
