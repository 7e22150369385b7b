//! Failure-mode suite for the splice data path: deterministic fault
//! injection ([`khw::FaultPlan`]) driven through the whole stack —
//! device error at `biodone` (`B_ERROR`), bounded engine retries with
//! exponential backoff on the callout list, watermark-aware abort with
//! a typed errno and exact partial-transfer accounting, and no leaked
//! buffers or callouts afterwards.

use khw::{DiskProfile, FaultOp, FaultPlan, SECTOR_SIZE};
use kproc::programs::{EndSpec, EndpointPair, Scp, ScpMode};
use kproc::{Errno, ProcState, SpliceLen, SyscallRet};
use ksim::Dur;
use splice::{Kernel, KernelBuilder, MAX_SPLICE_RETRIES};

const MB: u64 = 1024 * 1024;

/// A two-RAM-disk machine with the `update` daemon off, so the armed
/// callout count quiesces to zero and leak assertions are exact.
fn quiet_machine() -> Kernel {
    KernelBuilder::paper_machine_ram()
        .tune(|cfg| cfg.update_interval = None)
        .build()
}

/// First device sector of logical block `lblk` of a file.
fn sector_of(k: &Kernel, disk: usize, path: &str, lblk: u64) -> u64 {
    let ino = k.disks()[disk].fs.lookup(path).expect("file exists");
    let pblk = k.disks()[disk].fs.bmap(ino, lblk).expect("mapped block");
    pblk * (8192 / SECTOR_SIZE as u64)
}

/// Runs the sim a little longer so backoff callouts and soft work fully
/// drain before leak assertions.
fn settle(k: &mut Kernel) {
    let horizon = k.horizon(2);
    k.run_until(horizon, |k| k.pending_callouts() == 0);
}

#[test]
fn transient_read_eio_recovers_byte_exact() {
    let len = MB;
    let mut k = quiet_machine();
    k.setup_file("/d0/src", len, 7);
    k.cold_cache();
    // 1% of read requests fail once; retries draw fresh occurrences.
    k.set_fault_plan(0, FaultPlan::new(42).transient_eio(FaultOp::Read, 0.01));

    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d1/dst", len, 7), None);
    let m = k.metrics();
    assert!(m.io.errors > 0, "the plan injected nothing");
    assert!(
        m.splice.retries > 0,
        "errors must surface as engine retries"
    );
    assert_eq!(m.splice.aborted, 0, "transient errors must not abort");
    assert_eq!(k.splice_outcome(1).done().unwrap().error, None);
    assert_eq!(k.splice_outcome(1).done().unwrap().bytes_moved, len);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn transient_eio_at_specific_block_retries_then_succeeds() {
    let len = 16 * 8192;
    let mut k = quiet_machine();
    k.setup_file("/d0/src", len as u64, 3);
    k.cold_cache();
    let sector = sector_of(&k, 0, "/src", 4);
    // Block 4 fails exactly twice, then reads clean.
    k.set_fault_plan(
        0,
        FaultPlan::new(9).transient_eio_at(FaultOp::Read, sector, 2),
    );

    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d1/dst", len as u64, 3), None);
    let m = k.metrics();
    assert_eq!(m.io.errors, 2);
    assert_eq!(m.splice.retries, 2);
    assert_eq!(m.splice.aborted, 0);
}

#[test]
fn permanent_bad_block_aborts_with_typed_errno_and_exact_partial_count() {
    let nblocks = 16u64;
    let len = nblocks * 8192;
    let mut k = quiet_machine();
    k.setup_file("/d0/src", len, 5);
    k.cold_cache();
    let free_baseline = k.cache().free_count();
    let sector = sector_of(&k, 0, "/src", 4);
    k.set_fault_plan(0, FaultPlan::new(1).bad_block(FaultOp::Read, sector));

    let (pair, result) = EndpointPair::new(
        EndSpec::read("/d0/src"),
        EndSpec::create("/d1/dst"),
        SpliceLen::Eof,
    );
    let pid = k.spawn(Box::new(pair));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    settle(&mut k);

    // The syscall reports the typed errno, never a success count.
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(*result.borrow(), Some(SyscallRet::Err(Errno::Eio)));

    // Retries are bounded, then exactly one abort.
    let m = k.metrics();
    assert_eq!(m.splice.retries, MAX_SPLICE_RETRIES as u64);
    assert_eq!(m.io.errors, MAX_SPLICE_RETRIES as u64 + 1);
    assert_eq!(m.splice.aborted, 1);
    assert_eq!(m.splice.completed, 0);

    // Exact partial accounting: every block except the bad one drained
    // (the engine keeps moving the rest while one block retries), and
    // the recorded outcome matches the span's byte counter.
    let out = k.splice_outcome(1).done().expect("outcome recorded");
    assert_eq!(out.error, Some(Errno::Eio));
    assert_eq!(out.bytes_moved, (nblocks - 1) * 8192);
    assert_eq!(m.splice[1].bytes_moved, out.bytes_moved);

    // Nothing leaked: all cache buffers back on the free list, no
    // pending callouts, filesystems structurally clean.
    assert_eq!(k.cache().free_count(), free_baseline);
    assert_eq!(k.pending_callouts(), 0);
    k.cache().check_invariants();
    assert!(k.fsck_all().is_empty());
}

#[test]
fn permanent_write_fault_aborts_and_dst_fs_stays_consistent() {
    let len = 12 * 8192u64;
    let mut k = quiet_machine();
    k.setup_file("/d0/src", len, 11);
    k.cold_cache();
    let free_baseline = k.cache().free_count();
    // Every write to the destination disk fails, with a torn prefix on
    // one victim sector range for extra spice: crash-consistency check.
    k.set_fault_plan(
        1,
        FaultPlan::new(77)
            .transient_eio(FaultOp::Write, 1.0)
            .torn_write(0, 4),
    );

    let (pair, result) = EndpointPair::new(
        EndSpec::read("/d0/src"),
        EndSpec::create("/d1/dst"),
        SpliceLen::Eof,
    );
    let pid = k.spawn(Box::new(pair));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    settle(&mut k);

    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(*result.borrow(), Some(SyscallRet::Err(Errno::Eio)));
    let m = k.metrics();
    assert_eq!(m.splice.aborted, 1);
    assert!(m.splice.retries >= MAX_SPLICE_RETRIES as u64);
    let out = k.splice_outcome(1).done().expect("outcome recorded");
    assert_eq!(out.error, Some(Errno::Eio));
    assert!(out.bytes_moved < len, "no write ever completed");

    // Crash consistency: a permanent mid-copy write fault (including a
    // torn sector prefix) must not corrupt filesystem structure.
    assert!(k.fsck_all().is_empty());
    assert_eq!(k.cache().free_count(), free_baseline);
    assert_eq!(k.pending_callouts(), 0);
}

/// Regression for the silent-`EIO` gap: `splice(2)` must never report a
/// success value when its descriptor saw unrecovered device errors.
#[test]
fn splice_never_reports_success_after_unrecovered_errors() {
    let mut k = quiet_machine();
    k.setup_file("/d0/src", 8 * 8192, 2);
    k.cold_cache();
    let sector = sector_of(&k, 0, "/src", 0);
    k.set_fault_plan(0, FaultPlan::new(3).bad_block(FaultOp::Read, sector));

    let (pair, result) = EndpointPair::new(
        EndSpec::read("/d0/src"),
        EndSpec::create("/d1/dst"),
        SpliceLen::Eof,
    );
    k.spawn(Box::new(pair));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    let m = k.metrics();
    assert!(m.io.errors > 0);
    let got = result.borrow().clone();
    match got {
        Some(SyscallRet::Err(Errno::Eio)) => {}
        other => panic!("splice must fail with EIO, got {other:?}"),
    }
}

#[test]
fn device_sink_write_failure_aborts_with_eio() {
    let len = 8 * 8192u64;
    let mut k = KernelBuilder::new()
        .disk("d0", DiskProfile::ramdisk())
        .audio_dac("/dev/speaker", kdev::AudioDac::new(64 * 1024, 256 * 1024))
        .tune(|cfg| cfg.update_interval = None)
        .build();
    k.setup_file("/d0/src", len, 13);
    k.cold_cache();
    // The DAC accepts two blocks, then its write path fails.
    k.set_cdev_write_failure(0, 2 * 8192);

    let (pair, result) = EndpointPair::new(
        EndSpec::read("/d0/src"),
        EndSpec::write("/dev/speaker"),
        SpliceLen::Eof,
    );
    let pid = k.spawn(Box::new(pair));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    settle(&mut k);

    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(*result.borrow(), Some(SyscallRet::Err(Errno::Eio)));
    let m = k.metrics();
    assert_eq!(m.splice.aborted, 1);
    assert!(m.io.errors > 0);
    let out = k.splice_outcome(1).done().expect("outcome recorded");
    assert_eq!(out.error, Some(Errno::Eio));
    assert_eq!(out.bytes_moved, 2 * 8192);
    assert_eq!(k.pending_callouts(), 0);
}

#[test]
fn latency_spikes_delay_but_never_corrupt() {
    let len = MB / 2;
    let mut k = quiet_machine();
    k.setup_file("/d0/src", len, 17);
    k.cold_cache();
    // Every read stalls 5 ms extra; no errors are injected.
    k.set_fault_plan(
        0,
        FaultPlan::new(5).latency_spike(FaultOp::Read, 1.0, Dur::from_ms(5)),
    );

    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d1/dst", len, 17), None);
    let m = k.metrics();
    assert_eq!(m.io.errors, 0);
    assert_eq!(m.splice.retries, 0);
    assert_eq!(m.splice.aborted, 0);
}

#[test]
fn fault_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut k = quiet_machine();
        k.setup_file("/d0/src", MB, 7);
        k.cold_cache();
        k.set_fault_plan(0, FaultPlan::new(seed).transient_eio(FaultOp::Read, 0.02));
        k.spawn(Box::new(Scp::with_options(
            "/d0/src",
            "/d1/dst",
            ScpMode::Sync,
            1,
        )));
        let horizon = k.horizon(600);
        let end = k.run_to_exit(horizon);
        let m = k.metrics();
        (end.as_ns(), m.io.errors, m.splice.retries)
    };
    let a = run(1234);
    assert_eq!(a, run(1234), "same seed must replay identically");
    assert_ne!(
        (a.1, a.2),
        (0, 0),
        "rate 2% over 128 blocks should inject at least once"
    );
}

/// The seed comes from `FAULT_SEED` when set — `scripts/ci.sh` runs the
/// suite a second time with a randomized seed (printed on failure) — and
/// defaults to a fixed one. The contract is seed-independent: transient
/// faults recover byte-exact for *every* plan seed, because each retry
/// draws a fresh occurrence.
#[test]
fn any_seed_transient_faults_recover() {
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C);
    let len = MB;
    let mut k = quiet_machine();
    k.setup_file("/d0/src", len, 7);
    k.cold_cache();
    k.set_fault_plan(0, FaultPlan::new(seed).transient_eio(FaultOp::Read, 0.02));

    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    assert!(
        matches!(k.procs().must(pid).state, ProcState::Exited(0)),
        "FAULT_SEED={seed}: copy did not finish"
    );
    assert_eq!(
        k.verify_pattern_file("/d1/dst", len, 7),
        None,
        "FAULT_SEED={seed}: corrupted copy"
    );
    let m = k.metrics();
    assert_eq!(
        m.splice.aborted, 0,
        "FAULT_SEED={seed}: transient faults must never abort"
    );
    assert!(k.fsck_all().is_empty(), "FAULT_SEED={seed}: fsck dirty");
}

#[test]
fn fault_events_appear_in_trace_and_kstat() {
    let mut k = KernelBuilder::paper_machine_ram()
        .tune(|cfg| cfg.update_interval = None)
        .trace(100_000)
        .build();
    k.setup_file("/d0/src", 16 * 8192, 3);
    k.cold_cache();
    let sector = sector_of(&k, 0, "/src", 2);
    k.set_fault_plan(
        0,
        FaultPlan::new(8).transient_eio_at(FaultOp::Read, sector, 1),
    );
    k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);

    let q = k.trace().query();
    assert_eq!(q.named("disk.error").len(), 1);
    assert_eq!(q.named("splice.retry").len(), 1);
    assert_eq!(q.named("splice.abort").len(), 0);
    let m = k.metrics();
    assert_eq!((m.splice.retries, m.splice.aborted), (1, 0));
    // The retried block still closes its span: read -> write -> done.
    let spans = q.block_spans(1);
    assert!(spans.iter().all(|s| s.complete()), "incomplete block span");
}
