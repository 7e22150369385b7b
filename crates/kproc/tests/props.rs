//! Property tests for the CPU engine and scheduler bookkeeping, and a
//! differential test of the indexed run queue against a scanning model.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use proptest::prelude::*;

use kproc::{
    Admit, CpuEngine, CurrentRun, Pid, ProcTable, Program, RunKind, Scheduler, Step, UserCtx,
    WorkClass,
};
use ksim::{Dur, SimTime};

struct Nop;
impl Program for Nop {
    fn step(&mut self, _ctx: &mut UserCtx) -> Step {
        Step::Exit(0)
    }
}

/// The reference run queue: a FIFO `Vec` scanned for the least recent
/// CPU on every take.
#[derive(Default)]
struct ScanQueue {
    fifo: Vec<Pid>,
}

impl ScanQueue {
    fn take_next(&mut self, procs: &ProcTable) -> Option<Pid> {
        let head = *self.fifo.first()?;
        // `min_by_key` keeps the first of equal keys: FIFO among ties.
        let (at, &best) = self
            .fifo
            .iter()
            .enumerate()
            .min_by_key(|(_, &p)| procs.must(p).recent_cpu)
            .unwrap();
        let at = if procs.outranks(best, head) { at } else { 0 };
        Some(self.fifo.remove(at))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_work_windows_never_overlap(
        items in prop::collection::vec((0u64..10_000, 1u64..2_000, any::<bool>()), 1..100)
    ) {
        let mut cpu = CpuEngine::new(Dur::from_us(500));
        let mut now = SimTime::ZERO;
        let mut last_end = SimTime::ZERO;
        let mut total_run = Dur::ZERO;
        for (gap_us, cost_us, soft) in items {
            now += Dur::from_us(gap_us);
            let class = if soft { WorkClass::Soft } else { WorkClass::Intr };
            match cpu.admit(now, Dur::from_us(cost_us), class) {
                Admit::Run(w) => {
                    // Serialised: every window begins at or after the
                    // previous one ends, and at or after its arrival.
                    prop_assert!(w.start >= last_end);
                    prop_assert!(w.start >= now);
                    prop_assert_eq!(w.cost(), Dur::from_us(cost_us));
                    last_end = w.end;
                    total_run += w.cost();
                }
                Admit::Deferred => {
                    prop_assert!(soft, "Intr work is never deferred");
                }
            }
        }
        prop_assert_eq!(cpu.kernel_time(), total_run);
    }

    #[test]
    fn soft_budget_resets_each_tick(
        costs in prop::collection::vec(1u64..400, 1..40)
    ) {
        let budget = Dur::from_us(500);
        let mut cpu = CpuEngine::new(budget);
        let mut admitted_this_tick = Dur::ZERO;
        for (i, c) in costs.iter().enumerate() {
            if i % 5 == 0 {
                cpu.new_tick();
                admitted_this_tick = Dur::ZERO;
            }
            let cost = Dur::from_us(*c);
            match cpu.admit(SimTime::ZERO + Dur::from_ms(i as u64), cost, WorkClass::Soft) {
                Admit::Run(_) => {
                    // Threshold semantics: admission happened while usage
                    // was under budget.
                    prop_assert!(admitted_this_tick < budget);
                    admitted_this_tick += cost;
                }
                Admit::Deferred => {
                    prop_assert!(admitted_this_tick >= budget);
                }
            }
        }
    }

    #[test]
    fn run_generations_are_unique_and_current(
        chunks in prop::collection::vec((1u64..10_000, 0u64..500), 1..60)
    ) {
        let mut s = Scheduler::new(Dur::from_ms(40));
        let mut seen = std::collections::HashSet::new();
        let mut now = SimTime::ZERO;
        for (dur_us, penalty_us) in chunks {
            let g = s.start_run(
                Pid(1),
                RunKind::SyscallCpu,
                now,
                Dur::from_us(dur_us),
                Dur::from_ms(40),
            );
            prop_assert!(seen.insert(g), "generation reuse");
            prop_assert!(s.is_current(Pid(1), g));
            if penalty_us > 0 {
                s.current_mut().unwrap().penalty = Dur::from_us(penalty_us);
                let end = s.current().unwrap().chunk_end + Dur::from_us(penalty_us);
                let g2 = s.rearm_current(end);
                prop_assert!(seen.insert(g2), "generation reuse after rearm");
                prop_assert!(!s.is_current(Pid(1), g), "old generation stays stale");
                prop_assert!(s.is_current(Pid(1), g2));
            }
            let run: CurrentRun = s.stop_current().unwrap();
            // Total stolen time is what was folded in by rearm.
            prop_assert_eq!(run.stolen, Dur::from_us(penalty_us));
            now = run.chunk_end;
        }
    }

    /// Random enqueue / take / decay sequences: the indexed queue picks
    /// exactly what a scan of the FIFO picks. A taken process "runs" and
    /// is charged CPU before it may be queued again; the decay halves
    /// every process's usage and rekeys the index.
    #[test]
    fn indexed_run_queue_matches_a_scanning_model(
        ops in prop::collection::vec((0u8..3, 0usize..12, 0u64..80), 1..300)
    ) {
        let mut procs = ProcTable::new();
        let pids: Vec<Pid> = (0..12).map(|_| procs.spawn(Box::new(Nop), SimTime::ZERO)).collect();
        let mut sched = Scheduler::new(Dur::from_ms(40));
        let mut model = ScanQueue::default();
        for (op, who, ms) in ops {
            match op {
                0 => {
                    let pid = pids[who];
                    if !model.fifo.contains(&pid) {
                        sched.enqueue(pid, &procs);
                        model.fifo.push(pid);
                    }
                }
                1 => {
                    let got = sched.take_next(&procs);
                    prop_assert_eq!(got, model.take_next(&procs));
                    if let Some(pid) = got {
                        procs.must_mut(pid).recent_cpu += Dur::from_ms(ms);
                    }
                }
                _ => {
                    procs.decay_recent_cpu();
                    sched.rekey(&procs);
                }
            }
            prop_assert_eq!(sched.queued(), model.fifo.len());
        }
        while let Some(pid) = model.take_next(&procs) {
            prop_assert_eq!(sched.take_next(&procs), Some(pid));
        }
        prop_assert_eq!(sched.take_next(&procs), None);
    }
}
