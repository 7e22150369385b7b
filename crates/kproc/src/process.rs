//! The process table.
//!
//! State changes go through [`ProcTable::set_state`], which maintains
//! three incremental indices — the live count, the user-demand count,
//! and the ordered `(channel, pid)` sleeper set — so `all_exited`,
//! `any_user_demand`, and `sleepers` are O(1)-ish however many
//! processes exist. A connection-scale scenario (tens of thousands of
//! client processes) calls all three on hot paths; scanning the table
//! there would make the whole simulation quadratic.

use std::collections::{BTreeMap, BTreeSet};

use ksim::{Dur, SimTime};

use crate::program::{Program, UserCtx};
use crate::types::{Chan, Pid, Sig};

/// Scheduling state of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// On the run queue (or about to be placed there).
    Runnable,
    /// Currently on the CPU.
    Running,
    /// Asleep on a channel.
    Sleeping(Chan),
    /// Finished, with an exit status.
    Exited(i32),
}

/// Per-process accounting, read by the experiment harnesses.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcAccounting {
    /// User-mode CPU consumed.
    pub user_time: Dur,
    /// Kernel-mode CPU consumed on this process's behalf (syscalls).
    pub sys_time: Dur,
    /// Voluntary context switches (blocked).
    pub vcsw: u64,
    /// Involuntary context switches (quantum expiry).
    pub icsw: u64,
    /// System calls issued.
    pub syscalls: u64,
}

impl ProcAccounting {
    /// User plus system CPU charged to this process — the numerator of
    /// the profiler's availability gauge (`cpu_time / wall_time`).
    pub fn cpu_time(&self) -> Dur {
        self.user_time + self.sys_time
    }
}

/// An armed repeating interval timer: its period and the callout that
/// fires it next.
#[derive(Clone, Copy, Debug)]
pub struct Itimer {
    /// Repeating period.
    pub interval: Dur,
    /// The armed callout (cancelled on disarm and at exit).
    pub callout: ksim::CalloutId,
}

/// One process.
pub struct Process {
    /// Identity.
    pub pid: Pid,
    /// Scheduling state.
    pub state: ProcState,
    /// The user program.
    pub program: Box<dyn Program>,
    /// Context handed to the next `program.step()` (syscall return,
    /// signals).
    pub ctx: UserCtx,
    /// Signals the process has asked to catch.
    pub catches: Vec<Sig>,
    /// Signals delivered but not yet consumed by a `pause`/step.
    pub pending_sigs: Vec<Sig>,
    /// The interval timer, if armed.
    pub itimer: Option<Itimer>,
    /// User compute left over after a quantum preemption; resumed before
    /// the program is stepped again.
    pub pending_compute: Option<Dur>,
    /// Recently consumed CPU, decayed periodically (the 4.3BSD `p_cpu`
    /// analogue): lower means better scheduling priority.
    pub recent_cpu: Dur,
    /// Accounting.
    pub acct: ProcAccounting,
    /// When the process was created.
    pub started: SimTime,
    /// When it exited (for reports).
    pub ended: Option<SimTime>,
}

impl Process {
    /// True if the process catches `sig`.
    pub fn catches(&self, sig: Sig) -> bool {
        self.catches.contains(&sig)
    }

    /// True if the process has exited.
    pub fn exited(&self) -> bool {
        matches!(self.state, ProcState::Exited(_))
    }
}

/// The process table: owns every process, allocates pids.
///
/// The sleeper index holds one `(channel, pid)` entry per process asleep
/// now; waking removes it, so a channel nobody sleeps on costs nothing.
/// Exited processes stay in the table (their accounting feeds the
/// reports).
#[derive(Default)]
pub struct ProcTable {
    procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    /// Processes not yet exited.
    live: usize,
    /// Processes runnable or running.
    demand: usize,
    /// Every sleeping process, keyed by its channel then its pid.
    sleep_index: BTreeSet<(Chan, Pid)>,
}

impl ProcTable {
    /// An empty table. Pid 0 is never handed out (it is the "kernel").
    pub fn new() -> ProcTable {
        ProcTable {
            procs: BTreeMap::new(),
            next_pid: 1,
            live: 0,
            demand: 0,
            sleep_index: BTreeSet::new(),
        }
    }

    /// Creates a process running `program`, initially runnable.
    pub fn spawn(&mut self, program: Box<dyn Program>, now: SimTime) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            Process {
                pid,
                state: ProcState::Runnable,
                program,
                ctx: UserCtx::default(),
                catches: Vec::new(),
                pending_sigs: Vec::new(),
                itimer: None,
                pending_compute: None,
                recent_cpu: Dur::ZERO,
                acct: ProcAccounting::default(),
                started: now,
                ended: None,
            },
        );
        self.live += 1;
        self.demand += 1;
        pid
    }

    /// Moves `pid` to `state`, keeping the live/demand/sleeper indices
    /// consistent. The only sanctioned way to change a process state.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn set_state(&mut self, pid: Pid, state: ProcState) {
        let p = self
            .procs
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("no {pid:?}"));
        let old = p.state;
        if old == state {
            return;
        }
        p.state = state;
        match old {
            ProcState::Runnable | ProcState::Running => self.demand -= 1,
            ProcState::Sleeping(chan) => {
                self.sleep_index.remove(&(chan, pid));
            }
            ProcState::Exited(_) => self.live += 1,
        }
        match state {
            ProcState::Runnable | ProcState::Running => self.demand += 1,
            ProcState::Sleeping(chan) => {
                self.sleep_index.insert((chan, pid));
            }
            ProcState::Exited(_) => self.live -= 1,
        }
    }

    /// Looks up a process.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Looks up a process mutably.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// Indexes a process that must exist.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn must(&self, pid: Pid) -> &Process {
        self.procs.get(&pid).unwrap_or_else(|| panic!("no {pid:?}"))
    }

    /// Mutable [`ProcTable::must`].
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn must_mut(&mut self, pid: Pid) -> &mut Process {
        self.procs
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("no {pid:?}"))
    }

    /// Iterates all processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> + '_ {
        self.procs.values()
    }

    /// Halves every live process's decayed CPU usage (the 4.3BSD
    /// `schedcpu` analogue), in place — no per-pid lookups, so the
    /// quarter-second decay stays cheap with huge process counts.
    pub fn decay_recent_cpu(&mut self) {
        for p in self.procs.values_mut() {
            if !p.recent_cpu.is_zero() && !p.exited() {
                p.recent_cpu = p.recent_cpu / 2;
            }
        }
    }

    /// True if `a` has a clearly better scheduling priority than `b`:
    /// less than half of `b`'s decayed CPU usage. The hysteresis stands in
    /// for BSD's quantised priority bands, so near-equals keep FIFO
    /// order. The one priority comparison, used both for wakeup
    /// preemption and for picking the next process to run.
    ///
    /// # Panics
    ///
    /// Panics if either pid is unknown.
    pub fn outranks(&self, a: Pid, b: Pid) -> bool {
        self.must(a).recent_cpu.as_ns() * 2 < self.must(b).recent_cpu.as_ns()
    }

    /// Every process sleeping on `chan`, in pid order (the order the
    /// original table scan produced, so wakeup ordering is unchanged).
    pub fn sleepers(&self, chan: Chan) -> Vec<Pid> {
        self.sleep_index
            .range((chan, Pid(0))..=(chan, Pid(u32::MAX)))
            .map(|&(_, pid)| pid)
            .collect()
    }

    /// True when every process has exited.
    pub fn all_exited(&self) -> bool {
        self.live == 0
    }

    /// True if any process is runnable or running (used to decide whether
    /// deferred kernel work may monopolise the CPU).
    pub fn any_user_demand(&self) -> bool {
        self.demand > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Step;

    struct Nop;
    impl Program for Nop {
        fn step(&mut self, _ctx: &mut UserCtx) -> Step {
            Step::Exit(0)
        }
    }

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(t.must(a).state, ProcState::Runnable);
    }

    #[test]
    fn sleepers_filters_by_channel() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        let chan = Chan::new(crate::types::ChanSpace::Buf, 9);
        t.set_state(a, ProcState::Sleeping(chan));
        t.set_state(
            b,
            ProcState::Sleeping(Chan::new(crate::types::ChanSpace::Buf, 10)),
        );
        assert_eq!(t.sleepers(chan), vec![a]);
        // Waking detaches from the sleeper index.
        t.set_state(a, ProcState::Runnable);
        assert_eq!(t.sleepers(chan), vec![]);
    }

    #[test]
    fn sleepers_report_in_pid_order() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        let c = t.spawn(Box::new(Nop), SimTime::ZERO);
        let chan = Chan::new(crate::types::ChanSpace::Buf, 1);
        // Sleep in reverse order; the report is still pid-sorted.
        for pid in [c, a, b] {
            t.set_state(pid, ProcState::Sleeping(chan));
        }
        assert_eq!(t.sleepers(chan), vec![a, b, c]);
    }

    #[test]
    fn sleep_index_holds_only_current_sleepers() {
        let mut t = ProcTable::new();
        let pids: Vec<Pid> = (0..50)
            .map(|_| t.spawn(Box::new(Nop), SimTime::ZERO))
            .collect();
        // Every process sleeps on its own channel, then half of them
        // share one, slept on in reverse pid order.
        for (i, &pid) in pids.iter().enumerate() {
            let own = Chan::new(crate::types::ChanSpace::Splice, i as u64);
            t.set_state(pid, ProcState::Sleeping(own));
            t.set_state(pid, ProcState::Runnable);
        }
        let shared = Chan::new(crate::types::ChanSpace::Accept, 1);
        for &pid in pids.iter().step_by(2).rev() {
            t.set_state(pid, ProcState::Sleeping(shared));
        }
        let evens: Vec<Pid> = pids.iter().step_by(2).copied().collect();
        assert_eq!(t.sleepers(shared), evens, "pid order, not sleep order");
        assert_eq!(t.sleep_index.len(), evens.len());
        for pid in evens {
            t.set_state(pid, ProcState::Runnable);
        }
        assert!(t.sleepers(shared).is_empty());
        assert!(
            t.sleep_index.is_empty(),
            "woken sleepers leave nothing behind"
        );
    }

    #[test]
    fn demand_and_exit_tracking() {
        let mut t = ProcTable::new();
        let a = t.spawn(Box::new(Nop), SimTime::ZERO);
        assert!(t.any_user_demand());
        assert!(!t.all_exited());
        t.set_state(a, ProcState::Exited(0));
        assert!(!t.any_user_demand());
        assert!(t.all_exited());
        // A sleeper is alive but not demanding the CPU.
        let b = t.spawn(Box::new(Nop), SimTime::ZERO);
        t.set_state(
            b,
            ProcState::Sleeping(Chan::new(crate::types::ChanSpace::Buf, 2)),
        );
        assert!(!t.any_user_demand());
        assert!(!t.all_exited());
        t.set_state(b, ProcState::Exited(0));
        assert!(t.all_exited());
    }
}
