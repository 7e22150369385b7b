#![warn(missing_docs)]

//! Process, scheduling and CPU substrate.
//!
//! The paper's headline metric is **CPU availability**: how much of the
//! machine a CPU-bound test program keeps while a copy runs beside it.
//! That requires the simulation to charge every cycle to somebody:
//!
//! * [`cpu::CpuEngine`] — a single CPU with two kinds of work: kernel work
//!   (interrupt service, softclock/callout dispatch, splice handler chains)
//!   that preempts user execution, and user execution that absorbs the
//!   delays. Soft (deferrable) kernel work is budgeted per clock tick;
//!   work past the budget runs only when no user process wants the CPU —
//!   the discipline that keeps charge-free asynchronous kernel work from
//!   starving paying processes.
//! * [`sched`] — round-robin scheduling with a quantum and explicit
//!   context-switch cost.
//! * [`process`] — the process table: program, state, signals, interval
//!   timer, accounting.
//! * [`program`] — the state-machine API user programs are written
//!   against: each step either computes, issues a syscall, or exits.
//! * [`programs`] — the programs the experiments run: the CPU-bound test
//!   program, `cp` (read/write copy), `scp` (splice copy), the §4 movie
//!   player, and network relays.
//!
//! The crate holds no event loop and never performs I/O itself: the kernel
//! in the `splice` crate owns the loop and interprets syscalls; everything
//! here is a deterministic state machine over `ksim` time.

pub mod cpu;
pub mod process;
pub mod program;
pub mod programs;
pub mod sched;
pub mod types;

pub use cpu::{Admit, CpuEngine, CpuStats, KernelRun, WorkClass};
pub use process::{ProcState, ProcTable, Process};
pub use program::{Program, Step, UserCtx};
pub use sched::{CurrentRun, RunKind, Scheduler};
pub use types::{
    Chan, ChanSpace, Errno, FcntlCmd, Fd, OpenFlags, Pid, Sig, SockAddr, SpliceCqe, SpliceLen,
    SpliceOutcome, SpliceReq, SpliceSqe, SyscallReq, SyscallRet,
};
