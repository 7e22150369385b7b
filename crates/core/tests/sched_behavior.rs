//! Scheduler and CPU-engine behaviour at the kernel level: fairness,
//! wakeup preemption, priority decay, the softwork budget, and the
//! priority-ordered run queue.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use kdev::AudioDac;
use khw::DiskProfile;
use kproc::programs::{Cp, CpuBound, Scp};
use kproc::{
    Fd, OpenFlags, Pid, ProcState, Program, Sig, SockAddr, Step, SyscallReq, SyscallRet, UserCtx,
};
use ksim::{Dur, SimTime, TraceEvent, TraceRecord};
use splice::{Kernel, KernelBuilder, KernelConfig};

fn elapsed_of(k: &Kernel, pid: Pid) -> f64 {
    let p = k.procs().must(pid);
    p.ended
        .expect("process finished")
        .since(p.started)
        .as_secs_f64()
}

#[test]
fn two_cpu_bound_processes_share_fairly() {
    let mut k = KernelBuilder::new().build();
    let a = k.spawn(Box::new(CpuBound::new(1_000, Dur::from_ms(1))));
    let b = k.spawn(Box::new(CpuBound::new(1_000, Dur::from_ms(1))));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    let (ta, tb) = (elapsed_of(&k, a), elapsed_of(&k, b));
    // Both need 1 s of CPU; sharing one CPU they finish around 2 s,
    // within a quantum of each other.
    assert!((ta - tb).abs() < 0.1, "unfair split: {ta:.3} vs {tb:.3}");
    assert!(ta > 1.9 && ta < 2.2, "elapsed {ta:.3}");
    // Quantum preemptions happened.
    assert!(k.procs().must(a).acct.icsw > 10);
}

#[test]
fn single_process_pays_only_clock_overhead() {
    let mut k = KernelBuilder::new().build();
    let a = k.spawn(Box::new(CpuBound::new(2_000, Dur::from_ms(1))));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    let t = elapsed_of(&k, a);
    // 2 s of work; hardclock at HZ=256 costs 12 us per 3.9 ms ≈ 0.3 %.
    assert!(t > 2.0 && t < 2.02, "elapsed {t:.4}");
}

#[test]
fn io_bound_process_preempts_a_fresh_cpu_hog() {
    // An I/O-bound process with low decayed CPU usage should make
    // progress at its natural I/O rate even next to a CPU hog.
    let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
    k.setup_file("/d0/src", 1024 * 1024, 1);
    k.cold_cache();
    let cp = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
    k.spawn(Box::new(CpuBound::new(20_000, Dur::from_ms(1))));
    let horizon = k.horizon(120);
    k.run_until_exit_of(cp, horizon);
    let t = elapsed_of(&k, cp);
    // Alone the copy takes ~0.5 s; with the hog it must still finish in a
    // few seconds (preemption working), not at one block per quantum
    // (which would be ~128 * 40 ms ≈ 5+ s of pure queueing delays on
    // reads alone).
    assert!(t < 4.0, "cp starved: {t:.2}s");
    assert!(k.metrics().sched.preemptions > 0, "no wakeup preemption");
}

#[test]
fn splice_defers_to_user_demand_but_uses_idle_cpu() {
    // Contended: splice throughput collapses to roughly the budget share.
    let contended = {
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
        k.setup_file("/d0/src", 2 * 1024 * 1024, 2);
        k.cold_cache();
        let scp = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
        k.spawn(Box::new(CpuBound::new(30_000, Dur::from_ms(1))));
        let horizon = k.horizon(600);
        k.run_until_exit_of(scp, horizon);
        elapsed_of(&k, scp)
    };
    // Idle: the same splice gets the whole CPU.
    let idle = {
        let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
        k.setup_file("/d0/src", 2 * 1024 * 1024, 2);
        k.cold_cache();
        let scp = k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
        let horizon = k.horizon(600);
        k.run_until_exit_of(scp, horizon);
        elapsed_of(&k, scp)
    };
    assert!(
        contended > idle * 2.5,
        "budgeted splice must slow under contention: idle {idle:.2}s vs contended {contended:.2}s"
    );
}

#[test]
fn interrupt_load_extends_user_chunks() {
    // A CPU-bound process beside a SCSI copy finishes late by roughly the
    // interrupt + pseudo-DMA time the copy generated.
    let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
    k.setup_file("/d0/src", 2 * 1024 * 1024, 3);
    k.cold_cache();
    let test = k.spawn(Box::new(CpuBound::new(3_000, Dur::from_ms(1))));
    k.spawn(Box::new(Scp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(120);
    k.run_until_exit_of(test, horizon);
    let t = elapsed_of(&k, test);
    assert!(t > 3.05, "interrupt load must be visible: {t:.3}");
    assert!(t < 4.5, "but bounded: {t:.3}");
}

#[test]
fn accounting_adds_up() {
    let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
    k.setup_file("/d0/src", 1024 * 1024, 4);
    k.cold_cache();
    let cp = k.spawn(Box::new(Cp::new("/d0/src", "/d1/dst")));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    let acct = k.procs().must(cp).acct;
    // cp's time is almost all system time (copies run in the kernel).
    assert!(acct.sys_time > Dur::from_ms(100));
    assert!(acct.user_time < acct.sys_time);
    assert!(acct.syscalls >= 128 * 2, "a read+write per block");
    // And the wall clock covers both.
    let t = elapsed_of(&k, cp);
    assert!(t >= (acct.sys_time + acct.user_time).as_secs_f64());
}

#[test]
fn update_daemon_flushes_delayed_writes() {
    // A partial (delayed) write with no fsync becomes durable once the
    // update daemon has run.
    let mut k = KernelBuilder::new()
        .disk("d", DiskProfile::ramdisk())
        .tune(|cfg| cfg.update_interval = Some(Dur::from_secs(5)))
        .build();
    // Create the file durably first (Writer fsyncs)…
    let w = k.spawn(Box::new(kproc::programs::Writer::new(
        "/d/f", 1000, 1000, 7,
    )));
    let horizon = k.horizon(60);
    k.run_until_exit_of(w, horizon);
    // …then dirty a block through a program that never fsyncs.

    struct DirtyWrite {
        st: u32,
    }
    impl kproc::Program for DirtyWrite {
        fn step(&mut self, ctx: &mut kproc::UserCtx) -> kproc::Step {
            use kproc::{OpenFlags, Step, SyscallReq};
            // Open (no trunc), partial write, exit: leaves a delayed
            // write behind, with no fsync to flush it.
            self.st += 1;
            match self.st {
                1 => Step::Syscall(SyscallReq::Open {
                    path: "/d/f".into(),
                    flags: OpenFlags {
                        read: false,
                        write: true,
                        create: false,
                        trunc: false,
                    },
                }),
                2 => {
                    let fd = ctx.take_ret().as_fd().unwrap();
                    Step::Syscall(SyscallReq::Write {
                        fd,
                        data: vec![0xEE; 100],
                    })
                }
                3 => {
                    ctx.take_ret();
                    Step::Exit(0)
                }
                _ => Step::Exit(0),
            }
        }
    }
    let d = k.spawn(Box::new(DirtyWrite { st: 0 }));
    k.run_until_exit_of(d, k.horizon(60));
    // Run past one update period without any process demanding flushes.
    let target = k.horizon(12);
    k.run_until(target, |_| false);
    assert!(
        k.metrics().update_flushes > 0,
        "update daemon never flushed"
    );
    // The partial write is now on the medium.
    let got = k.dump_file("/d/f");
    assert_eq!(&got[..100], &[0xEE; 100]);
}

// ----- the priority-ordered run queue --------------------------------------

/// One system call built from the descriptor the script opened last.
type Call = Box<dyn Fn(Option<Fd>) -> SyscallReq>;

/// Issues a fixed list of system calls, noting the simulated time of
/// every step, then exits.
struct Script {
    calls: VecDeque<Call>,
    fd: Option<Fd>,
    ran_at: Rc<RefCell<Vec<SimTime>>>,
}

impl Script {
    fn new(calls: Vec<Call>) -> (Script, Rc<RefCell<Vec<SimTime>>>) {
        let ran_at = Rc::new(RefCell::new(Vec::new()));
        let script = Script {
            calls: calls.into(),
            fd: None,
            ran_at: Rc::clone(&ran_at),
        };
        (script, ran_at)
    }
}

impl Program for Script {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        if let Some(fd) = ctx.ret.take().and_then(|r| r.as_fd()) {
            self.fd = Some(fd);
        }
        self.ran_at.borrow_mut().push(ctx.now);
        match self.calls.pop_front() {
            Some(call) => Step::Syscall(call(self.fd)),
            None => Step::Exit(0),
        }
    }
}

fn open_audio() -> Call {
    Box::new(|_| SyscallReq::Open {
        path: "/dev/audio".into(),
        flags: OpenFlags {
            read: false,
            write: true,
            create: false,
            trunc: false,
        },
    })
}

fn write_audio(bytes: usize) -> Call {
    Box::new(move |fd| SyscallReq::Write {
        fd: fd.expect("audio opened"),
        data: vec![0x5a; bytes],
    })
}

/// Sleep until SIGALRM arrives `after` from now, then disarm the timer.
fn alarm_sleep(after: Dur) -> Vec<Call> {
    vec![
        Box::new(|_| SyscallReq::Sigaction {
            sig: Sig::Alrm,
            catch: true,
        }),
        Box::new(move |_| SyscallReq::SetItimer { interval: after }),
        Box::new(|_| SyscallReq::Pause),
        Box::new(|_| SyscallReq::SetItimer {
            interval: Dur::ZERO,
        }),
    ]
}

fn pid_of(ev: &TraceEvent) -> Option<u32> {
    match *ev {
        TraceEvent::SchedWakeup { pid }
        | TraceEvent::SchedDispatch { pid }
        | TraceEvent::SchedPreempt { pid }
        | TraceEvent::SchedRun { pid, .. } => Some(pid),
        _ => None,
    }
}

/// The scheduler records of a traced run, in order.
fn sched_records(k: &Kernel) -> Vec<TraceRecord> {
    k.trace()
        .records()
        .filter(|r| pid_of(&r.ev).is_some())
        .copied()
        .collect()
}

#[test]
fn a_process_spawned_beside_a_hog_runs_within_one_context_switch() {
    let mut k = KernelBuilder::new().build();
    let hog = k.spawn(Box::new(CpuBound::new(2_000, Dur::from_ms(1))));
    // 90 ms is mid-quantum: the hog's 40 ms quanta end near 40, 80 and
    // 120 ms.
    k.run_until(SimTime::ZERO + Dur::from_ms(90), |_| false);
    assert_eq!(k.procs().must(hog).state, ProcState::Running);
    let spawned = k.now();
    let (probe, ran_at) = Script::new(Vec::new());
    let probe = k.spawn(Box::new(probe));
    let horizon = k.horizon(5);
    k.run_until_exit_of(probe, horizon);
    let waited = ran_at.borrow()[0].since(spawned);
    // One 120 us context switch, not the rest of the hog's quantum.
    assert!(
        waited < Dur::from_ms(1),
        "new process waited {waited} for the CPU"
    );
}

#[test]
fn a_process_woken_during_a_syscall_chunk_runs_before_the_queued_hog() {
    let mut k = KernelBuilder::new()
        .audio_dac("/dev/audio", AudioDac::new(1_000_000, 4 << 20))
        .trace(100_000)
        .build();
    let tick = KernelConfig::default().machine.tick();
    // The writer wakes at ~100 ms, preempts the hog and spends ~150 ms
    // of kernel time copying 1 MB in; the sleeper wakes two ticks into
    // that copy.
    let mut writer = alarm_sleep(Dur::from_ms(100));
    writer.insert(0, open_audio());
    writer.push(write_audio(1 << 20));
    let (writer, _) = Script::new(writer);
    let writer = k.spawn(Box::new(writer));
    let (sleeper, _) = Script::new(alarm_sleep(Dur::from_ms(100) + tick * 2));
    let sleeper = k.spawn(Box::new(sleeper));
    let hog = k.spawn(Box::new(CpuBound::new(2_000, Dur::from_ms(1))));
    let horizon = k.horizon(10);
    k.run_until_exit_of(sleeper, horizon);

    let recs = sched_records(&k);
    let woke = recs
        .iter()
        .position(|r| r.ev == TraceEvent::SchedWakeup { pid: sleeper.0 })
        .expect("sleeper woke");
    // Preconditions: the hog was preempted and queued, and the writer's
    // copy chunk was on the CPU when the sleeper woke.
    assert!(recs[..woke]
        .iter()
        .any(|r| r.ev == TraceEvent::SchedPreempt { pid: hog.0 }));
    let chunk = recs[..woke]
        .iter()
        .rev()
        .find(|r| matches!(r.ev, TraceEvent::SchedRun { .. }))
        .unwrap();
    let TraceEvent::SchedRun { pid, ns } = chunk.ev else {
        unreachable!()
    };
    assert_eq!(pid, writer.0, "the writer's copy was running");
    assert!(
        chunk.at + Dur::from_ns(ns) > recs[woke].at,
        "mid-chunk wakeup"
    );
    // The sleeper is the next process dispatched; the hog does not run
    // first.
    let next = recs[woke..]
        .iter()
        .find(|r| matches!(r.ev, TraceEvent::SchedDispatch { .. }))
        .expect("a dispatch follows");
    assert_eq!(
        next.ev,
        TraceEvent::SchedDispatch { pid: sleeper.0 },
        "the queued hog ran before the woken sleeper"
    );
}

#[test]
fn a_wakeup_in_the_context_switch_window_is_weighed_at_dispatch() {
    // A DAC whose 4 KB buffer drains at 8 MB/s: writing one byte more
    // than the buffer holds sleeps ~125 ns for space. That timed wake
    // lands at the end of the write's syscall chunk, i.e. inside the
    // context switch the sleep starts, with the hog queued.
    let mut k = KernelBuilder::new()
        .audio_dac("/dev/audio", AudioDac::new(8_000_000, 4096))
        .trace(100_000)
        .build();
    let hog = k.spawn(Box::new(CpuBound::new(2_000, Dur::from_ms(1))));
    k.run_until(SimTime::ZERO + Dur::from_ms(90), |_| false);
    let (writer, ran_at) = Script::new(vec![open_audio(), write_audio(4097)]);
    let writer = k.spawn(Box::new(writer));
    let horizon = k.horizon(5);
    k.run_until_exit_of(writer, horizon);

    // The steps that issued the open and the write, then the exit.
    let steps = ran_at.borrow();
    let recs = sched_records(&k);
    let write_chunk = recs
        .iter()
        .position(|r| {
            r.at >= steps[1] && matches!(r.ev, TraceEvent::SchedRun { pid, .. } if pid == writer.0)
        })
        .expect("the write ran");
    // The switch that the sleep started goes to the writer, with no
    // preemption in between: the wakeup was weighed at dispatch.
    let next = recs[write_chunk + 1..]
        .iter()
        .find(|r| !matches!(r.ev, TraceEvent::SchedRun { .. }))
        .expect("a dispatch follows");
    assert_eq!(
        next.ev,
        TraceEvent::SchedDispatch { pid: writer.0 },
        "the switch went to the hog (pid {}) picked before the wakeup",
        hog.0
    );
    let write_returned = steps[2].since(steps[1]);
    assert!(
        write_returned < Dur::from_ms(5),
        "the write took {write_returned} to return"
    );
}

// ----- the lost-wakeup closure ------------------------------------------------

/// The trace records between `from` and `to` in which `pid` went to
/// sleep.
fn sleeps_of(k: &Kernel, pid: Pid, from: SimTime, to: SimTime) -> usize {
    k.trace()
        .records()
        .filter(|r| r.at >= from && r.at <= to)
        .filter(|r| matches!(r.ev, TraceEvent::SchedSleep { pid: p, .. } if p == pid.0))
        .count()
}

/// Sends one datagram to its own bound socket over a link whose latency
/// lands the arrival inside the `recv` call's CPU chunk, then receives
/// it. Records when the `recv` was issued and what it returned.
struct RacedRecv {
    st: u32,
    rx: Option<Fd>,
    tx: Option<Fd>,
    payload: Vec<u8>,
    issued: SimTime,
    /// (issued, returned, value) of the `recv`.
    recv: Rc<RefCell<Option<(SimTime, SimTime, SyscallRet)>>>,
}

impl Program for RacedRecv {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        self.st += 1;
        let ret = ctx.ret.take();
        match self.st {
            1 => Step::Syscall(SyscallReq::Socket),
            2 => {
                self.rx = ret.and_then(|r| r.as_fd());
                Step::Syscall(SyscallReq::Bind {
                    fd: self.rx.unwrap(),
                    port: 7,
                })
            }
            3 => Step::Syscall(SyscallReq::Socket),
            4 => {
                self.tx = ret.and_then(|r| r.as_fd());
                Step::Syscall(SyscallReq::Connect {
                    fd: self.tx.unwrap(),
                    addr: SockAddr { host: 1, port: 7 },
                })
            }
            5 => Step::Syscall(SyscallReq::Send {
                fd: self.tx.unwrap(),
                data: self.payload.clone(),
            }),
            6 => {
                self.issued = ctx.now;
                Step::Syscall(SyscallReq::Recv {
                    fd: self.rx.unwrap(),
                    max_len: 4096,
                })
            }
            _ => {
                let value = ret.expect("recv returned");
                *self.recv.borrow_mut() = Some((self.issued, ctx.now, value));
                Step::Exit(0)
            }
        }
    }
}

#[test]
fn a_completion_inside_the_blocking_calls_own_chunk_cancels_the_sleep() {
    let m = KernelConfig::default().machine;
    let payload: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
    // The send's chunk ends, and the recv's 40 us chunk begins, `send`
    // after the send was issued; the datagram arrives 20 us into it.
    let send = m.syscall + m.udp_packet + m.copy_cost(khw::CopyKind::Net, payload.len());
    let mut k = KernelBuilder::new().trace(100_000).build();
    k.net_mut().set_link_model(
        1,
        knet::LinkModel {
            bps: 1 << 40,
            base_latency: send + m.syscall / 2,
            jitter: Dur::ZERO,
            loss_ppm: 0,
            seed: 1,
        },
    );
    let recv = Rc::new(RefCell::new(None));
    let pid = k.spawn(Box::new(RacedRecv {
        st: 0,
        rx: None,
        tx: None,
        payload: payload.clone(),
        issued: SimTime::ZERO,
        recv: Rc::clone(&recv),
    }));
    let horizon = k.horizon(5);
    k.run_until_exit_of(pid, horizon);

    assert!(
        k.metrics().sched.wakeup_races > 0,
        "the datagram did not land inside the recv's chunk"
    );
    let (issued, returned, value) = recv.borrow().clone().expect("recv issued");
    assert_eq!(
        sleeps_of(&k, pid, issued, returned),
        0,
        "the recv slept though its datagram arrived before the sleep"
    );
    assert_eq!(
        value,
        SyscallRet::Data(payload),
        "recv returned other bytes"
    );
}

/// Catches SIGALRM, arms a one-tick interval timer, computes until just
/// before the tick, and enters `pause(2)`: the timer's signal lands
/// inside the pause's CPU chunk. Records when the pause was issued, when
/// it returned, and whether SIGALRM arrived with the return.
struct RacedPause {
    st: u32,
    tick: Dur,
    issued: SimTime,
    /// (issued, returned, SIGALRM delivered) of the `pause`.
    pause: Rc<RefCell<Option<(SimTime, SimTime, bool)>>>,
}

impl Program for RacedPause {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        self.st += 1;
        ctx.ret.take();
        match self.st {
            1 => Step::Syscall(SyscallReq::Sigaction {
                sig: Sig::Alrm,
                catch: true,
            }),
            2 => Step::Syscall(SyscallReq::SetItimer {
                interval: self.tick,
            }),
            // The timer fires at the first clock tick; stop 20 us short.
            3 => Step::Compute((SimTime::ZERO + self.tick - Dur::from_us(20)).since(ctx.now)),
            4 => {
                self.issued = ctx.now;
                Step::Syscall(SyscallReq::Pause)
            }
            5 => {
                let got = ctx.got_signal(Sig::Alrm);
                *self.pause.borrow_mut() = Some((self.issued, ctx.now, got));
                Step::Syscall(SyscallReq::SetItimer {
                    interval: Dur::ZERO,
                })
            }
            _ => Step::Exit(0),
        }
    }
}

#[test]
fn a_signal_inside_the_pause_calls_own_chunk_cancels_the_sleep() {
    let tick = KernelConfig::default().machine.tick();
    let mut k = KernelBuilder::new().trace(100_000).build();
    let pause = Rc::new(RefCell::new(None));
    let pid = k.spawn(Box::new(RacedPause {
        st: 0,
        tick,
        issued: SimTime::ZERO,
        pause: Rc::clone(&pause),
    }));
    let horizon = k.horizon(5);
    k.run_until_exit_of(pid, horizon);

    let (issued, returned, got) = pause.borrow().expect("pause issued");
    assert!(
        issued < SimTime::ZERO + tick && returned > SimTime::ZERO + tick,
        "the pause ({issued}..{returned}) did not span the tick"
    );
    assert!(got, "SIGALRM did not arrive with the pause's return");
    assert_eq!(
        sleeps_of(&k, pid, issued, returned),
        0,
        "the pause slept though its signal arrived before the sleep"
    );
    assert!(
        returned.since(issued) < tick,
        "the pause waited {} for a later signal",
        returned.since(issued)
    );
}
