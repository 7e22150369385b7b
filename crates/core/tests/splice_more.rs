//! Further splice-engine behaviour: FASYNC source/destination symmetry,
//! video-device sinks, double-indirect files, and timer pacing accuracy.

use std::cell::RefCell;
use std::rc::Rc;

use kdev::VideoDac;
use khw::{DiskProfile, FaultOp, FaultPlan, SECTOR_SIZE};
use knet::LinkModel;
use kproc::programs::{scenario_stats, Scp, ScpMode, ServeMode, ServerClient, SpliceServer};
use kproc::{
    Errno, FcntlCmd, Fd, OpenFlags, ProcState, Program, Sig, SockAddr, SpliceCqe, SpliceReq, Step,
    SyscallReq, SyscallRet, UserCtx,
};
use ksim::{Dur, SimTime};
use splice::objects::CharDev;
use splice::{Kernel, KernelBuilder, TraceEvent};

const MB: u64 = 1024 * 1024;

#[test]
fn fasync_on_the_destination_also_makes_the_splice_async() {
    // §3: "The splice operates asynchronously if EITHER of the file
    // descriptors have the FASYNC flag enabled."
    struct P {
        st: u32,
        src: Option<Fd>,
        dst: Option<Fd>,
        ret_immediate: std::rc::Rc<std::cell::Cell<bool>>,
    }
    impl Program for P {
        fn step(&mut self, ctx: &mut UserCtx) -> Step {
            self.st += 1;
            match self.st {
                1 => Step::Syscall(SyscallReq::Open {
                    path: "/d0/src".into(),
                    flags: OpenFlags::RDONLY,
                }),
                2 => {
                    self.src = ctx.take_ret().as_fd();
                    Step::Syscall(SyscallReq::Open {
                        path: "/d1/dst".into(),
                        flags: OpenFlags::CREATE,
                    })
                }
                3 => {
                    self.dst = ctx.take_ret().as_fd();
                    Step::Syscall(SyscallReq::Sigaction {
                        sig: Sig::Io,
                        catch: true,
                    })
                }
                4 => {
                    ctx.take_ret();
                    // FASYNC on the DESTINATION, not the source.
                    Step::Syscall(SyscallReq::Fcntl {
                        fd: self.dst.unwrap(),
                        cmd: FcntlCmd::SetAsync(true),
                    })
                }
                5 => {
                    ctx.take_ret();
                    Step::splice(SpliceReq::new(self.src.unwrap(), self.dst.unwrap()))
                }
                6 => {
                    // Async splices return 0 immediately.
                    let ret = ctx.take_ret();
                    self.ret_immediate.set(ret == SyscallRet::Val(0));
                    if ctx.got_signal(Sig::Io) {
                        return Step::Exit(0);
                    }
                    Step::Syscall(SyscallReq::Pause)
                }
                _ => {
                    ctx.ret.take();
                    if ctx.got_signal(Sig::Io) {
                        Step::Exit(0)
                    } else {
                        self.st -= 1; // stay in the pause loop
                        Step::Syscall(SyscallReq::Pause)
                    }
                }
            }
        }
    }
    let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
    k.setup_file("/d0/src", MB, 9);
    k.cold_cache();
    let flag = std::rc::Rc::new(std::cell::Cell::new(false));
    let pid = k.spawn(Box::new(P {
        st: 0,
        src: None,
        dst: None,
        ret_immediate: flag.clone(),
    }));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert!(
        flag.get(),
        "splice must return immediately with FASYNC on dst"
    );
    assert_eq!(k.verify_pattern_file("/d1/dst", MB, 9), None);
}

#[test]
fn file_to_video_dac_splice_displays_frames() {
    // §5.1 file→device splice with the always-ready video DAC: a single
    // EOF splice pushes the whole file through as frames.
    const FRAME: usize = 16 * 1024;
    struct P {
        st: u32,
        src: Option<Fd>,
        dev: Option<Fd>,
    }
    impl Program for P {
        fn step(&mut self, ctx: &mut UserCtx) -> Step {
            self.st += 1;
            match self.st {
                1 => Step::Syscall(SyscallReq::Open {
                    path: "/d0/video".into(),
                    flags: OpenFlags::RDONLY,
                }),
                2 => {
                    self.src = ctx.take_ret().as_fd();
                    Step::Syscall(SyscallReq::Open {
                        path: "/dev/video_dac".into(),
                        flags: OpenFlags::WRONLY,
                    })
                }
                3 => {
                    self.dev = ctx.take_ret().as_fd();
                    Step::splice(SpliceReq::new(self.src.unwrap(), self.dev.unwrap()))
                }
                4 => {
                    let ret = ctx.take_ret();
                    Step::Exit(if ret.as_val() == 8 * FRAME as i64 {
                        0
                    } else {
                        1
                    })
                }
                _ => Step::Exit(0),
            }
        }
    }
    let mut k = KernelBuilder::new()
        .disk("d0", DiskProfile::rz58())
        .video_dac("/dev/video_dac", VideoDac::new(FRAME))
        .build();
    k.setup_file("/d0/video", 8 * FRAME as u64, 4);
    k.cold_cache();
    let pid = k.spawn(Box::new(P {
        st: 0,
        src: None,
        dev: None,
    }));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    let CharDev::Video(v) = &k.cdevs()[0].dev else {
        panic!()
    };
    assert_eq!(v.frames(), 8);
}

#[test]
fn double_indirect_file_splices_correctly() {
    // A file deep enough to need double-indirect blocks on both ends.
    // 8 KB blocks hold 1024 pointers: single-indirect covers 12 + 1024
    // blocks ≈ 8.09 MB; go past it.
    let mut k = KernelBuilder::paper_machine(DiskProfile::rz58()).build();
    let len = 9 * MB;
    k.setup_file("/d0/src", len, 33);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.verify_pattern_file("/d1/dst", len, 33), None);
    assert!(k.fsck_all().is_empty());
}

#[test]
fn interval_timer_fires_periodically_with_tick_quantisation() {
    // setitimer + pause loop: intervals must quantise to clock ticks and
    // stay periodic.
    struct P {
        st: u32,
        stamps: std::rc::Rc<std::cell::RefCell<Vec<ksim::SimTime>>>,
    }
    impl Program for P {
        fn step(&mut self, ctx: &mut UserCtx) -> Step {
            self.st += 1;
            match self.st {
                1 => Step::Syscall(SyscallReq::Sigaction {
                    sig: Sig::Alrm,
                    catch: true,
                }),
                2 => {
                    ctx.take_ret();
                    Step::Syscall(SyscallReq::SetItimer {
                        interval: ksim::Dur::from_ms(20),
                    })
                }
                n if n < 13 => {
                    ctx.ret.take();
                    if ctx.got_signal(Sig::Alrm) {
                        self.stamps.borrow_mut().push(ctx.now);
                    }
                    Step::Syscall(SyscallReq::Pause)
                }
                _ => Step::Exit(0),
            }
        }
    }
    let mut k: Kernel = KernelBuilder::new().build();
    let stamps = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    k.spawn(Box::new(P {
        st: 0,
        stamps: stamps.clone(),
    }));
    let horizon = k.horizon(30);
    k.run_to_exit(horizon);
    let stamps = stamps.borrow();
    assert!(stamps.len() >= 8, "timer fired {} times", stamps.len());
    let tick_ns = 1_000_000_000 / 256;
    let expect_ticks = ksim::Dur::from_ms(20).as_ns() / tick_ns; // 5 ticks = 19.53 ms
    for w in stamps.windows(2) {
        let gap = w[1].since(w[0]).as_ns();
        let ticks = (gap + tick_ns / 2) / tick_ns;
        assert_eq!(
            ticks, expect_ticks,
            "interval {gap} ns is not {expect_ticks} ticks"
        );
    }
}

#[test]
fn splice_last_partial_block_writes_full_device_block() {
    // A file ending mid-block: the splice writes the full final block to
    // the device (sector alignment) but the destination size must be the
    // exact byte length.
    let mut k = KernelBuilder::paper_machine(DiskProfile::ramdisk()).build();
    let len = 3 * 8192 + SECTOR_SIZE as u64 + 7; // odd tail
    k.setup_file("/d0/src", len, 5);
    k.cold_cache();
    let pid = k.spawn(Box::new(Scp::with_options(
        "/d0/src",
        "/d1/dst",
        ScpMode::Sync,
        1,
    )));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.file_size("/d1/dst"), len);
    assert_eq!(k.verify_pattern_file("/d1/dst", len, 5), None);
}

/// A two-RAM-disk machine with the `update` daemon off, so every armed
/// callout belongs to the scenario; `trace > 0` enables a trace ring of
/// that many records.
fn quiet_machine(trace: usize) -> Kernel {
    let b = KernelBuilder::paper_machine_ram().tune(|cfg| cfg.update_interval = None);
    let b = if trace > 0 { b.trace(trace) } else { b };
    b.build()
}

/// Reads one file once through `read(2)`, leaving its blocks cached.
struct WarmRead {
    st: u32,
    path: &'static str,
    len: usize,
    fd: Option<Fd>,
}

impl Program for WarmRead {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        self.st += 1;
        match self.st {
            1 => Step::Syscall(SyscallReq::Open {
                path: self.path.into(),
                flags: OpenFlags::RDONLY,
            }),
            2 => {
                self.fd = ctx.take_ret().as_fd();
                Step::Syscall(SyscallReq::Read {
                    fd: self.fd.unwrap(),
                    len: self.len,
                })
            }
            3 => {
                let ok = matches!(ctx.take_ret(), SyscallRet::Data(d) if d.len() == self.len);
                Step::Exit(if ok { 0 } else { 1 })
            }
            _ => Step::Exit(0),
        }
    }
}

/// The hot-block fan-out: one wave of 64 splices through a depth-64 ring
/// all read the same cached 8 KB block into 64 sockets. All but the
/// first find the buffer busy and park on it; each release hands it to
/// the next waiter. So a waiter costs one wait, not one retry per tick,
/// and no callout is armed for the contention.
#[test]
fn hot_block_fan_out_waits_once_per_splice() {
    const CONNS: usize = 64;
    const BLOCK: u64 = 8192;
    const SEED: u64 = 0xfa0;
    let server_addr = SockAddr { host: 1, port: 80 };
    let mut k = quiet_machine(0);
    k.net_mut().set_link_model(
        1,
        LinkModel {
            bps: 125_000_000,
            base_latency: Dur::from_us(200),
            jitter: Dur::from_us(100),
            loss_ppm: 0,
            seed: SEED,
        },
    );
    k.setup_file("/d0/file", BLOCK, SEED);
    k.cold_cache();
    let warm = k.spawn(Box::new(WarmRead {
        st: 0,
        path: "/d0/file",
        len: BLOCK as usize,
        fd: None,
    }));
    let stats = scenario_stats();
    // The server naps until every client sits in the backlog, so its
    // first ring wave carries all 64 connections.
    let server = k.spawn(Box::new(
        SpliceServer::new(
            80,
            "/d0/file",
            BLOCK,
            CONNS,
            CONNS as u32,
            ServeMode::Ring { depth: 64 },
            Rc::clone(&stats),
        )
        .warmup(Dur::from_ms(200)),
    ));
    for i in 0..CONNS as u64 {
        k.spawn(Box::new(ServerClient::new(
            server_addr,
            BLOCK,
            SEED,
            Dur::from_ms(10) + Dur::from_us(100) * i,
            Rc::clone(&stats),
        )));
    }
    k.run_until(SimTime::ZERO + Dur::from_ms(150), |_| false);
    assert!(matches!(k.procs().must(warm).state, ProcState::Exited(0)));
    assert_eq!(k.metrics().splice.started, 0, "wave started early");
    // From here on: the server's warmup timer, then at most one
    // link-drain callout for the client host.
    let mut peak_callouts = 0;
    let horizon = k.horizon(60);
    k.run_until(horizon, |k| {
        peak_callouts = peak_callouts.max(k.pending_callouts());
        k.procs().all_exited()
    });
    assert!(matches!(k.procs().must(server).state, ProcState::Exited(0)));

    let s = stats.borrow();
    assert_eq!(s.completed, CONNS as u64);
    assert_eq!(s.mismatches, 0, "payload corruption");
    assert_eq!(s.bytes_received, CONNS as u64 * BLOCK);
    let m = k.metrics();
    assert_eq!(m.splice.started, CONNS as u64);
    assert_eq!(m.splice.completed, CONNS as u64);
    assert_eq!(m.splice.reads_issued, 0, "the block was cached");
    let waits = m.splice.read_backoffs + m.splice.write_backoffs;
    assert!(
        waits <= CONNS as u64,
        "{waits} contention waits for {CONNS} splices"
    );
    assert!(
        peak_callouts <= 2,
        "{peak_callouts} callouts armed while splices contended"
    );
    k.cache().check_invariants();
}

/// A ring batch against a two-block file: `(src offset, bytes, retry
/// budget)` per splice, each into its own destination file.
struct HotBlockBatch {
    plan: Vec<(u64, u64, u32)>,
    st: u32,
    i: usize,
    src: Vec<Fd>,
    dst: Vec<Fd>,
    ring: u64,
    cqes: Rc<RefCell<Vec<SpliceCqe>>>,
}

impl Program for HotBlockBatch {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            // Open the source, seek it, open the destination, per entry.
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Open {
                    path: "/d0/src".into(),
                    flags: OpenFlags::RDONLY,
                })
            }
            1 => {
                self.src.push(ctx.take_ret().as_fd().unwrap());
                self.st = 2;
                Step::Syscall(SyscallReq::Lseek {
                    fd: self.src[self.i],
                    pos: self.plan[self.i].0,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Open {
                    path: format!("/d1/dst{}", self.i),
                    flags: OpenFlags::CREATE,
                })
            }
            3 => {
                self.dst.push(ctx.take_ret().as_fd().unwrap());
                self.i += 1;
                if self.i < self.plan.len() {
                    self.st = 1;
                    return Step::Syscall(SyscallReq::Open {
                        path: "/d0/src".into(),
                        flags: OpenFlags::RDONLY,
                    });
                }
                self.st = 4;
                Step::Syscall(SyscallReq::RingCreate {
                    depth: self.plan.len() as u32,
                    sigio: false,
                })
            }
            4 => {
                self.ring = ctx.take_ret().as_val() as u64;
                self.st = 5;
                let sqes = self
                    .plan
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, bytes, retries))| {
                        let mut req = SpliceReq::new(self.src[i], self.dst[i]).bytes(bytes);
                        req.retry_limit = retries;
                        req.sqe(i as u64)
                    })
                    .collect();
                Step::Syscall(SyscallReq::RingSubmit {
                    ring: self.ring,
                    sqes,
                })
            }
            5 => {
                if ctx.take_ret().as_val() != self.plan.len() as i64 {
                    return Step::Exit(2);
                }
                self.st = 6;
                Step::Syscall(SyscallReq::RingReap {
                    ring: self.ring,
                    min: self.plan.len() as u32,
                })
            }
            _ => {
                let SyscallRet::Cqes(cqes) = ctx.take_ret() else {
                    return Step::Exit(3);
                };
                self.cqes.borrow_mut().extend(cqes);
                Step::Exit(0)
            }
        }
    }
}

/// A splice that aborts while parked in the middle of a buffer's wait
/// queue must not strand the waiters behind it. Three splices of block 1
/// queue on its buffer; then a two-block splice whose block 0 sits on a
/// bad sector parks behind them and aborts on the device error; three
/// more splices of block 1 queue behind it. Every other splice completes
/// byte-exact, and no waiter, buffer or callout outlives the batch.
#[test]
fn aborted_waiter_does_not_strand_the_queue_behind_it() {
    const BLOCK: u64 = 8192;
    let mut k = quiet_machine(100_000);
    k.setup_file("/d0/src", 2 * BLOCK, 21);
    k.cold_cache();
    let free_baseline = k.cache().free_count();
    let ino = k.disks()[0].fs.lookup("/src").expect("file exists");
    let pblk = k.disks()[0].fs.bmap(ino, 0).expect("mapped block");
    let sector = pblk * (BLOCK / SECTOR_SIZE as u64);
    k.set_fault_plan(0, FaultPlan::new(1).bad_block(FaultOp::Read, sector));

    const BAD: usize = 3;
    let mut plan = vec![(BLOCK, BLOCK, 5); 7];
    plan[BAD] = (0, 2 * BLOCK, 0);
    let cqes = Rc::new(RefCell::new(Vec::new()));
    let pid = k.spawn(Box::new(HotBlockBatch {
        plan,
        st: 0,
        i: 0,
        src: Vec::new(),
        dst: Vec::new(),
        ring: 0,
        cqes: Rc::clone(&cqes),
    }));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));

    let cqes = cqes.borrow();
    assert_eq!(cqes.len(), 7);
    for c in cqes.iter() {
        if c.user_data == BAD as u64 {
            assert_eq!(c.outcome.error, Some(Errno::Eio), "{c:?}");
        } else {
            assert_eq!(c.outcome.error, None, "{c:?}");
            assert_eq!(c.outcome.bytes_moved, BLOCK, "{c:?}");
            let path = format!("/d1/dst{}", c.user_data);
            assert_eq!(k.dump_file(&path), k.dump_file("/d0/src")[BLOCK as usize..]);
        }
    }
    // The bad splice really was parked among the others when it died:
    // it waited, then aborted, and the splices queued behind it still
    // completed afterwards.
    let m = k.metrics();
    assert_eq!(m.splice.aborted, 1);
    assert!(m.splice.read_backoffs >= 6, "{}", m.splice.read_backoffs);
    let bad_desc = BAD as u64 + 1;
    let q = k.trace().query();
    let bad_wait = q
        .named("splice.backoff")
        .into_iter()
        .find(|r| matches!(r.ev, TraceEvent::SpliceBackoff { desc, .. } if desc == bad_desc))
        .expect("the bad splice parked")
        .seq;
    let abort = q
        .named("splice.abort")
        .first()
        .expect("the bad splice aborted")
        .seq;
    assert!(bad_wait < abort);
    for desc in bad_desc + 1..=7 {
        let done = q
            .named("splice.complete")
            .into_iter()
            .find(|r| matches!(r.ev, TraceEvent::SpliceComplete { desc: d, .. } if d == desc))
            .expect("queued splice completed")
            .seq;
        assert!(done > abort, "splice {desc} finished before the abort");
    }
    // Nothing outlives the batch.
    assert_eq!(k.cache().free_count(), free_baseline);
    assert_eq!(k.pending_callouts(), 0);
    k.cache().check_invariants();
    assert!(k.fsck_all().is_empty());
}

/// Copies the one-block `/d0/src` into `/d1/dst0` as a single ring entry
/// with retry budget `retries`, after `arm` has set the fault plans. The
/// cache must get every buffer back whatever the outcome.
fn one_block_copy(retries: u32, arm: impl FnOnce(&mut Kernel)) -> (Kernel, SpliceCqe) {
    const BLOCK: u64 = 8192;
    let mut k = quiet_machine(0);
    k.setup_file("/d0/src", BLOCK, 23);
    k.cold_cache();
    let free_baseline = k.cache().free_count();
    arm(&mut k);
    let cqes = Rc::new(RefCell::new(Vec::new()));
    let pid = k.spawn(Box::new(HotBlockBatch {
        plan: vec![(0, BLOCK, retries)],
        st: 0,
        i: 0,
        src: Vec::new(),
        dst: Vec::new(),
        ring: 0,
        cqes: Rc::clone(&cqes),
    }));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(pid).state, ProcState::Exited(0)));
    assert_eq!(k.cache().free_count(), free_baseline);
    assert_eq!(k.pending_callouts(), 0);
    k.cache().check_invariants();
    let cqe = cqes.borrow()[0];
    (k, cqe)
}

/// First sector of logical block 0 of `path` on disk `disk`.
fn first_sector(k: &Kernel, disk: usize, path: &str) -> u64 {
    let ino = k.disks()[disk].fs.lookup(path).expect("file exists");
    let pblk = k.disks()[disk].fs.bmap(ino, 0).expect("mapped block");
    pblk * (8192 / SECTOR_SIZE as u64)
}

/// Read and write failures of one block draw on one retry budget: the
/// block's in-flight record, attempt count included, survives the
/// failed read and its retry. With a budget of 1, one read error and
/// then one write error on the same block exhaust it and abort with
/// `EIO`; separate budgets would have retried the write and completed.
#[test]
fn read_and_write_failures_of_one_block_share_its_retry_budget() {
    // A clean run maps the destination block; allocation is
    // deterministic, so every later run writes the same sector.
    let (k, clean) = one_block_copy(1, |_| {});
    assert_eq!(clean.outcome.error, None);
    let dst_sector = first_sector(&k, 1, "/dst0");
    let arm = |k: &mut Kernel| {
        let src_sector = first_sector(k, 0, "/src");
        k.set_fault_plan(
            0,
            FaultPlan::new(1).transient_eio_at(FaultOp::Read, src_sector, 1),
        );
        k.set_fault_plan(
            1,
            FaultPlan::new(2).transient_eio_at(FaultOp::Write, dst_sector, 1),
        );
    };

    let (k, cqe) = one_block_copy(1, arm);
    assert_eq!(cqe.outcome.error, Some(Errno::Eio), "{cqe:?}");
    assert_eq!(cqe.outcome.bytes_moved, 0);
    let m = k.metrics();
    assert_eq!((m.splice.retries, m.splice.aborted), (1, 1));

    // Control: a budget of 2 absorbs both failures of the block.
    let (k, cqe) = one_block_copy(2, arm);
    assert_eq!(cqe.outcome.error, None, "{cqe:?}");
    assert_eq!(cqe.outcome.bytes_moved, 8192);
    assert_eq!(k.dump_file("/d1/dst0"), k.dump_file("/d0/src"));
    let m = k.metrics();
    assert_eq!((m.splice.retries, m.splice.aborted), (2, 0));
}
