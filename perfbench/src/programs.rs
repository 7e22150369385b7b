//! The benchmark's own user programs: a timer around each copy pass, and
//! an open-loop client for the ring server.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use kproc::programs::util::pattern_check;
use kproc::{Fd, Program, SockAddr, Step, SyscallReq, SyscallRet, UserCtx};
use ksim::SimTime;

/// One finished copy pass: first step to exit, simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pass {
    pub start: SimTime,
    pub end: SimTime,
    pub code: i32,
}

/// Times one copy pass: its first step to its exit.
pub struct PassTimer {
    inner: Box<dyn Program>,
    start: Option<SimTime>,
    passes: Rc<RefCell<Vec<Pass>>>,
}

impl PassTimer {
    pub fn new(inner: Box<dyn Program>, passes: Rc<RefCell<Vec<Pass>>>) -> PassTimer {
        PassTimer {
            inner,
            start: None,
            passes,
        }
    }
}

impl Program for PassTimer {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        let start = *self.start.get_or_insert(ctx.now);
        let step = self.inner.step(ctx);
        if let Step::Exit(code) = step {
            self.passes.borrow_mut().push(Pass {
                start,
                end: ctx.now,
                code,
            });
        }
        step
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// How one open-loop request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Still running (counted as failed when the run stops).
    Pending,
    /// Every byte arrived and matched the pattern.
    Done { first_step: SimTime, end: SimTime },
    /// A syscall failed (the request was refused or cut short).
    Failed,
    /// A received byte did not match the file.
    Corrupt,
}

/// One open-loop client: connect, send a zero-byte request, receive
/// `file_bytes`, pattern-check every byte, close. The benchmark spawns it
/// at the last simulated event before its request is due and times the
/// request from the due time.
pub struct Client {
    server: SockAddr,
    file_bytes: u64,
    seed: u64,
    slot: usize,
    outcomes: Rc<RefCell<Vec<Outcome>>>,
    finished: Rc<Cell<usize>>,
    st: u8,
    fd: Option<Fd>,
    got: u64,
    first_step: SimTime,
}

impl Client {
    pub fn new(
        server: SockAddr,
        file_bytes: u64,
        seed: u64,
        slot: usize,
        outcomes: Rc<RefCell<Vec<Outcome>>>,
        finished: Rc<Cell<usize>>,
    ) -> Client {
        Client {
            server,
            file_bytes,
            seed,
            slot,
            outcomes,
            finished,
            st: 0,
            fd: None,
            got: 0,
            first_step: SimTime::ZERO,
        }
    }

    fn finish(&mut self, outcome: Outcome) {
        self.outcomes.borrow_mut()[self.slot] = outcome;
        self.finished.set(self.finished.get() + 1);
    }

    fn fail(&mut self) -> Step {
        self.finish(Outcome::Failed);
        Step::Exit(1)
    }

    fn recv(&self) -> Step {
        Step::Syscall(SyscallReq::Recv {
            fd: self.fd.unwrap(),
            max_len: 64 * 1024,
        })
    }
}

impl Program for Client {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.first_step = ctx.now;
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.fd = ctx.take_ret().as_fd();
                if self.fd.is_none() {
                    return self.fail();
                }
                self.st = 2;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.fd.unwrap(),
                    addr: self.server,
                })
            }
            2 => {
                if ctx.take_ret().as_val() < 0 {
                    return self.fail();
                }
                self.st = 3;
                Step::Syscall(SyscallReq::Send {
                    fd: self.fd.unwrap(),
                    data: Vec::new(),
                })
            }
            3 => {
                if ctx.take_ret().as_val() < 0 {
                    return self.fail();
                }
                self.st = 4;
                self.recv()
            }
            4 => {
                let SyscallRet::Data(d) = ctx.take_ret() else {
                    return self.fail();
                };
                if d.is_empty() {
                    return self.fail();
                }
                if pattern_check(self.seed, self.got, &d).is_some()
                    || self.got + d.len() as u64 > self.file_bytes
                {
                    self.finish(Outcome::Corrupt);
                    return Step::Exit(1);
                }
                self.got += d.len() as u64;
                if self.got < self.file_bytes {
                    return self.recv();
                }
                self.finish(Outcome::Done {
                    first_step: self.first_step,
                    end: ctx.now,
                });
                self.st = 5;
                Step::Syscall(SyscallReq::Close(self.fd.unwrap()))
            }
            5 => {
                ctx.take_ret();
                Step::Exit(0)
            }
            _ => unreachable!("client state {}", self.st),
        }
    }

    fn name(&self) -> &str {
        "open-loop-client"
    }
}
