//! The million-connection server scenario: an open-loop client fleet
//! fetching one file each from a listening splice server.
//!
//! Three serving modes reproduce the paper's comparison at connection
//! scale: one-at-a-time `splice(2)` per connection (a 1993 `sendfile`),
//! batched submission through a depth-k splice ring (one crossing per
//! wave), and a user-space `cp`-relay baseline (`read` into a user
//! buffer, `send` back out — the double-copy path splice exists to
//! remove).
//!
//! Clients are **open-loop**: each sleeps a pre-drawn offset into the
//! arrival window (interval timer, not CPU burn — a sleeping client
//! must not perturb the availability measurement), then connects, sends
//! a zero-byte request, and receives the file, pattern-checking every
//! datagram. Results aggregate into a [`ScenarioStats`] shared by all
//! clients of a run.

use std::cell::RefCell;
use std::rc::Rc;

use ksim::{Dur, Hist, SimTime};

use crate::program::{Program, Step, UserCtx};
use crate::programs::util::pattern_check;
use crate::types::{Errno, Fd, OpenFlags, Sig, SockAddr, SpliceReq, SyscallReq, SyscallRet};

/// Aggregated results of one server scenario run, shared by every
/// client (single-threaded simulation: `Rc<RefCell>` is the idiom the
/// endpoint pairs already use for result sharing).
#[derive(Default)]
pub struct ScenarioStats {
    /// Clients that received their whole file, byte-exact.
    pub completed: u64,
    /// Connections the server finished serving.
    pub served: u64,
    /// Payload bytes pulled off client sockets (counted even when the
    /// datagram then fails the pattern check, so lossy-run byte
    /// accounting stays exact).
    pub bytes_received: u64,
    /// Clients that saw a pattern mismatch (a bug on a loss-free link;
    /// an expected truncation artifact when the link drops datagrams).
    pub mismatches: u64,
    /// Request→last-byte response latency, nanoseconds.
    pub latency: Hist,
}

/// Shared handle to a run's [`ScenarioStats`].
pub type SharedScenario = Rc<RefCell<ScenarioStats>>;

/// A fresh stats block for one scenario run.
pub fn scenario_stats() -> SharedScenario {
    Rc::new(RefCell::new(ScenarioStats::default()))
}

/// splitmix64, for the arrival draw (same generator as the link model).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws `n` client arrival offsets uniformly over `window`, from
/// `seed`. Deterministic and ≥ 1 µs each (a zero interval would disarm
/// the arrival timer instead of arming it).
pub fn open_loop_delays(n: usize, window: Dur, seed: u64) -> Vec<Dur> {
    let span = window.as_ns().max(1);
    (0..n as u64)
        .map(|i| {
            let draw = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Dur::from_ns((draw % span).max(1_000))
        })
        .collect()
}

/// One short-lived client: sleep to its arrival offset, connect, send a
/// zero-byte request, receive `file_bytes` of pattern `seed`, verify,
/// close, exit. Exit code 0 on byte-exact delivery, 1 on mismatch.
pub struct ServerClient {
    server: SockAddr,
    file_bytes: u64,
    seed: u64,
    delay: Dur,
    stats: SharedScenario,
    st: u32,
    fd: Option<Fd>,
    got: u64,
    start: SimTime,
}

impl ServerClient {
    /// Builds a client arriving `delay` after spawn.
    pub fn new(
        server: SockAddr,
        file_bytes: u64,
        seed: u64,
        delay: Dur,
        stats: SharedScenario,
    ) -> ServerClient {
        ServerClient {
            server,
            file_bytes,
            seed,
            delay: if delay.is_zero() {
                Dur::from_us(1)
            } else {
                delay
            },
            stats,
            st: 0,
            fd: None,
            got: 0,
            start: SimTime::ZERO,
        }
    }
}

impl Program for ServerClient {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            // Arrival sleep: catch SIGALRM, arm the timer, pause, disarm.
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Sigaction {
                    sig: Sig::Alrm,
                    catch: true,
                })
            }
            1 => {
                ctx.take_ret();
                self.st = 2;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: self.delay,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Pause)
            }
            3 => {
                ctx.take_ret();
                self.st = 4;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: Dur::ZERO,
                })
            }
            4 => {
                ctx.take_ret();
                self.st = 5;
                Step::Syscall(SyscallReq::Socket)
            }
            5 => {
                self.fd = ctx.take_ret().as_fd();
                self.st = 6;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.fd.unwrap(),
                    addr: self.server,
                })
            }
            6 => {
                ctx.take_ret();
                self.start = ctx.now;
                self.st = 7;
                Step::Syscall(SyscallReq::Send {
                    fd: self.fd.unwrap(),
                    data: Vec::new(),
                })
            }
            7 => {
                ctx.take_ret();
                self.st = 8;
                Step::Syscall(SyscallReq::Recv {
                    fd: self.fd.unwrap(),
                    max_len: 64 * 1024,
                })
            }
            8 => {
                let SyscallRet::Data(d) = ctx.take_ret() else {
                    return Step::Exit(2);
                };
                // Every pulled byte counts, even on a mismatch — the
                // scenario invariants account delivered bytes exactly.
                self.stats.borrow_mut().bytes_received += d.len() as u64;
                if pattern_check(self.seed, self.got, &d).is_some() {
                    self.stats.borrow_mut().mismatches += 1;
                    return Step::Exit(1);
                }
                self.got += d.len() as u64;
                if self.got >= self.file_bytes {
                    let mut s = self.stats.borrow_mut();
                    s.completed += 1;
                    s.latency.record(ctx.now.since(self.start).as_ns());
                    self.st = 9;
                    return Step::Syscall(SyscallReq::Close(self.fd.unwrap()));
                }
                Step::Syscall(SyscallReq::Recv {
                    fd: self.fd.unwrap(),
                    max_len: 64 * 1024,
                })
            }
            9 => {
                ctx.take_ret();
                Step::Exit(0)
            }
            _ => unreachable!("client state {}", self.st),
        }
    }
}

/// How the server moves file bytes onto each connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeMode {
    /// One synchronous `splice(2)` per connection.
    Splice,
    /// Batched: waves of the pending connections, capped at `depth`,
    /// submitted through one splice ring (one submit + one reap crossing
    /// per wave). A wave blocks only for its first connection, then takes
    /// whatever else the listener already holds, so a lightly loaded
    /// server never waits for a wave to fill.
    Ring {
        /// Ring depth (also the largest wave and the file-descriptor
        /// pool).
        depth: u32,
    },
    /// User-space baseline: `read` 8 KB into a user buffer, `send` it —
    /// two copies per block.
    CpRelay,
}

/// Chunk the cp-relay baseline reads and sends.
const RELAY_CHUNK: usize = 8 * 1024;

/// The file server: listen, then serve exactly `n_conns` connections
/// with `file_bytes` of `path` each, via the configured [`ServeMode`].
/// Exit code 0 when all connections served; 2 on an unexpected syscall
/// failure.
pub struct SpliceServer {
    port: u16,
    path: String,
    file_bytes: u64,
    n_conns: usize,
    backlog: u32,
    mode: ServeMode,
    /// Optional pause between `listen` and the first `accept` (lets the
    /// backlog-overflow scenario pile clients onto the backlog).
    warmup: Option<Dur>,
    stats: SharedScenario,
    st: u32,
    lfd: Option<Fd>,
    ffd: Option<Fd>,
    ring: u64,
    file_fds: Vec<Fd>,
    conn_fds: Vec<Fd>,
    conn: Option<Fd>,
    served: usize,
    wave: usize,
    i: usize,
    sent: u64,
}

impl SpliceServer {
    /// Builds a server for `n_conns` connections on `port`.
    pub fn new(
        port: u16,
        path: &str,
        file_bytes: u64,
        n_conns: usize,
        backlog: u32,
        mode: ServeMode,
        stats: SharedScenario,
    ) -> SpliceServer {
        SpliceServer {
            port,
            path: path.to_string(),
            file_bytes,
            n_conns,
            backlog,
            mode,
            warmup: None,
            stats,
            st: 0,
            lfd: None,
            ffd: None,
            ring: 0,
            file_fds: Vec::new(),
            conn_fds: Vec::new(),
            conn: None,
            served: 0,
            wave: 0,
            i: 0,
            sent: 0,
        }
    }

    /// Delays the first `accept` by `d` after `listen`.
    pub fn warmup(mut self, d: Dur) -> SpliceServer {
        self.warmup = Some(d);
        self
    }

    /// First syscall of the mode-specific open phase.
    fn open_phase(&mut self) -> Step {
        match self.mode {
            ServeMode::Splice | ServeMode::CpRelay => {
                self.st = 10;
                Step::Syscall(SyscallReq::Open {
                    path: self.path.clone(),
                    flags: OpenFlags::RDONLY,
                })
            }
            ServeMode::Ring { depth } => {
                self.st = 30;
                Step::Syscall(SyscallReq::RingCreate {
                    depth,
                    sigio: false,
                })
            }
        }
    }

    /// One connection finished: count it, then accept the next or wind
    /// down.
    fn conn_done(&mut self) -> Step {
        self.served += 1;
        self.stats.borrow_mut().served += 1;
        if self.served < self.n_conns {
            self.st = 11;
            self.accept(true)
        } else {
            self.st = 15;
            Step::Syscall(SyscallReq::Close(self.lfd.unwrap()))
        }
    }

    /// `accept` on the listener; `block: false` polls.
    fn accept(&self, block: bool) -> Step {
        Step::Syscall(SyscallReq::Accept {
            fd: self.lfd.unwrap(),
            block,
        })
    }

    /// Starts a ring wave: block for its first connection. The wave is
    /// capped at `depth` and at the connections still to serve; it ends
    /// early when the listener runs dry.
    fn start_wave(&mut self) -> Step {
        let ServeMode::Ring { depth } = self.mode else {
            unreachable!()
        };
        self.wave = (depth as usize).min(self.n_conns - self.served);
        self.conn_fds.clear();
        self.st = 33;
        self.accept(true)
    }
}

impl Program for SpliceServer {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        match self.st {
            0 => {
                self.st = 1;
                Step::Syscall(SyscallReq::Socket)
            }
            1 => {
                self.lfd = ctx.take_ret().as_fd();
                self.st = 2;
                Step::Syscall(SyscallReq::Bind {
                    fd: self.lfd.unwrap(),
                    port: self.port,
                })
            }
            2 => {
                ctx.take_ret();
                self.st = 3;
                Step::Syscall(SyscallReq::Listen {
                    fd: self.lfd.unwrap(),
                    backlog: self.backlog,
                })
            }
            3 => {
                if ctx.take_ret() != SyscallRet::Val(0) {
                    return Step::Exit(2);
                }
                if self.warmup.is_some() {
                    self.st = 4;
                    Step::Syscall(SyscallReq::Sigaction {
                        sig: Sig::Alrm,
                        catch: true,
                    })
                } else {
                    self.open_phase()
                }
            }
            4 => {
                ctx.take_ret();
                self.st = 5;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: self.warmup.unwrap(),
                })
            }
            5 => {
                ctx.take_ret();
                self.st = 6;
                Step::Syscall(SyscallReq::Pause)
            }
            6 => {
                ctx.take_ret();
                self.st = 7;
                Step::Syscall(SyscallReq::SetItimer {
                    interval: Dur::ZERO,
                })
            }
            7 => {
                ctx.take_ret();
                self.open_phase()
            }

            // ---- splice / cp-relay: one connection at a time ----------
            10 => {
                self.ffd = ctx.take_ret().as_fd();
                if self.n_conns == 0 {
                    self.st = 15;
                    return Step::Syscall(SyscallReq::Close(self.lfd.unwrap()));
                }
                self.st = 11;
                self.accept(true)
            }
            11 => {
                self.conn = ctx.take_ret().as_fd();
                if self.conn.is_none() {
                    return Step::Exit(2);
                }
                // The file fd is reused: rewind it for this connection.
                self.st = if self.mode == ServeMode::Splice {
                    12
                } else {
                    20
                };
                Step::Syscall(SyscallReq::Lseek {
                    fd: self.ffd.unwrap(),
                    pos: 0,
                })
            }
            12 => {
                ctx.take_ret();
                self.st = 13;
                Step::Syscall(
                    SpliceReq::new(self.ffd.unwrap(), self.conn.unwrap())
                        .bytes(self.file_bytes)
                        .req(),
                )
            }
            13 => {
                if ctx.take_ret() != SyscallRet::Val(self.file_bytes as i64) {
                    return Step::Exit(2);
                }
                self.st = 14;
                Step::Syscall(SyscallReq::Close(self.conn.unwrap()))
            }
            14 => {
                ctx.take_ret();
                self.conn_done()
            }
            15 => {
                ctx.take_ret();
                Step::Exit(0)
            }

            // ---- cp-relay inner loop ----------------------------------
            20 => {
                ctx.take_ret();
                self.sent = 0;
                self.st = 21;
                Step::Syscall(SyscallReq::Read {
                    fd: self.ffd.unwrap(),
                    len: RELAY_CHUNK,
                })
            }
            21 => {
                let SyscallRet::Data(d) = ctx.take_ret() else {
                    return Step::Exit(2);
                };
                if d.is_empty() {
                    // EOF before file_bytes: short file, still a served
                    // connection.
                    self.st = 14;
                    return Step::Syscall(SyscallReq::Close(self.conn.unwrap()));
                }
                self.sent += d.len() as u64;
                self.st = 22;
                Step::Syscall(SyscallReq::Send {
                    fd: self.conn.unwrap(),
                    data: d,
                })
            }
            22 => {
                ctx.take_ret();
                if self.sent >= self.file_bytes {
                    self.st = 14;
                    Step::Syscall(SyscallReq::Close(self.conn.unwrap()))
                } else {
                    self.st = 21;
                    Step::Syscall(SyscallReq::Read {
                        fd: self.ffd.unwrap(),
                        len: RELAY_CHUNK,
                    })
                }
            }

            // ---- ring mode: waves of the pending connections -----------
            30 => {
                let ret = ctx.take_ret();
                if ret.as_val() < 0 {
                    return Step::Exit(2);
                }
                self.ring = ret.as_val() as u64;
                // One source fd per in-flight splice: concurrent splices
                // advance their descriptor offsets independently.
                let ServeMode::Ring { depth } = self.mode else {
                    unreachable!()
                };
                let nfds = (depth as usize).min(self.n_conns.max(1));
                self.file_fds.clear();
                self.i = nfds;
                self.st = 31;
                Step::Syscall(SyscallReq::Open {
                    path: self.path.clone(),
                    flags: OpenFlags::RDONLY,
                })
            }
            31 => {
                self.file_fds.push(ctx.take_ret().as_fd().unwrap());
                if self.file_fds.len() < self.i {
                    return Step::Syscall(SyscallReq::Open {
                        path: self.path.clone(),
                        flags: OpenFlags::RDONLY,
                    });
                }
                if self.n_conns == 0 {
                    self.st = 15;
                    return Step::Syscall(SyscallReq::Close(self.lfd.unwrap()));
                }
                self.start_wave()
            }
            33 => {
                match ctx.take_ret() {
                    SyscallRet::NewFd(fd) => {
                        self.conn_fds.push(fd);
                        if self.conn_fds.len() < self.wave {
                            // Drain the backlog without sleeping.
                            return self.accept(false);
                        }
                    }
                    // The backlog ran dry: submit the partial wave.
                    SyscallRet::Err(Errno::Eagain) if !self.conn_fds.is_empty() => {
                        self.wave = self.conn_fds.len();
                    }
                    _ => return Step::Exit(2),
                }
                self.i = 0;
                self.st = 34;
                Step::Syscall(SyscallReq::Lseek {
                    fd: self.file_fds[0],
                    pos: 0,
                })
            }
            34 => {
                ctx.take_ret();
                self.i += 1;
                if self.i < self.wave {
                    return Step::Syscall(SyscallReq::Lseek {
                        fd: self.file_fds[self.i],
                        pos: 0,
                    });
                }
                let sqes = (0..self.wave)
                    .map(|j| {
                        SpliceReq::new(self.file_fds[j], self.conn_fds[j])
                            .bytes(self.file_bytes)
                            .sqe(j as u64)
                    })
                    .collect();
                self.st = 35;
                Step::Syscall(SyscallReq::RingSubmit {
                    ring: self.ring,
                    sqes,
                })
            }
            35 => {
                if ctx.take_ret().as_val() != self.wave as i64 {
                    return Step::Exit(2);
                }
                self.st = 36;
                Step::Syscall(SyscallReq::RingReap {
                    ring: self.ring,
                    min: self.wave as u32,
                })
            }
            36 => {
                let SyscallRet::Cqes(cqes) = ctx.take_ret() else {
                    return Step::Exit(2);
                };
                if cqes.len() != self.wave
                    || cqes.iter().any(|c| {
                        c.outcome.error.is_some() || c.outcome.bytes_moved != self.file_bytes
                    })
                {
                    return Step::Exit(2);
                }
                self.i = 0;
                self.st = 37;
                Step::Syscall(SyscallReq::Close(self.conn_fds[0]))
            }
            37 => {
                ctx.take_ret();
                self.served += 1;
                self.stats.borrow_mut().served += 1;
                self.i += 1;
                if self.i < self.wave {
                    return Step::Syscall(SyscallReq::Close(self.conn_fds[self.i]));
                }
                if self.served < self.n_conns {
                    self.start_wave()
                } else {
                    self.st = 15;
                    Step::Syscall(SyscallReq::Close(self.lfd.unwrap()))
                }
            }
            _ => unreachable!("server state {}", self.st),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(ret: SyscallRet) -> UserCtx {
        UserCtx {
            ret: Some(ret),
            signals: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn delays_are_deterministic_positive_and_bounded() {
        let w = Dur::from_ms(100);
        let a = open_loop_delays(1000, w, 7);
        let b = open_loop_delays(1000, w, 7);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_delays(1000, w, 8));
        assert!(a.iter().all(|d| !d.is_zero() && *d <= w));
        // Spread: not all in one half of the window.
        let half = a.iter().filter(|d| d.as_ns() < w.as_ns() / 2).count();
        assert!(half > 250 && half < 750, "poorly spread: {half}/1000");
    }

    #[test]
    fn client_walks_sleep_connect_fetch() {
        let stats = scenario_stats();
        let addr = SockAddr { host: 1, port: 80 };
        let mut c = ServerClient::new(addr, 16, 3, Dur::from_ms(5), Rc::clone(&stats));
        let mut ctx = UserCtx {
            ret: None,
            signals: Vec::new(),
            now: SimTime::ZERO,
        };
        // Sigaction → SetItimer → Pause → SetItimer(0) → Socket.
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::Sigaction { sig: Sig::Alrm, .. })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::SetItimer { interval }) if interval == Dur::from_ms(5)
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(c.step(&mut ctx), Step::Syscall(SyscallReq::Pause)));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::SetItimer { interval }) if interval.is_zero()
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::Socket)
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::Connect { fd: Fd(3), .. })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let send = c.step(&mut ctx);
        let Step::Syscall(SyscallReq::Send { data, .. }) = send else {
            panic!("expected zero-byte request, got {send:?}")
        };
        assert!(data.is_empty());
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::Recv { .. })
        ));
        // Two pattern datagrams of 8 bytes each complete the 16-byte file.
        use crate::programs::util::pattern_bytes;
        ctx.ret = Some(SyscallRet::Data(pattern_bytes(3, 0, 8)));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::Recv { .. })
        ));
        ctx.ret = Some(SyscallRet::Data(pattern_bytes(3, 8, 8)));
        assert!(matches!(
            c.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(3)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(c.step(&mut ctx), Step::Exit(0)));
        let s = stats.borrow();
        assert_eq!(s.completed, 1);
        assert_eq!(s.bytes_received, 16);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.mismatches, 0);
    }

    #[test]
    fn client_flags_corruption() {
        let stats = scenario_stats();
        let addr = SockAddr { host: 1, port: 80 };
        let mut c = ServerClient::new(addr, 8, 3, Dur::from_us(1), Rc::clone(&stats));
        // Fast-forward to the recv state.
        let mut ctx = UserCtx {
            ret: None,
            signals: Vec::new(),
            now: SimTime::ZERO,
        };
        c.step(&mut ctx); // Sigaction
        for ret in [
            SyscallRet::Val(0), // SetItimer
            SyscallRet::Val(0), // Pause
            SyscallRet::Val(0), // SetItimer 0
            SyscallRet::Val(0), // Socket (next takes fd)
        ] {
            ctx.ret = Some(ret);
            c.step(&mut ctx);
        }
        ctx.ret = Some(SyscallRet::NewFd(Fd(3))); // → Connect
        c.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0)); // → Send
        c.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Val(0)); // → Recv
        c.step(&mut ctx);
        ctx.ret = Some(SyscallRet::Data(vec![0xFF; 8]));
        assert!(matches!(c.step(&mut ctx), Step::Exit(1)));
        assert_eq!(stats.borrow().mismatches, 1);
    }

    #[test]
    fn server_listens_then_serves_one_splice_conn() {
        let stats = scenario_stats();
        let mut s = SpliceServer::new(
            80,
            "/d0/f",
            8192,
            1,
            8,
            ServeMode::Splice,
            Rc::clone(&stats),
        );
        let mut ctx = UserCtx {
            ret: None,
            signals: Vec::new(),
            now: SimTime::ZERO,
        };
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Socket)
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Bind {
                fd: Fd(3),
                port: 80
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Listen {
                fd: Fd(3),
                backlog: 8
            })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Open { .. })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Accept {
                fd: Fd(3),
                block: true
            })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(5)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Lseek { fd: Fd(4), pos: 0 })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let sp = s.step(&mut ctx);
        assert!(
            matches!(
                sp,
                Step::Syscall(SyscallReq::Splice { req })
                    if req.src == Fd(4) && req.dst == Fd(5)
            ),
            "got {sp:?}"
        );
        ctx.ret = Some(SyscallRet::Val(8192));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(5)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        // Last connection served: close the listener, exit clean.
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(3)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(s.step(&mut ctx), Step::Exit(0)));
        assert_eq!(stats.borrow().served, 1);
    }

    #[test]
    fn ring_server_submits_waves() {
        let stats = scenario_stats();
        let mut s = SpliceServer::new(
            80,
            "/d0/f",
            8192,
            2,
            8,
            ServeMode::Ring { depth: 2 },
            Rc::clone(&stats),
        );
        let mut ctx = ctx_with(SyscallRet::Val(0));
        ctx.ret = None;
        s.step(&mut ctx); // Socket
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        s.step(&mut ctx); // Bind
        ctx.ret = Some(SyscallRet::Val(0));
        s.step(&mut ctx); // Listen
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::RingCreate { depth: 2, .. })
        ));
        ctx.ret = Some(SyscallRet::Val(9)); // ring id
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Open { .. })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Open { .. })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(5)));
        // The wave's first accept sleeps; the rest drain the backlog.
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Accept {
                fd: Fd(3),
                block: true
            })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(6)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Accept {
                fd: Fd(3),
                block: false
            })
        ));
        ctx.ret = Some(SyscallRet::NewFd(Fd(7)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Lseek { fd: Fd(4), .. })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Lseek { fd: Fd(5), .. })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let submit = s.step(&mut ctx);
        let Step::Syscall(SyscallReq::RingSubmit { ring: 9, sqes }) = submit else {
            panic!("expected submit, got {submit:?}")
        };
        assert_eq!(sqes.len(), 2);
        assert_eq!(sqes[0].req.src, Fd(4));
        assert_eq!(sqes[0].req.dst, Fd(6));
        ctx.ret = Some(SyscallRet::Val(2));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::RingReap { ring: 9, min: 2 })
        ));
        use crate::types::{SpliceCqe, SpliceOutcome};
        let cqe = |ud| SpliceCqe {
            user_data: ud,
            outcome: SpliceOutcome {
                bytes_moved: 8192,
                error: None,
            },
        };
        ctx.ret = Some(SyscallRet::Cqes(vec![cqe(0), cqe(1)]));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(6)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(7)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        // Both served: listener close, then exit.
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(3)))
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(s.step(&mut ctx), Step::Exit(0)));
        assert_eq!(stats.borrow().served, 2);
    }

    /// A depth-4 ring server for 3 connections, stepped to the first
    /// (blocking) accept of its first wave.
    fn ring_server_at_first_accept() -> (SpliceServer, UserCtx) {
        let mut s = SpliceServer::new(
            80,
            "/d0/f",
            8192,
            3,
            8,
            ServeMode::Ring { depth: 4 },
            scenario_stats(),
        );
        let mut ctx = ctx_with(SyscallRet::Val(0));
        ctx.ret = None;
        s.step(&mut ctx); // Socket
        for ret in [
            SyscallRet::NewFd(Fd(3)), // → Bind
            SyscallRet::Val(0),       // → Listen
            SyscallRet::Val(0),       // → RingCreate
            SyscallRet::Val(9),       // ring id → Open
            SyscallRet::NewFd(Fd(4)), // → Open
            SyscallRet::NewFd(Fd(5)), // → Open
        ] {
            ctx.ret = Some(ret);
            s.step(&mut ctx);
        }
        ctx.ret = Some(SyscallRet::NewFd(Fd(6)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Accept {
                fd: Fd(3),
                block: true
            })
        ));
        (s, ctx)
    }

    #[test]
    fn ring_server_submits_partial_wave_when_backlog_empties() {
        let (mut s, mut ctx) = ring_server_at_first_accept();
        ctx.ret = Some(SyscallRet::NewFd(Fd(7)));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Accept {
                fd: Fd(3),
                block: false
            })
        ));
        // Nothing else pending: the wave is the one connection in hand.
        ctx.ret = Some(SyscallRet::Err(Errno::Eagain));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Lseek { fd: Fd(4), pos: 0 })
        ));
        ctx.ret = Some(SyscallRet::Val(0));
        let submit = s.step(&mut ctx);
        let Step::Syscall(SyscallReq::RingSubmit { ring: 9, sqes }) = submit else {
            panic!("expected submit, got {submit:?}")
        };
        assert_eq!(sqes.len(), 1);
        assert_eq!((sqes[0].req.src, sqes[0].req.dst), (Fd(4), Fd(7)));
        ctx.ret = Some(SyscallRet::Val(1));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::RingReap { ring: 9, min: 1 })
        ));
    }

    #[test]
    fn ring_server_exits_on_accept_failure() {
        // EAGAIN with no connection in hand cannot come from the blocking
        // first accept: it is a failure like any other errno.
        for errno in [Errno::Eagain, Errno::Ebadf] {
            let (mut s, mut ctx) = ring_server_at_first_accept();
            ctx.ret = Some(SyscallRet::Err(errno));
            assert!(matches!(s.step(&mut ctx), Step::Exit(2)), "{errno:?}");
        }
        // Mid-wave, only EAGAIN ends the drain.
        let (mut s, mut ctx) = ring_server_at_first_accept();
        ctx.ret = Some(SyscallRet::NewFd(Fd(7)));
        s.step(&mut ctx); // → Accept { block: false }
        ctx.ret = Some(SyscallRet::Err(Errno::Einval));
        assert!(matches!(s.step(&mut ctx), Step::Exit(2)));
    }

    #[test]
    fn cp_relay_reads_then_sends() {
        let stats = scenario_stats();
        let mut s = SpliceServer::new(
            80,
            "/d0/f",
            16384,
            1,
            4,
            ServeMode::CpRelay,
            Rc::clone(&stats),
        );
        let mut ctx = ctx_with(SyscallRet::Val(0));
        ctx.ret = None;
        s.step(&mut ctx); // Socket
        ctx.ret = Some(SyscallRet::NewFd(Fd(3)));
        s.step(&mut ctx); // Bind
        ctx.ret = Some(SyscallRet::Val(0));
        s.step(&mut ctx); // Listen
        ctx.ret = Some(SyscallRet::Val(0));
        s.step(&mut ctx); // Open
        ctx.ret = Some(SyscallRet::NewFd(Fd(4)));
        s.step(&mut ctx); // Accept
        ctx.ret = Some(SyscallRet::NewFd(Fd(5)));
        s.step(&mut ctx); // Lseek
        ctx.ret = Some(SyscallRet::Val(0));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Read {
                fd: Fd(4),
                len: RELAY_CHUNK
            })
        ));
        ctx.ret = Some(SyscallRet::Data(vec![1; RELAY_CHUNK]));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Send { fd: Fd(5), .. })
        ));
        ctx.ret = Some(SyscallRet::Val(RELAY_CHUNK as i64));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Read { .. })
        ));
        ctx.ret = Some(SyscallRet::Data(vec![1; RELAY_CHUNK]));
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Send { .. })
        ));
        ctx.ret = Some(SyscallRet::Val(RELAY_CHUNK as i64));
        // 16384 bytes moved: close the connection.
        assert!(matches!(
            s.step(&mut ctx),
            Step::Syscall(SyscallReq::Close(Fd(5)))
        ));
    }
}
