//! Cross-crate integration: UDP datagram flow through the kernel.

use kproc::programs::{UdpRelayRw, UdpRelaySplice, UdpSink, UdpSource};
use kproc::{
    FcntlCmd, Fd, ProcState, Program, Sig, SockAddr, SpliceReq, Step, SyscallReq, SyscallRet,
    UserCtx,
};
use ksim::Dur;
use splice::KernelBuilder;

#[test]
fn source_to_sink_direct() {
    let mut k = KernelBuilder::new().build();
    let sink = k.spawn(Box::new(UdpSink::new(9000, 10)));
    let src = k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 9000,
        },
        1024,
        10,
        Dur::from_ms(1),
        7,
    )));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(sink).state, ProcState::Exited(0)));
    assert!(matches!(k.procs().must(src).state, ProcState::Exited(0)));
    assert_eq!(k.net().stats().delivered, 10);
    assert_eq!(k.net().stats().bytes_delivered, 10 * 1024);
}

#[test]
fn rw_relay_forwards_everything() {
    let mut k = KernelBuilder::new().build();
    let sink = k.spawn(Box::new(UdpSink::new(9001, 20)));
    let relay = k.spawn(Box::new(UdpRelayRw::new(
        9000,
        SockAddr {
            host: 1,
            port: 9001,
        },
        20,
    )));
    k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 9000,
        },
        2048,
        20,
        Dur::from_ms(1),
        7,
    )));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(sink).state, ProcState::Exited(0)));
    assert!(matches!(k.procs().must(relay).state, ProcState::Exited(0)));
}

#[test]
fn splice_relay_forwards_in_kernel() {
    let mut k = KernelBuilder::new().build();
    let total = 20u64 * 2048;
    let sink = k.spawn(Box::new(UdpSink::new(9001, 20)));
    let relay = k.spawn(Box::new(UdpRelaySplice::new(
        9000,
        SockAddr {
            host: 1,
            port: 9001,
        },
        total,
    )));
    k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 9000,
        },
        2048,
        20,
        Dur::from_ms(1),
        7,
    )));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(sink).state, ProcState::Exited(0)));
    assert!(matches!(k.procs().must(relay).state, ProcState::Exited(0)));
    // The relay path never copies to user space.
    assert_eq!(k.metrics().splice.started, 1);
}

/// The drop counter is split by cause: sends to a port nobody bound
/// count as `dropped_no_listener`, arrivals past the receive-buffer
/// limit count as `dropped_rcv_full`, and the legacy aggregate is
/// exactly the sum of the split.
#[test]
fn dropped_counters_split_by_cause() {
    let mut k = KernelBuilder::new().build();
    // A bound-but-undrained receiver with a 2 KB buffer: the first two
    // 1 KB datagrams queue, the rest bounce off the full buffer.
    k.net_mut().set_rcv_limit(2048);
    let parked = k.net_mut().socket(1);
    k.net_mut().bind(parked, 9100).expect("port free");
    k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 9100,
        },
        1024,
        4,
        Dur::from_ms(1),
        7,
    )));
    // Nothing listens on 9200: every send is a no-listener drop.
    k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 9200,
        },
        512,
        3,
        Dur::from_ms(1),
        7,
    )));
    let horizon = k.horizon(60);
    k.run_to_exit(horizon);

    let m = k.metrics().net;
    assert_eq!(m.dropped_no_listener, 3);
    assert_eq!(m.dropped_rcv_full, 2);
    assert_eq!(m.dropped_backlog, 0);
    assert_eq!(
        k.net().stats().dropped(),
        m.dropped_no_listener + m.dropped_rcv_full + m.dropped_backlog,
        "aggregate drop count must equal the sum of its causes"
    );
    assert_eq!(k.net().rcv_used(parked), 2048, "survivors fill the buffer");
}

#[test]
fn rw_relay_with_cpu_contention() {
    let mut k = KernelBuilder::new().build();
    let test = k.spawn(Box::new(kproc::programs::CpuBound::new(
        500,
        Dur::from_ms(1),
    )));
    let sink = k.spawn(Box::new(UdpSink::new(9001, 20)));
    let relay = k.spawn(Box::new(UdpRelayRw::new(
        9000,
        SockAddr {
            host: 1,
            port: 9001,
        },
        20,
    )));
    k.spawn(Box::new(UdpSource::new(
        SockAddr {
            host: 1,
            port: 9000,
        },
        2048,
        20,
        Dur::from_ms(2),
        7,
    )));
    let horizon = k.horizon(120);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(test).state, ProcState::Exited(0)));
    assert!(matches!(k.procs().must(sink).state, ProcState::Exited(0)));
    assert!(matches!(k.procs().must(relay).state, ProcState::Exited(0)));
}

/// Starts an async splice from a bound socket to a connected one, feeds
/// it two datagrams from a third socket, and closes the source (EOF for
/// the splice) `close_after` past the second send. Then waits for the
/// completion `SIGIO`.
struct ClosingRelay {
    close_after: Dur,
    st: u32,
    src: Option<Fd>,
    out: Option<Fd>,
    tx: Option<Fd>,
}

impl Program for ClosingRelay {
    fn step(&mut self, ctx: &mut UserCtx) -> Step {
        self.st += 1;
        let ret = ctx.ret.take();
        let fd = ret.as_ref().and_then(SyscallRet::as_fd);
        let port = |port| SockAddr { host: 1, port };
        match self.st {
            1 | 3 | 5 => Step::Syscall(SyscallReq::Socket),
            2 => {
                self.src = fd;
                Step::Syscall(SyscallReq::Bind {
                    fd: self.src.unwrap(),
                    port: 9000,
                })
            }
            4 => {
                self.out = fd;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.out.unwrap(),
                    addr: port(9001),
                })
            }
            6 => {
                self.tx = fd;
                Step::Syscall(SyscallReq::Connect {
                    fd: self.tx.unwrap(),
                    addr: port(9000),
                })
            }
            7 => Step::Syscall(SyscallReq::Sigaction {
                sig: Sig::Io,
                catch: true,
            }),
            8 => Step::Syscall(SyscallReq::Fcntl {
                fd: self.src.unwrap(),
                cmd: FcntlCmd::SetAsync(true),
            }),
            9 => Step::splice(SpliceReq::new(self.src.unwrap(), self.out.unwrap()).bytes(1 << 20)),
            10 | 12 => Step::Syscall(SyscallReq::Send {
                fd: self.tx.unwrap(),
                data: vec![7; 1024],
            }),
            // The first datagram is written through before the second.
            11 => Step::Compute(Dur::from_ms(20)),
            13 => Step::Compute(self.close_after),
            14 => Step::Syscall(SyscallReq::Close(self.src.unwrap())),
            _ if ctx.got_signal(Sig::Io) => Step::Exit(0),
            _ => Step::Syscall(SyscallReq::Pause),
        }
    }
}

/// Closing a splice's source socket is its EOF. A stream pull still
/// queued at the close gets no bytes, and the splice completes only
/// once that pull has released its slot: exactly once, with the bytes
/// pulled before the close, all of them delivered. Debug builds assert
/// at completion that no read or write is still in flight.
#[test]
fn closing_a_splice_source_with_a_pull_in_flight_completes_at_eof() {
    let mut caught_in_flight = 0;
    for step in 0..40u64 {
        let mut k = KernelBuilder::new()
            .tune(|c| c.machine.softwork_budget_per_tick = c.machine.splice_handler)
            .build();
        let sink = k.net_mut().socket(1);
        k.net_mut().bind(sink, 9001).expect("port free");
        let relay = k.spawn(Box::new(ClosingRelay {
            close_after: Dur::from_us(200 * step),
            st: 0,
            src: None,
            out: None,
            tx: None,
        }));
        let horizon = k.horizon(60);
        let exited = k.run_to_exit(horizon);
        // Let the last datagram cross the loopback hop.
        k.run_until(exited + Dur::from_ms(1), |_| false);
        assert!(
            matches!(k.procs().must(relay).state, ProcState::Exited(0)),
            "close after {step}0 us: the relay never heard its splice complete"
        );
        let m = k.metrics().splice;
        assert_eq!(m.completed, 1, "close after {step}0 us");
        let span = m.spans.iter().next().expect("one splice span");
        assert!(span.completed.is_some(), "close after {step}0 us");
        assert!(span.bytes_moved >= 1024, "close after {step}0 us");
        assert_eq!(
            span.bytes_moved,
            k.net().rcv_used(sink) as u64,
            "close after {step}0 us: every pulled byte reached the sink"
        );
        // A pull released without a block is one that was in flight
        // when the source closed.
        if span.reads_issued > span.blocks_done {
            caught_in_flight += 1;
        }
    }
    assert!(
        caught_in_flight > 0,
        "no close landed with a pull in flight"
    );
}
