//! Layer probes: host nanoseconds per operation of one layer, timed on
//! that layer's standalone public API with no kernel around it.
//!
//! Each probe runs its loop several times and reports the median, so a
//! single descheduling of the benchmark does not move the figure.

use std::hint::black_box;
use std::time::Instant;

use kbuf::{Cache, DevId, GetblkOutcome};
use kfs::Fs;
use khw::SparseStore;
use knet::{Datagram, Net, NetAddr};
use ksim::{Callout, Dur, EventQueue, SimTime};

/// Loop passes per probe; the median pass is reported.
const PASSES: usize = 5;

fn median_ns_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    let mut per_op: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[PASSES / 2]
}

/// ksim event queue: one schedule plus one pop, against 4096 standing
/// events.
pub fn event_queue_ns() -> f64 {
    const OPS: u64 = 200_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4096u64 {
        q.schedule(SimTime::ZERO + Dur::from_us(1 + i), i);
    }
    median_ns_per_op(OPS, || {
        for i in 0..OPS {
            let at = q.now() + Dur::from_us(1 + i % 4096);
            q.schedule(at, i);
            black_box(q.pop());
        }
    })
}

/// ksim callout wheel: one schedule plus its share of a per-tick
/// expiry, against 2048 standing callouts.
pub fn callout_ns() -> f64 {
    const OPS: u64 = 200_000;
    let mut co: Callout<u64> = Callout::new();
    let mut tick = 0u64;
    for i in 0..2048u64 {
        co.schedule(tick, 1 + i % 512, i);
    }
    let mut due = Vec::new();
    median_ns_per_op(OPS, || {
        for i in 0..OPS {
            co.schedule(tick, 1 + i % 512, i);
            if i % 4 == 3 {
                tick += 1;
                co.expire_into(tick, &mut due);
                black_box(due.len());
                due.clear();
            }
        }
    })
}

/// kbuf: one `getblk` plus `brelse`, cycling 1000 blocks through the
/// paper's 400-buffer cache (so most lookups miss and recycle).
pub fn getblk_brelse_ns() -> f64 {
    const OPS: u64 = 100_000;
    let mut cache = Cache::new(400, 8192);
    let mut fx = Vec::new();
    let mut blk = 0u64;
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            blk = (blk + 1) % 1000;
            let GetblkOutcome::Held(id) = cache.getblk(DevId(0), blk, 8192, &mut fx) else {
                panic!("getblk probe: buffer not held");
            };
            cache.brelse(id, &mut fx);
            fx.clear();
        }
    })
}

/// kfs: one `bmap` lookup into an 8 MB file (direct and indirect
/// blocks).
pub fn bmap_ns() -> f64 {
    const OPS: u64 = 500_000;
    let mut store = SparseStore::new(16 * 1024 * 1024);
    let mut fs = Fs::mkfs(&mut store, 8192, 64);
    let ino = fs.create("/probe").expect("probe file");
    let chunk = vec![0x5au8; 1 << 20];
    for mb in 0..8u64 {
        fs.write_direct(&mut store, ino, mb << 20, &chunk)
            .expect("probe write");
    }
    let blocks = fs.blocks_for(8 << 20);
    median_ns_per_op(OPS, || {
        for i in 0..OPS {
            black_box(fs.bmap(ino, i % blocks));
        }
    })
}

/// knet: one 8 KB `send`, its `deliver` and the `recv` that drains it,
/// on a loopback pair.
pub fn send_deliver_ns() -> f64 {
    const OPS: u64 = 100_000;
    let mut net = Net::new();
    let a = net.socket(1);
    let b = net.socket(1);
    net.bind(b, 9).expect("probe bind");
    net.connect(a, NetAddr { host: 1, port: 9 })
        .expect("probe connect");
    let src = net.source_addr(a).expect("probe source");
    let payload = vec![7u8; 8192];
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            let tx = net
                .send(SimTime::ZERO, a, payload.len())
                .expect("probe send");
            let dst = tx.dst.expect("loopback delivers");
            net.deliver(
                dst,
                Datagram {
                    src,
                    src_sock: a,
                    data: payload.clone(),
                },
            );
            black_box(net.recv(dst).expect("probe recv"));
        }
    })
}
