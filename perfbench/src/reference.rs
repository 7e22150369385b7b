//! A fixed piece of host work that gauges how fast the machine runs
//! right now.
//!
//! On a shared host the same simulated run can take 50 % longer in one
//! minute than in the next, because other tenants contend for the
//! core. The loop runs between repetitions, and a run's host times are
//! scaled by its median gauge to a machine on which the loop takes
//! [`NOMINAL_S`]. The loop uses only the standard library, so no change
//! to the simulator moves it. It mixes what the simulator does most:
//! heap-ordered event pops, hash-map updates and scattered memory
//! writes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::mix;

/// Host seconds the loop takes on the reference machine; host times are
/// reported as if measured there.
pub const NOMINAL_S: f64 = 0.015;

const EVENTS: u64 = 100_000;
const WORDS: usize = 1 << 19;

/// Runs the loop once and returns its host seconds.
pub fn gauge() -> f64 {
    let start = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut state: HashMap<u64, u64> = HashMap::new();
    let mut mem = vec![0u64; WORDS];
    for id in 0..4096u64 {
        queue.push(Reverse((mix(id) % 1_000_000, id)));
    }
    let mut x = 1u64;
    for _ in 0..EVENTS {
        let Reverse((at, id)) = queue.pop().expect("queue stays full");
        x = mix(x ^ at);
        *state.entry(id % 2048).or_insert(0) += x & 0xff;
        let slot = x as usize % WORDS;
        mem[slot] = mem[slot].wrapping_add(at);
        queue.push(Reverse((at + 1 + x % 10_000, id)));
    }
    black_box((&state, &mem));
    start.elapsed().as_secs_f64()
}
