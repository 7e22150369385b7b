//! Simulator-speed measurement procedures.
//!
//! These measure *host* events-per-second of the simulator itself — the
//! quantity the timing-wheel callout, the slab event queue, and the
//! pooled buffer arena exist to improve. The `simspeed` binary pins
//! the numbers into `BENCH_simspeed.json`.
//!
//! The churn loops keep a large pending population (the regime where the
//! old `BTreeMap` callout degraded) and then drive a steady
//! schedule/cancel/expire mix through it. Rates count every mutation
//! (schedule, cancel, and the amortised expire) so the numbers are
//! comparable across implementations with different per-op costs.

use std::time::Instant;

use ksim::{BTreeCallout, Callout, CalloutId, Dur, EventQueue, SimTime};

/// One measured loop: mutation count over wall-clock seconds.
#[derive(Clone, Copy, Debug)]
pub struct Rate {
    /// Mutations performed (schedule + cancel + expire passes).
    pub ops: u64,
    /// Wall-clock seconds for the measured window.
    pub secs: f64,
}

impl Rate {
    /// Mutations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// The callout surface the churn loop exercises — implemented by both
/// the timing wheel and the retained `BTreeMap` reference so the same
/// loop measures both.
trait CalloutImpl<C> {
    fn schedule(&mut self, current_tick: u64, delay_ticks: u64, payload: C) -> CalloutId;
    fn cancel(&mut self, id: CalloutId) -> Option<C>;
    fn expire(&mut self, current_tick: u64) -> Vec<C>;
}

impl<C> CalloutImpl<C> for Callout<C> {
    fn schedule(&mut self, current_tick: u64, delay_ticks: u64, payload: C) -> CalloutId {
        Callout::schedule(self, current_tick, delay_ticks, payload)
    }
    fn cancel(&mut self, id: CalloutId) -> Option<C> {
        Callout::cancel(self, id)
    }
    fn expire(&mut self, current_tick: u64) -> Vec<C> {
        Callout::expire(self, current_tick)
    }
}

impl<C> CalloutImpl<C> for BTreeCallout<C> {
    fn schedule(&mut self, current_tick: u64, delay_ticks: u64, payload: C) -> CalloutId {
        BTreeCallout::schedule(self, current_tick, delay_ticks, payload)
    }
    fn cancel(&mut self, id: CalloutId) -> Option<C> {
        BTreeCallout::cancel(self, id)
    }
    fn expire(&mut self, current_tick: u64) -> Vec<C> {
        BTreeCallout::expire(self, current_tick)
    }
}

/// Schedule/cancel/expire churn against a standing population of
/// `pending` callouts with delays spread over 512 ticks. Each iteration
/// schedules one callout, cancels a pseudo-random standing one, and
/// every 64 iterations advances the clock one tick and expires it.
fn callout_churn(co: &mut impl CalloutImpl<u64>, pending: usize, ops: u64) -> Rate {
    let mut ids = Vec::with_capacity(pending);
    for i in 0..pending as u64 {
        ids.push(co.schedule(0, 1 + i % 512, i));
    }
    let start = Instant::now();
    let mut tick = 0u64;
    for i in 0..ops {
        let id = co.schedule(tick, 1 + i % 512, i);
        let slot = (i as usize * 7919) % ids.len();
        co.cancel(ids[slot]);
        ids[slot] = id;
        if i % 64 == 0 {
            tick += 1;
            std::hint::black_box(co.expire(tick).len());
        }
    }
    Rate {
        ops: 3 * ops,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Churn rate of the hierarchical timing wheel.
pub fn callout_churn_wheel(pending: usize, ops: u64) -> Rate {
    callout_churn(&mut Callout::new(), pending, ops)
}

/// Churn rate of the retained `BTreeMap` reference implementation —
/// the pre-refactor baseline, measured live so the speedup ratio in
/// `BENCH_simspeed.json` reflects the host it ran on.
pub fn callout_churn_btree(pending: usize, ops: u64) -> Rate {
    callout_churn(&mut BTreeCallout::new(), pending, ops)
}

/// Schedule/cancel/pop churn against a standing population of `pending`
/// events spread over 4096 µs of virtual time.
pub fn event_churn(pending: usize, ops: u64) -> Rate {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut ids = Vec::with_capacity(pending);
    for i in 0..pending as u64 {
        ids.push(q.schedule(SimTime::ZERO + Dur::from_us(1 + i % 4096), i));
    }
    let start = Instant::now();
    for i in 0..ops {
        let at = q.now() + Dur::from_us(1 + i % 4096);
        let id = q.schedule(at, i);
        let slot = (i as usize * 7919) % ids.len();
        q.cancel(ids[slot]);
        ids[slot] = id;
        if i % 4 == 0 {
            if let Some((_, v)) = q.pop() {
                std::hint::black_box(v);
            }
        }
    }
    Rate {
        ops: 3 * ops,
        secs: start.elapsed().as_secs_f64(),
    }
}
