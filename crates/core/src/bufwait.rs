//! Splice wait queues for busy buffers (the `B_WANTED` sleep, without a
//! process to put to sleep).
//!
//! A splice handler runs in completion context, so when `bread`/`getblk`
//! or the shared-header allocation finds its block checked out
//! ([`kbuf::BreadOutcome::Busy`]) or no buffer free
//! ([`kbuf::BreadOutcome::NoBuffers`]), it cannot sleep. It parks the
//! kernel work it was running on a FIFO queue instead: one queue per
//! busy buffer ([`WaitChan::Buf`]) and one for "any buffer"
//! ([`WaitChan::AnyBuf`]). The same cache effects that wake sleeping
//! processes wake parked splices — [`kbuf::Effect::Wakeup`] at the
//! buffer's `brelse`, [`kbuf::Effect::BuffersAvailable`] when the free
//! list refills.
//!
//! Wakeup is a **wake-one handoff**: only the head waiter is re-run, as
//! a [`KWork::SpliceWake`] charged its own base cost (no softclock
//! dispatch). After it ran, the kernel re-arms the queue (`pass_wakeup`):
//! if waiters remain on a buffer the new holder keeps it `B_WANTED`, so
//! the next `brelse` wakes the next waiter; if the head did not end up
//! holding the buffer (its splice aborted, another context took the
//! buffer first, the buffer is idle again), the next waiter is woken at
//! once. So no waiter is stranded, and a contended block costs one
//! wakeup per waiter instead of one retry per waiter per tick.
//!
//! Only splices park, and a parked write holds its pending-write slot,
//! so a splice cannot finish while it has a parked write; parked reads
//! of a finishing splice are purged. Waiter state is therefore bounded
//! by the live splices, and empty when none are live.

use std::collections::{HashMap, VecDeque};

use kbuf::BufId;
use kproc::WorkClass;
use ksim::TraceEvent;

use crate::event::KWork;
use crate::kernel::Kernel;
use crate::metrics::SpliceMetrics;

/// What a parked splice waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitChan {
    /// The release of this checked-out buffer.
    Buf(BufId),
    /// Any buffer returning to the free list.
    AnyBuf,
}

/// The kernel's splice wait queues (see the module docs).
#[derive(Default)]
pub(crate) struct BufWaits {
    per_buf: HashMap<BufId, VecDeque<KWork>>,
    any: VecDeque<KWork>,
    /// The queue whose head waiter is running right now.
    waking: Option<WaitChan>,
}

impl BufWaits {
    fn queue(&self, chan: WaitChan) -> Option<&VecDeque<KWork>> {
        match chan {
            WaitChan::Buf(b) => self.per_buf.get(&b),
            WaitChan::AnyBuf => Some(&self.any),
        }
    }

    /// Parks `work` at the tail of `chan`'s queue, or at its head when
    /// a woken waiter re-parks on the queue it was just woken from (it
    /// keeps its turn).
    fn park(&mut self, chan: WaitChan, work: KWork) {
        let front = self.waking == Some(chan);
        let q = match chan {
            WaitChan::Buf(b) => self.per_buf.entry(b).or_default(),
            WaitChan::AnyBuf => &mut self.any,
        };
        if front {
            q.push_front(work);
        } else {
            q.push_back(work);
        }
    }

    /// The head waiter of `chan`, if any.
    fn head(&self, chan: WaitChan) -> Option<&KWork> {
        self.queue(chan).and_then(|q| q.front())
    }

    /// Unlinks the head waiter of `chan`.
    fn pop(&mut self, chan: WaitChan) -> Option<KWork> {
        match chan {
            WaitChan::Buf(b) => {
                let q = self.per_buf.get_mut(&b)?;
                let w = q.pop_front();
                if q.is_empty() {
                    self.per_buf.remove(&b);
                }
                w
            }
            WaitChan::AnyBuf => self.any.pop_front(),
        }
    }

    /// Drops every waiter belonging to splice `desc`.
    fn purge(&mut self, desc: u64) {
        let keep = |w: &KWork| w.splice_desc() != Some(desc);
        self.any.retain(keep);
        self.per_buf.retain(|_, q| {
            q.retain(keep);
            !q.is_empty()
        });
    }

    /// True when no splice is parked anywhere.
    pub(crate) fn is_empty(&self) -> bool {
        self.per_buf.is_empty() && self.any.is_empty()
    }
}

impl Kernel {
    /// Parks splice work on `chan` after a buffer contention: counts the
    /// wait in the splice total that `counter` selects (one per
    /// contention), traces it as a `SpliceBackoff`, and notes it on the
    /// splice's span.
    pub(crate) fn splice_wait(
        &mut self,
        chan: WaitChan,
        desc: u64,
        lblk: u64,
        counter: fn(&mut SpliceMetrics) -> &mut u64,
        work: KWork,
    ) {
        *counter(&mut self.counts.splice) += 1;
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::SpliceBackoff { desc, lblk });
        self.span_note(desc, |s, _, _, _| s.note_backoff());
        self.buf_waits.park(chan, work);
    }

    /// A cache wakeup for `chan`: hand it to the head waiter, if any, as
    /// soft work at that waiter's base cost.
    pub(crate) fn wake_waiter(&mut self, chan: WaitChan) {
        let Some(head) = self.buf_waits.head(chan) else {
            return;
        };
        let cost = self.kwork_base_cost(head);
        self.enqueue_kwork(WorkClass::Soft, cost, KWork::SpliceWake { chan });
    }

    /// Runs the head waiter of `chan`, then passes the wakeup on.
    pub(crate) fn splice_wake(&mut self, chan: WaitChan) {
        let Some(work) = self.buf_waits.pop(chan) else {
            return;
        };
        self.buf_waits.waking = Some(chan);
        self.apply_splice_work(work);
        self.buf_waits.waking = None;
        self.pass_wakeup(chan);
    }

    /// Keeps the wakeup armed for whoever still waits on `chan`: a held
    /// buffer is marked wanted (its release wakes the next waiter); an
    /// idle one, or a refilled free list, wakes the next waiter now.
    fn pass_wakeup(&mut self, chan: WaitChan) {
        if self.buf_waits.head(chan).is_none() {
            return;
        }
        let armed = match chan {
            WaitChan::Buf(b) => self.cache.mark_wanted(b),
            WaitChan::AnyBuf => self.cache.free_count() == 0,
        };
        if !armed {
            self.wake_waiter(chan);
        }
    }

    /// Drops the waiters of a finished splice (only parked reads can
    /// remain: a parked write holds its pending-write slot).
    pub(crate) fn purge_waits(&mut self, desc: u64) {
        if !self.buf_waits.is_empty() {
            self.buf_waits.purge(desc);
        }
        debug_assert!(
            !self.splices.is_empty() || self.buf_waits.is_empty(),
            "splice waiters outlived every live splice"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(desc: u64) -> KWork {
        KWork::SpliceIssueReads { desc }
    }

    fn descs(w: &BufWaits, chan: WaitChan) -> Vec<u64> {
        w.queue(chan)
            .map(|q| q.iter().filter_map(KWork::splice_desc).collect())
            .unwrap_or_default()
    }

    #[test]
    fn queues_are_fifo_and_a_rewoken_waiter_keeps_its_turn() {
        let mut w = BufWaits::default();
        let b = WaitChan::Buf(BufId(7));
        for d in 1..=3 {
            w.park(b, read(d));
        }
        assert_eq!(w.pop(b).and_then(|k| k.splice_desc()), Some(1));
        w.waking = Some(b);
        w.park(b, read(1));
        w.waking = None;
        w.park(b, read(4));
        assert_eq!(descs(&w, b), vec![1, 2, 3, 4]);
        while w.pop(b).is_some() {}
        assert!(w.is_empty(), "a drained buffer queue is dropped");
    }

    #[test]
    fn purge_drops_only_the_finished_splice_and_empty_queues() {
        let mut w = BufWaits::default();
        let (b1, b2) = (WaitChan::Buf(BufId(1)), WaitChan::Buf(BufId(2)));
        w.park(b1, read(5));
        w.park(b1, read(6));
        w.park(b2, read(5));
        w.park(WaitChan::AnyBuf, read(5));
        w.purge(5);
        assert_eq!(descs(&w, b1), vec![6]);
        assert_eq!(w.queue(b2).map(|q| q.len()), None);
        assert!(descs(&w, WaitChan::AnyBuf).is_empty());
        w.purge(6);
        assert!(w.is_empty());
    }
}
