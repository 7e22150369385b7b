//! The original `BTreeMap`-backed callout list, kept only as a
//! reference model for the differential tests and as `simspeed`'s live
//! speedup baseline. The kernel never instantiates it, so as a generic
//! it emits no code in kernel builds.

use std::collections::BTreeMap;

use super::CalloutId;

/// The original `BTreeMap`-backed callout list, kept as the executable
/// reference model: the differential property suite drives
/// [`Callout`](super::Callout) and `BTreeCallout` through identical
/// operation sequences and asserts identical delivery, and the
/// `simspeed` bench measures the wheel's speedup against it.
pub struct BTreeCallout<C> {
    // Tick → entries due at that tick.
    table: BTreeMap<u64, Vec<(CalloutId, i64, C)>>,
    next_id: u64,
    next_order: i64,
    next_head_order: i64,
    pending: usize,
}

impl<C> Default for BTreeCallout<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> BTreeCallout<C> {
    /// Creates an empty reference callout table.
    pub fn new() -> Self {
        BTreeCallout {
            table: BTreeMap::new(),
            next_id: 0,
            next_order: 1,
            next_head_order: -1,
            pending: 0,
        }
    }

    fn insert(&mut self, due_tick: u64, order: i64, payload: C) -> CalloutId {
        let id = CalloutId(self.next_id);
        self.next_id += 1;
        self.table
            .entry(due_tick)
            .or_default()
            .push((id, order, payload));
        self.pending += 1;
        id
    }

    /// Reference [`Callout::schedule`](super::Callout::schedule).
    pub fn schedule(&mut self, current_tick: u64, delay_ticks: u64, payload: C) -> CalloutId {
        let order = self.next_order;
        self.next_order += 1;
        self.insert(current_tick + delay_ticks, order, payload)
    }

    /// Reference [`Callout::schedule_head`](super::Callout::schedule_head).
    pub fn schedule_head(&mut self, current_tick: u64, payload: C) -> CalloutId {
        let order = self.next_head_order;
        self.next_head_order -= 1;
        self.insert(current_tick, order, payload)
    }

    /// Reference [`Callout::cancel`](super::Callout::cancel): the
    /// historical O(total-entries) scan.
    pub fn cancel(&mut self, id: CalloutId) -> Option<C> {
        for entries in self.table.values_mut() {
            if let Some(pos) = entries.iter().position(|e| e.0 == id) {
                let entry = entries.remove(pos);
                self.pending -= 1;
                return Some(entry.2);
            }
        }
        None
    }

    /// Reference [`Callout::expire`](super::Callout::expire).
    pub fn expire(&mut self, current_tick: u64) -> Vec<C> {
        let mut due = Vec::new();
        let later = self.table.split_off(&(current_tick + 1));
        for (_, mut entries) in std::mem::replace(&mut self.table, later) {
            due.append(&mut entries);
        }
        self.pending -= due.len();
        due.sort_by_key(|e| e.1);
        due.into_iter().map(|e| e.2).collect()
    }

    /// Reference [`Callout::len`](super::Callout::len).
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Reference [`Callout::is_empty`](super::Callout::is_empty).
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Reference [`Callout::next_due_tick`](super::Callout::next_due_tick).
    pub fn next_due_tick(&self) -> Option<u64> {
        self.table
            .iter()
            .find(|(_, v)| !v.is_empty())
            .map(|(t, _)| *t)
    }
}
