//! The future-event list.
//!
//! A pending event is `(time, seq, customer)`: what it means is read from
//! the customer's stage when it fires (the end of a think, or the end of a
//! service at the station the customer occupies). Events are ordered on
//! `(time bits, seq)`, compared as one `u128`. The sequence number
//! increases on every schedule, so keys are unique and time ties break by
//! insertion order, which keeps seeded runs reproducible across platforms.
//! Times are finite and non-negative (`+ 0.0` folds `-0.0` into `+0.0`),
//! so their bit patterns order like the values.
//!
//! Events live in two places:
//!
//! * a near-future array of queueing completions, sorted with the
//!   earliest at the end: a pop is a `Vec::pop`, and an insert shifts only
//!   the entries that fire earlier than the new one;
//! * a binary min-heap for think ends, delay-station completions and the
//!   queueing completions that do not fit in the array. Once the array is
//!   full, new completions go to the heap until the array has drained, so
//!   a station with thousands of busy servers costs O(log n) per event,
//!   not O(n).
//!
//! [`EventQueue::pop`] takes whichever head is earlier, so events leave in
//! exactly the order one heap over all of them would give, whichever side
//! holds a completion.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Most queueing completions the near-future array holds. At their top
/// campaign levels VINS keeps about 10 queueing servers busy and JPetStore
/// about 23; a bound of 8 gave no gain on the VINS campaign, 32 took it to
/// about 0.75× of an all-heap list. With this bound and drain-before-refill,
/// 64- to 4096-server stations stay within the all-heap list's run spread;
/// without a bound, a 4096-server station ran 4.9× slower (DESIGN §18).
const NEAR_CAP: usize = 32;

/// Bytes one pending event takes in either list.
pub(crate) const EVENT_BYTES: usize = std::mem::size_of::<Entry>();

/// One pending event, ordered on `(time bits, seq)`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    customer: usize,
}

impl Entry {
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic future-event list: a bounded sorted array of queueing
/// completions in front of a heap.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Queueing completions, sorted with the earliest at the end.
    near: Vec<Entry>,
    /// Set when `near` fills, cleared when it drains: in between, new
    /// completions go to the heap.
    spilling: bool,
    /// Everything else, earliest first.
    far: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self {
            near: Vec::with_capacity(NEAR_CAP),
            spilling: false,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn entry(&mut self, time: f64, customer: usize) -> Entry {
        debug_assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and >= 0"
        );
        let seq = self.seq;
        self.seq += 1;
        Entry {
            time: (time + 0.0).to_bits(),
            seq,
            customer,
        }
    }

    /// Schedules a think end or delay-station completion at `time`.
    pub(crate) fn schedule_infinite(&mut self, time: f64, customer: usize) {
        let e = self.entry(time, customer);
        self.far.push(Reverse(e));
    }

    /// Schedules a service completion at a queueing station at `time`.
    pub(crate) fn schedule_queueing(&mut self, time: f64, customer: usize) {
        let e = self.entry(time, customer);
        if self.spilling {
            self.far.push(Reverse(e));
            return;
        }
        // Shift the entries that fire earlier than `e` one slot up.
        self.near.push(e);
        let near = self.near.as_mut_slice();
        let mut at = near.len() - 1;
        while at > 0 && near[at - 1] < e {
            near[at] = near[at - 1];
            at -= 1;
        }
        near[at] = e;
        self.spilling = self.near.len() == NEAR_CAP;
    }

    /// Pops the earliest event as `(time, customer)`.
    pub(crate) fn pop(&mut self) -> Option<(f64, usize)> {
        let far_first = match (self.near.last(), self.far.peek()) {
            (Some(n), Some(Reverse(f))) => f < n,
            (near, _) => near.is_none(),
        };
        let e = if far_first {
            self.far.pop()?.0
        } else {
            let e = self.near.pop()?;
            self.spilling &= !self.near.is_empty();
            e
        };
        Some((f64::from_bits(e.time), e.customer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasd_numerics::propcheck::{check, Config};

    fn drain(q: &mut EventQueue) -> Vec<(f64, usize)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_across_both_lists() {
        let mut q = EventQueue::new();
        q.schedule_infinite(3.0, 0);
        q.schedule_queueing(1.5, 1);
        q.schedule_infinite(1.0, 2);
        q.schedule_queueing(4.0, 3);
        q.schedule_queueing(2.0, 4);
        q.schedule_infinite(0.0, 5);
        q.schedule_queueing(-0.0, 6); // ties with 0.0, as the values do
        assert_eq!(
            drain(&mut q),
            vec![
                (0.0, 5),
                (0.0, 6),
                (1.0, 2),
                (1.5, 1),
                (2.0, 4),
                (3.0, 0),
                (4.0, 3)
            ]
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order_across_both_lists() {
        let mut q = EventQueue::new();
        q.schedule_queueing(5.0, 10);
        q.schedule_infinite(5.0, 11);
        q.schedule_queueing(5.0, 12);
        q.schedule_infinite(5.0, 13);
        q.schedule_infinite(5.0, 14);
        q.schedule_queueing(5.0, 15);
        let order: Vec<usize> = drain(&mut q).into_iter().map(|(_, c)| c).collect();
        assert_eq!(order, vec![10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn completions_past_the_bound_spill_and_keep_their_order() {
        let mut q = EventQueue::new();
        let n = 3 * NEAR_CAP;
        // Descending times: every insert lands at the late end.
        for c in 0..n {
            q.schedule_queueing((n - c) as f64, c);
        }
        assert_eq!(q.near.len(), NEAR_CAP);
        assert_eq!(q.far.len(), n - NEAR_CAP);
        let order: Vec<usize> = drain(&mut q).into_iter().map(|(_, c)| c).collect();
        assert_eq!(order, (0..n).rev().collect::<Vec<_>>());
    }

    /// Random schedule/pop interleavings pop in exactly the order of a
    /// reference sort on `(time bits, seq)`.
    #[test]
    fn random_interleavings_pop_in_reference_order() {
        check(
            "event_list_matches_reference_sort",
            &Config::default().cases(128),
            |g| {
                // A few distinct times make exact ties common; -0.0 must
                // tie with 0.0.
                let times = [0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 7.0];
                let mut q = EventQueue::new();
                let mut reference: Vec<(u64, u64, usize)> = Vec::new();
                let mut seq = 0u64;
                let mut now = 0.0f64;
                let steps = g.usize_in(1, 400);
                for _ in 0..steps {
                    let burst = if g.usize_in(0, 15) == 0 {
                        g.usize_in(NEAR_CAP, 3 * NEAR_CAP)
                    } else {
                        1
                    };
                    if g.usize_in(0, 2) == 0 {
                        let want = reference
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(t, s, _))| (t, s))
                            .map(|(i, _)| i)
                            .map(|i| reference.remove(i));
                        let got = q.pop();
                        assert_eq!(
                            got.map(|(t, c)| (t.to_bits(), c)),
                            want.map(|(t, _, c)| (t, c)),
                            "pop {seq}"
                        );
                        if let Some((t, _)) = got {
                            now = t;
                        }
                        continue;
                    }
                    for _ in 0..burst {
                        let t = if g.bool() {
                            *g.choose(&times)
                        } else {
                            now + g.f64_in(0.0, 2.0)
                        };
                        let c = g.usize_in(0, 1 << 20);
                        if g.bool() {
                            q.schedule_infinite(t, c);
                        } else {
                            q.schedule_queueing(t, c);
                        }
                        reference.push(((t + 0.0).to_bits(), seq, c));
                        seq += 1;
                    }
                }
                reference.sort_unstable_by_key(|&(t, s, _)| (t, s));
                let rest: Vec<(u64, usize)> = drain(&mut q)
                    .into_iter()
                    .map(|(t, c)| (t.to_bits(), c))
                    .collect();
                let want: Vec<(u64, usize)> = reference.iter().map(|&(t, _, c)| (t, c)).collect();
                assert_eq!(rest, want);
            },
        );
    }
}
