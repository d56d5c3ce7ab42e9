//! The future-event list.
//!
//! A pending event is `(time, seq, customer)`: what it means is read from
//! the customer's stage when it fires (the end of a think, or the end of a
//! service at the station the customer occupies). Events live in two
//! binary min-heaps ordered by the same global `(time, seq)` key:
//!
//! * an infinite-server heap for think ends and delay-station completions,
//!   which can hold every customer at once;
//! * a queueing-completion heap, which never holds more entries than the
//!   network has servers.
//!
//! [`EventQueue::pop`] takes whichever head is earlier, so events leave in
//! exactly the order one heap over both would give. The sequence number
//! increases on every schedule and breaks time ties by insertion order,
//! which keeps seeded runs reproducible across platforms. Times are
//! finite and non-negative, so their IEEE-754 bit patterns order like the
//! values and the key compares as integers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending event; the derived order is `(time bits, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    time: u64,
    seq: u64,
    customer: usize,
}

/// Deterministic two-heap future-event list.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    infinite: BinaryHeap<Reverse<Pending>>,
    queueing: BinaryHeap<Reverse<Pending>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn pending(&mut self, time: f64, customer: usize) -> Reverse<Pending> {
        debug_assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and >= 0"
        );
        let seq = self.seq;
        self.seq += 1;
        // `+ 0.0` maps -0.0 to +0.0, whose bit pattern sorts first.
        Reverse(Pending {
            time: (time + 0.0).to_bits(),
            seq,
            customer,
        })
    }

    /// Schedules a think end or delay-station completion at `time`.
    pub(crate) fn schedule_infinite(&mut self, time: f64, customer: usize) {
        let p = self.pending(time, customer);
        self.infinite.push(p);
    }

    /// Schedules a service completion at a queueing station at `time`.
    pub(crate) fn schedule_queueing(&mut self, time: f64, customer: usize) {
        let p = self.pending(time, customer);
        self.queueing.push(p);
    }

    /// Pops the earliest event of either heap as `(time, customer)`.
    pub(crate) fn pop(&mut self) -> Option<(f64, usize)> {
        // Under `Reverse`, the greater head is the earlier event.
        let heap = match (self.infinite.peek(), self.queueing.peek()) {
            (Some(a), Some(b)) if b > a => &mut self.queueing,
            (Some(_), _) => &mut self.infinite,
            (None, _) => &mut self.queueing,
        };
        heap.pop()
            .map(|Reverse(p)| (f64::from_bits(p.time), p.customer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue) -> Vec<(f64, usize)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_across_heaps() {
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
    fn ties_break_by_insertion_order_across_heaps() {
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
}
