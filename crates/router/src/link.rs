//! Fixed-latency delay pipes modeling channels and credit wires, and the
//! calendar wheel an event-driven simulator schedules deliveries on.
//!
//! A [`DelayPipe`] delivers each item exactly `latency + 1` cycles after
//! the cycle it was pushed in: an item sent during the switch-traversal
//! phase of cycle `t` spends `latency` cycles on the wire (cycles `t+1 ..=
//! t+latency`) and is delivered at the start of cycle `t + 1 + latency`.
//! With the paper's 1-cycle propagation delay, a flit switched at `t`
//! arrives downstream at `t + 2`.
//!
//! An [`EventWheel`] files items under the cycle they are due instead of
//! under the wire they travel: schedule an item for cycle `t + 1 +
//! latency` and it comes out at exactly the cycle a pipe of that latency
//! would have delivered it, in the order it was scheduled. One wheel can
//! therefore stand in for every pipe of a network at once, and a
//! simulator touches only the cycles that have something due. Because all
//! link latencies are small fixed constants, a ring of slots indexed by
//! the cycle's low bits suffices — no heap, no ordering, O(1) schedule and
//! drain.

use std::collections::VecDeque;
use std::fmt;

/// A FIFO conveyor with fixed latency.
#[derive(Debug, Clone)]
pub struct DelayPipe<T> {
    latency: u64,
    queue: VecDeque<(u64, T)>, // (deliver_at, item)
    last_push: Option<u64>,
}

impl<T> DelayPipe<T> {
    /// Creates a pipe with the given propagation latency in cycles
    /// (0 means delivery at the start of the next cycle).
    #[must_use]
    pub fn new(latency: u64) -> Self {
        DelayPipe {
            latency,
            queue: VecDeque::new(),
            last_push: None,
        }
    }

    /// The propagation latency, in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Pushes an item during cycle `now`; it will be delivered at
    /// `now + 1 + latency`.
    ///
    /// # Panics
    ///
    /// Panics if pushes are not in non-decreasing cycle order (the pipe is
    /// a synchronous wire, not a scheduler).
    pub fn push(&mut self, now: u64, item: T) {
        if let Some(last) = self.last_push {
            assert!(now >= last, "pushes must be in cycle order: {now} < {last}");
        }
        self.last_push = Some(now);
        self.queue.push_back((now + 1 + self.latency, item));
    }

    /// Pops the next item if it has arrived by cycle `now`.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        if self.queue.front().is_some_and(|(at, _)| *at <= now) {
            self.queue.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Drains every item that has arrived by cycle `now`, in FIFO order.
    pub fn drain_ready(&mut self, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.pop_ready(now) {
            out.push(item);
        }
        out
    }

    /// Drains every in-flight item with its delivery cycle, regardless
    /// of the current cycle. The push-order cursor is preserved, so the
    /// pipe keeps accepting pushes in cycle order afterwards.
    pub fn drain_all_into(&mut self, into: &mut Vec<(u64, T)>) {
        into.extend(self.queue.drain(..));
    }

    /// Number of items in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<T> fmt::Display for DelayPipe<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DelayPipe(latency={}, in_flight={})",
            self.latency,
            self.queue.len()
        )
    }
}

/// A bounded calendar queue: schedule items at future cycles, drain the
/// items due at the current cycle in O(1).
///
/// The wheel is a ring of `horizon.next_power_of_two()` slots; an item
/// scheduled for cycle `t` lives in slot `t & mask`, so every schedule
/// must land within `horizon` cycles of the current drain cursor — the
/// natural fit for a synchronous network whose longest wire latency is a
/// small constant. Items due in the same cycle come out in the order they
/// were scheduled. Slot buffers are recycled via [`EventWheel::take_due`]
/// / [`EventWheel::restore`], so steady-state operation performs no
/// allocation.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    slots: Vec<Vec<T>>,
    /// `slots.len() - 1`; the slot count is a power of two.
    mask: u64,
    /// How far ahead a schedule may land (≤ `slots.len()`).
    horizon: u64,
    /// Cycle of the last `take_due`, for schedule-range checking.
    cursor: Option<u64>,
}

impl<T> EventWheel<T> {
    /// Creates a wheel able to schedule up to `horizon ≥ 1` cycles ahead.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    #[must_use]
    pub fn new(horizon: u64) -> Self {
        assert!(horizon >= 1, "the wheel needs at least one slot");
        let slots = usize::try_from(horizon.next_power_of_two()).expect("horizon fits in usize");
        EventWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            mask: slots as u64 - 1,
            horizon,
            cursor: None,
        }
    }

    /// How many cycles ahead the wheel can schedule.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The slot holding cycle `at`.
    #[inline]
    fn slot(&self, at: u64) -> usize {
        (at & self.mask) as usize
    }

    /// Schedules `item` for cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly after the last drained cycle or is
    /// beyond the wheel's horizon (the slot still holds an earlier
    /// cycle). Before the first [`EventWheel::take_due`] the drain cursor
    /// is taken to be the start of time: `at` must lie below the horizon.
    pub fn schedule(&mut self, at: u64, item: T) {
        match self.cursor {
            Some(cursor) => assert!(
                at > cursor && at - cursor <= self.horizon(),
                "schedule({at}) outside ({cursor}, {cursor} + {}]",
                self.horizon()
            ),
            None => assert!(
                at < self.horizon(),
                "schedule({at}) beyond the horizon {} before any drain",
                self.horizon()
            ),
        }
        let idx = self.slot(at);
        self.slots[idx].push(item);
    }

    /// Takes the items due at cycle `now` (possibly empty). Pass the
    /// buffer back through [`EventWheel::restore`] after processing so its
    /// capacity is reused.
    #[must_use]
    pub fn take_due(&mut self, now: u64) -> Vec<T> {
        self.cursor = Some(now);
        let idx = self.slot(now);
        std::mem::take(&mut self.slots[idx])
    }

    /// Returns a drained buffer to the slot it came from, keeping its
    /// allocation for future schedules.
    pub fn restore(&mut self, now: u64, mut buf: Vec<T>) {
        buf.clear();
        let idx = self.slot(now);
        // Keep whichever buffer has more capacity; same-cycle schedules
        // may already have repopulated the slot.
        if self.slots[idx].is_empty() && self.slots[idx].capacity() < buf.capacity() {
            self.slots[idx] = buf;
        }
    }

    /// Total items currently scheduled.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// The earliest cycle with an item scheduled, or `None` if the wheel
    /// is empty. Every pending item lives within `horizon` cycles of the
    /// drain cursor, so one pass over the ring suffices — this is what
    /// lets a quiescent engine ask "when is the next event?" and
    /// fast-forward to it instead of draining empty slots cycle by cycle.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        let base = self.cursor.map_or(0, |c| c + 1);
        (base..base + self.horizon).find(|&at| !self.slots[self.slot(at)].is_empty())
    }

    /// Drains every pending item into `into` as `(due_cycle, item)` pairs,
    /// leaving the wheel empty (cursor and slot capacities intact).
    ///
    /// Each slot holds items for exactly one cycle of the horizon window,
    /// so the due cycle is recoverable from the slot index: after a drain
    /// at `cursor` the slot for offset `dt ∈ [1, horizon]` is
    /// `(cursor + dt) & mask`; before any drain the slot index *is* the
    /// cycle. Items come out in due-cycle order, and in schedule order
    /// within a cycle. This is the migration primitive that lets pending
    /// events be re-scheduled onto a different wheel with the same
    /// cursor.
    pub fn drain_pending_into(&mut self, into: &mut Vec<(u64, T)>) {
        let base = self.cursor.map_or(0, |c| c + 1);
        for at in base..base + self.horizon {
            let idx = self.slot(at);
            for item in self.slots[idx].drain(..) {
                into.push((at, item));
            }
        }
    }

    /// Advances the drain cursor as if [`EventWheel::take_due`] had been
    /// called for every cycle through `now` and found nothing — the
    /// fast-forward primitive for quiescent stretches.
    ///
    /// The caller must know the skipped cycles were empty (i.e. `now` is
    /// below [`EventWheel::next_due`]); this is debug-asserted, because a
    /// violation would silently drop scheduled deliveries.
    pub fn advance_to(&mut self, now: u64) {
        debug_assert!(
            self.next_due().is_none_or(|due| due > now),
            "advance_to({now}) would skip a delivery due at {:?}",
            self.next_due()
        );
        debug_assert!(
            self.cursor.is_none_or(|c| now >= c),
            "advance_to({now}) moves the cursor backwards"
        );
        self.cursor = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_link_delivers_two_cycles_later() {
        let mut pipe = DelayPipe::new(1);
        pipe.push(10, "flit");
        assert_eq!(pipe.pop_ready(10), None);
        assert_eq!(pipe.pop_ready(11), None);
        assert_eq!(pipe.pop_ready(12), Some("flit"));
        assert!(pipe.is_empty());
    }

    #[test]
    fn zero_latency_delivers_next_cycle() {
        let mut pipe = DelayPipe::new(0);
        pipe.push(5, 1u32);
        assert_eq!(pipe.pop_ready(5), None);
        assert_eq!(pipe.pop_ready(6), Some(1));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut pipe = DelayPipe::new(2);
        for (t, x) in [(0u64, 'a'), (1, 'b'), (2, 'c')] {
            pipe.push(t, x);
        }
        assert_eq!(pipe.drain_ready(3), vec!['a']);
        assert_eq!(pipe.drain_ready(5), vec!['b', 'c']);
    }

    #[test]
    fn drain_all_preserves_delivery_cycles() {
        let mut pipe = DelayPipe::new(1);
        pipe.push(3, 'a');
        pipe.push(5, 'b');
        let mut out = Vec::new();
        pipe.drain_all_into(&mut out);
        assert_eq!(out, vec![(5, 'a'), (7, 'b')]);
        assert!(pipe.is_empty());
        pipe.push(5, 'c'); // cycle-order cursor survives the drain
        assert_eq!(pipe.pop_ready(7), Some('c'));
    }

    #[test]
    fn late_pop_still_delivers_everything() {
        let mut pipe = DelayPipe::new(1);
        pipe.push(0, 1);
        pipe.push(1, 2);
        assert_eq!(pipe.drain_ready(100), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "cycle order")]
    fn out_of_order_push_rejected() {
        let mut pipe = DelayPipe::new(1);
        pipe.push(5, ());
        pipe.push(4, ());
    }

    #[test]
    fn wheel_delivers_at_scheduled_cycle() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        w.schedule(2, 20);
        w.schedule(3, 30);
        w.schedule(2, 21);
        assert_eq!(w.pending(), 3);
        let empty = w.take_due(1);
        assert!(empty.is_empty());
        w.restore(1, empty);
        let due = w.take_due(2);
        assert_eq!(due, vec![20, 21]);
        w.restore(2, due);
        assert_eq!(w.take_due(3), vec![30]);
    }

    #[test]
    fn wheel_recycles_buffer_capacity() {
        let mut w: EventWheel<u64> = EventWheel::new(2);
        let b = w.take_due(3);
        w.restore(3, b);
        for x in 0..16 {
            w.schedule(4, x);
        }
        let due = w.take_due(4);
        let cap = due.capacity();
        assert!(cap >= 16);
        w.restore(4, due);
        w.schedule(6, 1); // lands in the same slot (4 & 1 == 6 & 1)
        let again = w.take_due(6);
        assert!(again.capacity() >= cap, "slot buffer was recycled");
    }

    #[test]
    fn wheel_allows_full_horizon_lookahead() {
        let mut w: EventWheel<&str> = EventWheel::new(3);
        let b = w.take_due(10);
        w.restore(10, b);
        w.schedule(13, "edge"); // exactly now + horizon
        let b = w.take_due(11);
        w.restore(11, b);
        let b = w.take_due(12);
        w.restore(12, b);
        assert_eq!(w.take_due(13), vec!["edge"]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wheel_range_is_the_exact_horizon_not_the_slot_count() {
        // Horizon 3 rounds up to 4 slots, but a schedule 4 cycles ahead
        // is still out of range.
        let mut w: EventWheel<()> = EventWheel::new(3);
        assert_eq!(w.horizon(), 3);
        let b = w.take_due(10);
        w.restore(10, b);
        w.schedule(14, ());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wheel_rejects_past_schedules() {
        let mut w: EventWheel<()> = EventWheel::new(4);
        let b = w.take_due(5);
        w.restore(5, b);
        w.schedule(5, ());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wheel_rejects_beyond_horizon() {
        let mut w: EventWheel<()> = EventWheel::new(4);
        let b = w.take_due(5);
        w.restore(5, b);
        w.schedule(10, ());
    }

    #[test]
    fn next_due_reports_earliest_pending_cycle() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        assert_eq!(w.next_due(), None);
        w.schedule(2, 1); // before any drain: slot index == cycle
        assert_eq!(w.next_due(), Some(2));
        let b = w.take_due(2);
        w.restore(2, b);
        assert_eq!(w.next_due(), None);
        w.schedule(5, 2);
        w.schedule(4, 3);
        assert_eq!(w.next_due(), Some(4));
    }

    #[test]
    fn advance_to_skips_empty_cycles() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        let b = w.take_due(0);
        w.restore(0, b);
        w.schedule(3, 7);
        // Cycles 1 and 2 are provably empty; jump the cursor past them.
        w.advance_to(2);
        assert_eq!(w.next_due(), Some(3));
        w.schedule(6, 8); // in range of the advanced cursor
        assert_eq!(w.take_due(3), vec![7]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "would skip a delivery")]
    fn advance_past_a_pending_delivery_is_rejected() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        let b = w.take_due(0);
        w.restore(0, b);
        w.schedule(2, 9);
        w.advance_to(2);
    }

    #[test]
    fn drain_pending_recovers_due_cycles_and_empties_the_wheel() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        let b = w.take_due(10);
        w.restore(10, b);
        w.schedule(11, 1);
        w.schedule(14, 2); // full-horizon lookahead
        w.schedule(11, 3);
        let mut out = Vec::new();
        w.drain_pending_into(&mut out);
        assert_eq!(out, vec![(11, 1), (11, 3), (14, 2)]);
        assert_eq!(w.pending(), 0);
        // Entries can be re-scheduled onto a wheel with the same cursor.
        let mut w2: EventWheel<u32> = EventWheel::new(4);
        let b = w2.take_due(10);
        w2.restore(10, b);
        for (at, x) in out {
            w2.schedule(at, x);
        }
        assert_eq!(w2.take_due(11), vec![1, 3]);
    }

    #[test]
    fn drain_pending_before_first_drain_uses_slot_index_cycles() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        w.schedule(0, 5);
        w.schedule(3, 6);
        let mut out = Vec::new();
        w.drain_pending_into(&mut out);
        assert_eq!(out, vec![(0, 5), (3, 6)]);
    }

    #[test]
    #[should_panic(expected = "before any drain")]
    fn wheel_rejects_beyond_horizon_before_first_drain() {
        // Without this guard a pre-drain schedule would silently wrap
        // into the wrong slot and be delivered a full revolution early.
        let mut w: EventWheel<()> = EventWheel::new(4);
        w.schedule(7, ());
    }
}
