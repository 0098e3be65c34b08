use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry in the future-event list.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    /// Tie-breaker preserving schedule order for simultaneous events.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are never NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered future-event list for discrete-event simulation.
///
/// Events pop in non-decreasing time order; ties pop in scheduling order.
/// The queue also tracks the simulation clock: popping an event advances
/// [`EventQueue::now`] to its timestamp.
///
/// # Examples
///
/// ```
/// use uavail_sim::EventQueue;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Arrival, Departure }
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, Ev::Departure);
/// q.schedule(1.0, Ev::Arrival);
/// assert_eq!(q.pop(), Some((1.0, Ev::Arrival)));
/// assert_eq!(q.now(), 1.0);
/// assert_eq!(q.pop(), Some((2.0, Ev::Departure)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: f64,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            next_seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current clock.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedules `event` at `now() + delay`.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative");
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Drops every pending event (the clock is unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn clock_advances_and_relative_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "x");
        q.pop();
        assert_eq!(q.now(), 5.0);
        q.schedule_in(2.5, "y");
        assert_eq!(q.pop(), Some((7.5, "y")));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.pop();
        q.schedule(9.0, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), 1.0);
    }
}
