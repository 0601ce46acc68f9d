//! Scheduler-equivalence property: the calendar-queue [`EventQueue`] pops
//! the exact same `(time, payload)` stream as the reference binary-heap
//! [`HeapQueue`] under randomized push/pop interleavings — including
//! same-tick bursts (the determinism tie-break), pushes landing exactly
//! on bucket boundaries, and far-future times that traverse the overflow
//! heap and migrate back onto the wheel — and the pop-then-re-push of
//! one key that `Simulator::run_hosts_until` does at its horizon.
//!
//! Driven by `ib_runtime::check`: cases generate from a deterministic
//! seed (override with `CHECK_SEED=<u64>` to replay a failure), failing
//! cases shrink before being reported, and counterexamples persist to
//! `tests/corpus/`.

use ib_runtime::check;
use ib_sim::event::{EventQueue, HeapQueue, BUCKET_WIDTH_PS, HORIZON_PS};
use ib_sim::SimTime;

/// One step of an interleaving script.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Schedule at `current floor + delta` (the floor is the last popped
    /// time, so scripts never push into the queue's past).
    Push {
        delta: SimTime,
    },
    Pop,
    /// Pop the minimum and `push_keyed` it straight back under its own
    /// `(time, seq)` key: the stream must not change.
    Requeue,
}

/// Delta families the wheel must handle: same-tick, sub-bucket, exact
/// bucket boundaries, near-horizon, and past-horizon (overflow path).
fn gen_delta(g: &mut check::Gen) -> SimTime {
    match g.u64_in(0..6) {
        0 => 0,
        1 => g.u64_in(1..64),
        2 => BUCKET_WIDTH_PS * g.u64_in(0..3),
        3 => g.u64_in(0..4 * BUCKET_WIDTH_PS),
        4 => HORIZON_PS - g.u64_in(0..2 * BUCKET_WIDTH_PS),
        _ => HORIZON_PS + g.u64_in(0..3 * HORIZON_PS),
    }
}

fn gen_script(g: &mut check::Gen) -> Vec<Op> {
    let len = g.usize_in(1..200);
    (0..len)
        .map(|_| {
            // Push-biased so the queue builds depth worth popping through.
            match g.u64_in(0..9) {
                0..=2 => Op::Pop,
                3 => Op::Requeue,
                _ => Op::Push {
                    delta: gen_delta(g),
                },
            }
        })
        .collect()
}

/// Script shrinking: halves, then drop-one — the standard list shrinker,
/// which preserves op order (the property is order-sensitive).
fn shrink_script(script: &[Op]) -> Vec<Vec<Op>> {
    let mut out = Vec::new();
    let n = script.len();
    if n > 1 {
        out.push(script[..n / 2].to_vec());
        out.push(script[n / 2..].to_vec());
    }
    for i in 0..n.min(32) {
        let mut v = script.to_vec();
        v.remove(i);
        out.push(v);
    }
    out
}

/// The one shape both schedulers expose to the script runner.
trait Queue {
    fn push(&mut self, at: SimTime, payload: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
    fn requeue(&mut self);
}

impl Queue for EventQueue<u64> {
    fn push(&mut self, at: SimTime, payload: u64) {
        EventQueue::push(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
    fn requeue(&mut self) {
        if let Some((key, payload)) = self.pop_keyed() {
            self.push_keyed(key.time, key.seq, payload);
        }
    }
}

impl Queue for HeapQueue<u64> {
    fn push(&mut self, at: SimTime, payload: u64) {
        HeapQueue::push(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapQueue::pop(self)
    }
    fn requeue(&mut self) {
        if let Some((key, payload)) = self.pop_keyed() {
            self.push_keyed(key.time, key.seq, payload);
        }
    }
}

/// Execute `script` against one scheduler; returns the popped
/// `(time, payload)` stream plus a full drain at the end. Payloads are
/// the push counter, so the stream exposes tie-break order, not just
/// times.
fn execute<Q: Queue>(script: &[Op], q: &mut Q) -> Vec<(SimTime, u64)> {
    let mut popped = Vec::new();
    let mut floor: SimTime = 0;
    let mut tag: u64 = 0;
    for op in script {
        match *op {
            Op::Push { delta } => {
                q.push(floor + delta, tag);
                tag += 1;
            }
            Op::Pop => {
                if let Some((t, p)) = q.pop() {
                    floor = t;
                    popped.push((t, p));
                }
            }
            Op::Requeue => q.requeue(),
        }
    }
    while let Some(item) = q.pop() {
        popped.push(item);
    }
    popped
}

/// The equivalence property itself — the contract every figure's
/// byte-identity rests on.
#[test]
fn calendar_queue_matches_heap_reference() {
    check::run(
        "calendar_queue_matches_heap_reference",
        256,
        gen_script,
        |script| shrink_script(script),
        |script| {
            let mut calendar: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let a = execute(script, &mut calendar);
            let b = execute(script, &mut heap);
            assert_eq!(
                a, b,
                "calendar and heap schedulers diverged on the same script"
            );
            assert!(calendar.is_empty() && heap.is_empty());
        },
    );
}

/// Dense same-tick bursts: every event at one of two adjacent times, so
/// the pop stream is decided almost entirely by the insertion-seq
/// tie-break.
#[test]
fn same_tick_bursts_match_heap_reference() {
    check::run(
        "same_tick_bursts_match_heap_reference",
        128,
        |g| {
            let base = g.u64_in(0..2 * HORIZON_PS);
            let len = g.usize_in(1..100);
            (0..len)
                .map(|_| {
                    if g.u64_in(0..4) == 0 {
                        Op::Pop
                    } else {
                        Op::Push {
                            delta: base % 7, // a couple of clustered values
                        }
                    }
                })
                .collect::<Vec<Op>>()
        },
        |script| shrink_script(script),
        |script| {
            let mut calendar: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let a = execute(script, &mut calendar);
            let b = execute(script, &mut heap);
            assert_eq!(a, b, "tie-break order diverged");
        },
    );
}
