//! Reference check of delivery timing: an [`EventWheel`] whose entries
//! carry their payload must deliver exactly what a set of per-link
//! [`DelayPipe`]s delivers — every item in the same cycle, and in the
//! same per-link order — for random per-link latencies, several links
//! (and several items per link) emitting in one cycle, wheel horizons
//! that are not powers of two, and quiescent stretches skipped with
//! `next_due` / `advance_to`.

use proptest::prelude::*;
use router_core::{DelayPipe, EventWheel};

const LINKS: usize = 6;

/// The earliest cycle any pipe has an item due — what the wheel's
/// `next_due` must report.
fn pipes_next_due(pipes: &[DelayPipe<u32>]) -> Option<u64> {
    let mut in_flight = Vec::new();
    for pipe in pipes {
        pipe.clone().drain_all_into(&mut in_flight);
    }
    in_flight.into_iter().map(|(due, _)| due).min()
}

/// Drains what arrives at `now` from the pipes and from the wheel and
/// asserts both deliveries agree, link by link and in order.
fn deliver(now: u64, pipes: &mut [DelayPipe<u32>], wheel: &mut EventWheel<(usize, u32)>) {
    let mut from_pipes: Vec<Vec<u32>> = vec![Vec::new(); LINKS];
    for (link, pipe) in pipes.iter_mut().enumerate() {
        from_pipes[link] = pipe.drain_ready(now);
    }
    let mut from_wheel: Vec<Vec<u32>> = vec![Vec::new(); LINKS];
    let due = wheel.take_due(now);
    for &(link, item) in &due {
        from_wheel[link].push(item);
    }
    wheel.restore(now, due);
    prop_assert_eq!(from_wheel, from_pipes, "deliveries differ at cycle {}", now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_delivers_like_per_link_pipes(
        latencies in proptest::collection::vec(0u64..5, LINKS),
        slack in 0u64..4,
        cycles in proptest::collection::vec(proptest::collection::vec(0usize..LINKS, 0..4), 0..80)
    ) {
        // The shortest horizon that can hold the longest link, plus
        // some slack: 1..=8 slots, powers of two and not.
        let horizon = 1 + latencies.iter().max().copied().unwrap_or(0) + slack;
        let mut wheel = EventWheel::new(horizon);
        prop_assert_eq!(wheel.horizon(), horizon);
        let mut pipes: Vec<DelayPipe<u32>> =
            latencies.iter().map(|&l| DelayPipe::new(l)).collect();
        let mut next_item = 0u32;
        let mut now = 0u64;
        // An empty step is a quiet stretch: skip to the next cycle with
        // something due, the way an event engine fast-forwards — or, with
        // nothing due, a full horizon ahead. A skipped cycle that had an
        // item due would show up as a pipe delivery the wheel missed.
        // After the last step, keep skipping until drained.
        let steps = cycles.iter().map(Some).chain(std::iter::repeat(None));
        for emitting in steps {
            prop_assert_eq!(wheel.next_due(), pipes_next_due(&pipes));
            if emitting.is_none_or(|e| e.is_empty()) {
                let target = match wheel.next_due() {
                    Some(due) => due,
                    None if emitting.is_none() => break,
                    None => now + horizon,
                };
                prop_assert!(target >= now, "next_due {} is behind cycle {}", target, now);
                if target > now {
                    wheel.advance_to(target - 1);
                    now = target;
                }
            }
            deliver(now, &mut pipes, &mut wheel);
            // Every link listed sends one item this cycle (a link listed
            // twice sends two, in list order).
            for &link in emitting.into_iter().flatten() {
                pipes[link].push(now, next_item);
                wheel.schedule(now + 1 + latencies[link], (link, next_item));
                next_item += 1;
            }
            now += 1;
        }
        prop_assert_eq!(wheel.pending(), 0);
        prop_assert!(pipes.iter().all(DelayPipe::is_empty), "the wheel lost items");
    }
}
