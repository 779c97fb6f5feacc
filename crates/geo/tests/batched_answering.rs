//! The batched-answering driver around its fan-out threshold, and the
//! per-process CPU count it sizes against.

use dpgrid_geo::{answer_all_batched, parallelism, Rect, MIN_QUERIES_PER_THREAD};

/// A deterministic answer with non-trivial low bits, so reordering or
/// recomputation would show in a bitwise comparison.
fn answer(q: &Rect) -> f64 {
    (q.x0() * 0.1).sin() * q.area() + q.y1().sqrt()
}

#[test]
fn batched_answers_match_a_sequential_map_around_the_threshold() {
    let min = MIN_QUERIES_PER_THREAD;
    for len in [0, 1, 2 * min - 1, 2 * min, 2 * min + 1] {
        let queries: Vec<Rect> = (0..len)
            .map(|i| {
                let x = i as f64 * 0.37;
                let y = (i % 13) as f64 * 1.1;
                Rect::new(x, y, x + 1.5, y + 0.25 * (1 + i % 5) as f64).unwrap()
            })
            .collect();
        let sequential: Vec<u64> = queries.iter().map(|q| answer(q).to_bits()).collect();
        let batched: Vec<u64> = answer_all_batched(&queries, answer)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(batched, sequential, "batch of {len}");
    }
}

#[test]
fn parallelism_is_the_probe_read_once() {
    // The uncached probe is the reference the cache must reproduce.
    #[allow(clippy::disallowed_methods)]
    let probed = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    assert_eq!(parallelism(), probed);
    let seen: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(parallelism)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(seen.iter().all(|&n| n == probed), "{seen:?} vs {probed}");
}
