//! A batch too small to fan out must not count as a fan-out.
//!
//! `answer_all_batched` divides the CPU budget by the number of
//! fan-outs currently inside their thread scope. A sub-threshold batch
//! runs inline, so a wide batch started from inside it must still get
//! the whole machine. This is its own test binary because the fan-out
//! count is process-wide: another test's wide batch running at the same
//! time would legitimately halve the width measured here.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use dpgrid_geo::{answer_all_batched, parallelism, Rect, MIN_QUERIES_PER_THREAD};

#[test]
fn wide_batch_inside_an_inline_batch_gets_every_cpu() {
    if parallelism() < 2 {
        eprintln!("skipped: one CPU, no fan-out to observe");
        return;
    }
    let rect = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
    let wide = vec![rect; 4 * MIN_QUERIES_PER_THREAD];
    let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let outer = answer_all_batched(&[rect], |_| {
        let inner = answer_all_batched(&wide, |_| {
            threads.lock().unwrap().insert(std::thread::current().id());
            1.0
        });
        inner.iter().sum()
    });
    assert_eq!(outer, vec![wide.len() as f64]);
    assert_eq!(
        threads.into_inner().unwrap().len(),
        parallelism().min(4),
        "the inline outer batch must not take a share of the CPUs"
    );
}
