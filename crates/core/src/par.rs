//! Ordered fan-out: the one place product code opens a thread scope.
//!
//! Every parallel step in the product code has the same shape — a
//! slice of independent items, a width, results wanted in item order:
//! the runtime's trial batches (`trial_workers`), campaign grids
//! (`session_parallelism`) and fleet workers, the store's segment
//! replay and export (every core), the bench harness's seeds.
//! [`ordered_map`] is that shape, so none of them spawns threads itself.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `width` scoped workers, never more
/// than there are items, and returns the results in item order. The
/// calling thread is one of the workers, and each worker takes the next
/// unclaimed item, so uneven items balance. With one worker (`width` ≤ 1,
/// or at most one item) it runs inline on the calling thread. A worker's
/// panic is re-raised on the caller.
pub fn ordered_map<T: Sync, R: Send>(
    width: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = width.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier, Mutex};
    use std::thread;

    #[test]
    fn results_come_back_in_item_order_at_any_width() {
        for n in [0usize, 1, 17] {
            let items: Vec<usize> = (0..n).collect();
            let expected: Vec<usize> = items.iter().map(|i| i * 1000).collect();
            for width in [0, 1, 2, 3, 8, 32] {
                assert_eq!(
                    ordered_map(width, &items, |i| i * 1000),
                    expected,
                    "width {width}, {n} items"
                );
            }
        }
    }

    #[test]
    fn items_finished_out_of_order_come_back_in_item_order() {
        // Items 0 and 1 meet at the barrier, one per thread; the helper
        // then waits until the caller has also finished item 2, so the
        // caller's results hold a later item than the helper's.
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let (done, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let out = ordered_map(2, &[0, 1, 2], |&i| {
            if i < 2 {
                barrier.wait();
            }
            if thread::current().id() != caller {
                wait.lock().expect("one helper").recv().expect("caller signals");
            } else if i == 2 {
                done.send(()).expect("helper waits");
            }
            i
        });
        assert_eq!(out, [0, 1, 2]);
    }

    #[test]
    fn width_one_runs_every_item_on_the_calling_thread() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..17).collect();
        let ids = ordered_map(1, &items, |&i| {
            if i == 0 {
                // Time in which a helper, were there one, would claim items.
                thread::sleep(std::time::Duration::from_millis(20));
            }
            thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "helper")]
    fn a_worker_panic_reaches_the_caller() {
        // The barrier holds each of the two items on its own thread, so
        // the panic is the spawned helper's, never the caller's own.
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        ordered_map(2, &[0, 1], |_| {
            barrier.wait();
            assert_eq!(thread::current().id(), caller, "helper");
        });
    }
}
