//! A minimal scoped-thread worker pool.
//!
//! Both the sampling pipeline (one simulation per cluster representative)
//! and the bench harness (one simulation per suite cell) need the same
//! thing: run N independent jobs on however many cores exist, collect
//! results *in input order*, and propagate panics. `std::thread::scope`
//! gives us that without any dependency: workers claim job indices from a
//! shared atomic counter and write results into per-job slots, so the
//! output order is deterministic regardless of which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item of `items` on a scoped worker pool and
/// returns the results in input order. `f` receives `(index, &item)`.
///
/// Spawns `min(available_parallelism, items.len())` workers (at least
/// one); on a single-core host this degrades to an in-order sequential
/// loop with no thread overhead beyond the one spawn. A panic in any job
/// unwinds the caller with that job's payload.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join each worker explicitly. The scope's own join returns once
        // the closures finish, before the threads have exited and handed
        // their malloc arenas back, so threads spawned right afterwards
        // (the next pool, or sim's warm-up lanes) would open new arenas,
        // each keeping its freed memory resident.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items = vec![(); 257];
        let out = parallel_map(&items, |i, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    // The job's own panic reaches the caller, not a generic one.
    #[test]
    #[should_panic(expected = "job failed")]
    fn job_panics_propagate() {
        let items = vec![0u64, 1, 2];
        let _ = parallel_map(&items, |_, &x| {
            if x == 1 {
                panic!("job failed");
            }
            x
        });
    }
}
