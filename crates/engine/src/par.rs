//! Minimal scoped-thread parallelism (no external thread-pool crates),
//! for the one thing the engine fans out: the per-relation EDB index
//! builds before a run's first step (`Engine::build_edb_indexes`). The
//! fixpoint loops run on the calling thread under every schedule
//! ([`crate`]'s parallelism section has the readings that decided it).
//!
//! [`run_each`] deals owned work items round-robin to
//! `min(threads, items)` scoped workers. Thread count comes from
//! `DLO_ENGINE_THREADS` (set `1` to build the indexes sequentially) or
//! `std::thread::available_parallelism`.
//!
//! **Panic containment:** every item runs under
//! [`std::panic::catch_unwind`], on the sequential fallback too, so a
//! panicking item never unwinds across the pool (which would abort the
//! scope and take the process down with it). [`run_each`] returns
//! `Err(message)` carrying the payload of the *lowest-indexed*
//! panicking item — deterministic at any thread count — and the drivers
//! surface it as `EvalError::WorkerPanic`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The worker count the engine will use.
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        if let Ok(v) = std::env::var("DLO_ENGINE_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Renders a caught panic payload (strings pass through; anything else
/// gets a placeholder).
pub(crate) fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over owned work items across `threads` scoped workers.
///
/// The items may hold mutable borrows (the index builds hand each worker
/// `&mut ColumnRel`s), so work cannot be handed out through a shared
/// counter; items are dealt round-robin into per-worker buckets instead,
/// which balances well when item costs are not front-loaded. Results are
/// discarded — use this for effects on the items themselves, and only
/// where those effects are order-independent (index builds are: each
/// item owns its relation). A panicking item is contained (module docs);
/// the message of the lowest-numbered panicking item is returned.
pub fn run_each<T, F>(work: Vec<T>, threads: usize, f: F) -> Result<(), String>
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = work.len();
    if threads <= 1 || n <= 1 {
        for w in work {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(w))) {
                return Err(payload_message(p));
            }
        }
        return Ok(());
    }
    let nbuckets = threads.min(n);
    let mut buckets: Vec<Vec<(usize, T)>> = (0..nbuckets).map(|_| Vec::new()).collect();
    for (i, w) in work.into_iter().enumerate() {
        buckets[i % nbuckets].push((i, w));
    }
    let mut first_panic: Option<(usize, String)> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                let f = &f;
                scope.spawn(move || {
                    for (i, w) in bucket {
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(w))) {
                            return Err((i, payload_message(p)));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err((i, msg))) => {
                    if first_panic.as_ref().is_none_or(|(fi, _)| i < *fi) {
                        first_panic = Some((i, msg));
                    }
                }
                Err(p) => {
                    let msg = payload_message(p);
                    if first_panic.is_none() {
                        first_panic = Some((usize::MAX, msg));
                    }
                }
            }
        }
    });
    match first_panic {
        Some((_, msg)) => Err(msg),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_each_visits_every_item_with_mutable_borrows() {
        let mut cells = vec![0u32; 17];
        let work: Vec<(usize, &mut u32)> = cells.iter_mut().enumerate().collect();
        run_each(work, 4, |(i, cell)| *cell = i as u32 + 1).expect("no panics");
        assert_eq!(cells, (1..=17).collect::<Vec<_>>());
        // Sequential fallback takes the same path.
        let mut one = vec![0u32];
        run_each(one.iter_mut().collect::<Vec<_>>(), 8, |c| *c = 9).expect("no panics");
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn panicking_item_in_run_each_is_contained() {
        for threads in [1, 3, 6] {
            let err = run_each((0..20).collect::<Vec<_>>(), threads, |i| {
                if i >= 11 {
                    panic!("item {i} exploded");
                }
            })
            .expect_err("must contain the panic");
            assert_eq!(err, "item 11 exploded", "threads={threads}");
        }
    }
}
