//! Minimal scoped-thread parallelism (no external thread-pool crates),
//! for the two things the engine fans out before a run's first step:
//! the parts of a large EDB relation's load
//! ([`Interner::load_parts`](crate::Interner)) and the per-relation EDB
//! index builds (`Engine::build_edb_indexes`). Both are passes over
//! memory with no shared accumulator behind them — a load part's tail
//! is one probe per distinct constant — which is why they pay where
//! the rounds did not. The fixpoint loops run on the calling thread
//! under every schedule ([`crate`]'s parallelism section has the
//! readings that decided it).
//!
//! [`run_each`] deals owned work items round-robin to
//! `min(threads, items)` buckets, runs the first on the calling thread
//! and each other on a scoped worker. Thread count comes from
//! `DLO_ENGINE_THREADS` (set `1` to load and build sequentially) or
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
    let nbuckets = threads.min(work.len()).max(1);
    let mut buckets: Vec<Vec<(usize, T)>> = (0..nbuckets).map(|_| Vec::new()).collect();
    for (i, w) in work.into_iter().enumerate() {
        buckets[i % nbuckets].push((i, w));
    }
    let run_bucket = |bucket: Vec<(usize, T)>| {
        for (i, w) in bucket {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(w))) {
                return Err((i, payload_message(p)));
            }
        }
        Ok(())
    };
    // Bucket 0 runs on the calling thread, which would only wait
    // otherwise; one bucket (one thread, or one item) spawns nothing.
    let mut buckets = buckets.into_iter();
    let own = buckets.next().expect("at least one bucket");
    let results: Vec<std::thread::Result<Result<(), (usize, String)>>> =
        std::thread::scope(|scope| {
            let run_bucket = &run_bucket;
            let spawned: Vec<_> = buckets
                .map(|b| scope.spawn(move || run_bucket(b)))
                .collect();
            let own = Ok(run_bucket(own));
            std::iter::once(own)
                .chain(spawned.into_iter().map(|h| h.join()))
                .collect()
        });
    let panics = results.into_iter().filter_map(|result| match result {
        Ok(done) => done.err(),
        Err(p) => Some((usize::MAX, payload_message(p))),
    });
    panics
        .min_by_key(|&(i, _)| i)
        .map_or(Ok(()), |(_, msg)| Err(msg))
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
