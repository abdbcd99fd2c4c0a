//! Counted, not timed: allocation-count gates beside the release timing
//! guards.
//!
//! A timing ratio sees a cost only when it is large against the host's
//! noise; an allocation count sees one per-row or per-key allocation
//! exactly, in debug builds too. This binary installs a counting
//! `#[global_allocator]` over [`System`] that keeps per-thread call and
//! byte counts, runs the same operation at `n` and at `4n` rows through
//! the public entry points (one engine thread, so every allocation of
//! the run is on the calling thread), and holds the difference in
//! allocation calls to a stated constant: buffer doublings grow it by a
//! few calls per doubling, anything per row or per key by thousands.
//!
//! What the gates catch, seeded one at a time into a copy of the engine
//! (debug build, calls at n = 10 000 → 40 000):
//!
//! * a `Vec` per key in `storage::Postings::table`: the join gate reads
//!   10 116 → 40 122;
//! * a boxed row-map key per row in `Interner::try_load_relation`: the
//!   join gate reads 10 116 → 40 122, the copy gate 10 225 → 40 251.
//!
//! What they do not catch: anything that allocates log-many times in
//! the row count — a posting table that counts its keys through an
//! `FxHashMap` grows the map only at each doubling (128 → 136) — nor
//! time spent without allocating (a second pass over the rows). The
//! release timing guards
//! (`storage::tests::bulk_one_column_index_is_one_counting_pass`,
//! `tests/convergence_theorems.rs::edb_load_is_one_cheap_pass`) stay
//! for those.

use datalog_o::core::{parse_program, BoolDatabase, Constant, Database, Program, Relation};
use datalog_o::pops::Trop;
use datalog_o::{engine_eval_interned, EngineOpts, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting allocation calls (`alloc`, `alloc_zeroed`,
/// `realloc`) and requested bytes per thread.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the
        // caller's contract for `new_size` is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocation calls and bytes of this thread while `f` runs. What
/// `f` returns is dropped after the count closes.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let kept = f();
    let counts = (CALLS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes);
    drop(kept);
    counts
}

/// The EDB of both gates: `A` holds the one row `A(0, 0)`, `E` the `n`
/// edges `i → i + 1`, a bulk relation over `n + 1` dense ids.
fn edb(n: i64) -> Database<Trop> {
    let mut db = Database::new();
    let pair = |x: i64, y: i64| (vec![Constant::from(x), y.into()], Trop::finite(1.0));
    db.insert("A", Relation::from_pairs(2, vec![pair(0, 0)]));
    let edges = (0..n).map(|i| pair(i, i + 1));
    db.insert("E", Relation::from_pairs(2, edges));
    db
}

/// Allocation calls of one from-scratch run of `program` over
/// [`edb`]`(n)`, from the classic `Database` in to the interned
/// outcome out.
fn run_calls(program: &Program<Trop>, n: i64) -> u64 {
    let (edb, bools) = (edb(n), BoolDatabase::new());
    let opts = EngineOpts {
        threads: Some(1),
        ..EngineOpts::default()
    };
    let (calls, bytes) = allocations(|| {
        engine_eval_interned(program, &edb, &bools, 100, Strategy::Auto, &opts).expect("compiles")
    });
    eprintln!("n = {n}: {calls} allocation calls, {bytes} bytes");
    calls
}

/// Holds `program`'s allocation calls at `4n` rows to at most `slack`
/// more than at `n`.
fn assert_size_independent(source: &str, slack: u64) {
    let program: Program<Trop> = parse_program(source).expect("parses");
    let n = 10_000;
    let (small, large) = (run_calls(&program, n), run_calls(&program, 4 * n));
    assert!(
        large <= small + slack,
        "`{source}`: {small} allocation calls at n = {n}, {large} at 4n: \
         something allocates per row or per key"
    );
}

/// The EDB load of a bulk relation and the posting table of its column
/// 0, probed by the one `A` row (115 → 121 calls in a debug build).
#[test]
fn a_bulk_load_and_its_posting_table_allocate_independently_of_size() {
    assert_size_independent("J(X, Z) :- A(X, Y) * E(Y, Z).", 32);
}

/// The EDB load and an IDB of `n` rows built from it by one seed round
/// (224 → 250 calls in a debug build: the IDB's columns and row map
/// double log-many times).
#[test]
fn a_copied_relation_allocates_independently_of_size() {
    assert_size_independent("C(X, Y) :- E(X, Y).", 64);
}
