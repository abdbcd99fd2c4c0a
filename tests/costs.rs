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
//!   join gate reads 10 116 → 40 122, the copy gate 10 225 → 40 251;
//! * a delete that re-lays the relation around the row it loses, which
//!   every non-tail delete did before a row at `0` stayed where it
//!   stands: the delete gate reads 20 117 → 80 121;
//! * a projection boxed per row in the hash-index build: the hash-index
//!   gate reads 20 113 → 80 121.
//!
//! Two gates count bytes instead of calls, for what allocates log-many
//! times in the row count but more bytes per row than it should:
//!
//! * a prefix probe of a loaded arity-4 relation may allocate nothing
//!   per row beyond the load's own columns. A counting sort of that
//!   relation (a key copy and a row-id vector, which every such probe
//!   paid before a loaded relation became its own run) reads 485 563 →
//!   1 805 563 bytes against a bound of 1 221 947;
//! * the load of [`edb`] and `E`'s posting table are held to their
//!   measured bytes per row. A table that counts its keys through an
//!   `FxHashMap` grows the map only at each doubling (the join gate
//!   reads 127 → 135 calls) but reads 2 155 554 → 8 577 250 bytes here,
//!   against a bound of 7 771 090.
//!
//! Two more gates hold a converged SSSP run on the same path to no
//! allocation per step — per bucket of the priority frontier, per round
//! of the semi-naïve loop — so one more heap buffer per plan run trips
//! both (seeded at the top of `exec::run_plan` when the rates were one
//! and seven calls per step: priority 4 196 → 16 211 calls at n = 2 000
//! → 8 000, semi-naïve 16 186 → 64 199).
//!
//! What they do not catch: time spent without allocating (a second pass
//! over the rows). The release timing guards
//! (`storage::tests::bulk_one_column_index_is_one_counting_pass`,
//! `tests/convergence_theorems.rs::edb_load_is_one_cheap_pass`) stay
//! for those.

use datalog_o::core::{
    parse_program, BoolDatabase, Constant, Database, FactDelete, FactInsert, Program, Relation,
};
use datalog_o::engine::PLAN_CLOCK_PERIOD;
use datalog_o::pops::Trop;
use datalog_o::{
    engine_eval_interned, EngineOpts, EvalStats, Materialization, Schedule, SemiNaive, Strategy,
};
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

/// This thread's minor page faults so far (`minflt` of
/// `/proc/thread-self/stat`), where the host has that file. Reported,
/// never gated: how often the heap touches fresh pages is glibc's and
/// the kernel's to decide.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // After the parenthesised command name: state, ppid, pgrp,
    // session, tty_nr, tpgid, flags, minflt.
    let fields = stat.rsplit_once(')')?.1;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// The allocation calls and bytes of this thread while `f` runs, and
/// the line that reports them with the minor page faults beside. What
/// `f` returns is dropped after the count closes.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, String) {
    let faults = minor_faults();
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let kept = f();
    let counts = (CALLS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes);
    let faults = match (faults, minor_faults()) {
        (Some(before), Some(after)) => format!("{} minor page faults", after - before),
        _ => "minor page faults not readable".to_string(),
    };
    drop(kept);
    let line = format!(
        "{} allocation calls, {} bytes, {faults}",
        counts.0, counts.1
    );
    (counts.0, counts.1, line)
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

/// The EDB of the sorted-run gates: `S` holds the one row
/// `S(0, 0, 0)`, `P` the one row `P(0, 0)`, and `F` the `n` rows
/// `(i / 4096, i / 256 % 16, i / 16 % 16, i % 16)` — a bulk arity-4
/// relation over at most 16 integers at any `n` below 65 536, so the
/// interner does not grow with `n`, and from `n` = 4 096 on neither do
/// the rows a probe of `(A, B, C) = (0, 0, 0)` or of `(A, C) = (0, 0)`
/// matches.
fn wide_edb(n: i64) -> Database<Trop> {
    let mut db = Database::new();
    let ints = |row: &[i64]| row.iter().map(|&c| Constant::from(c)).collect::<Vec<_>>();
    db.insert(
        "S",
        Relation::from_pairs(3, [(ints(&[0, 0, 0]), Trop::finite(1.0))]),
    );
    db.insert(
        "P",
        Relation::from_pairs(2, [(ints(&[0, 0]), Trop::finite(1.0))]),
    );
    let rows = (0..n).map(|i| {
        let row = ints(&[i / 4096, i / 256 % 16, i / 16 % 16, i % 16]);
        (row, Trop::finite((1 + i % 9) as f64))
    });
    db.insert("F", Relation::from_pairs(4, rows));
    db
}

/// Allocation calls and bytes of one from-scratch run of `program`
/// under `schedule` over `edb(n)`, from the classic `Database` in to
/// the interned outcome out.
fn run_counts<S: Schedule<Trop>>(
    program: &Program<Trop>,
    schedule: S,
    edb: fn(i64) -> Database<Trop>,
    n: i64,
) -> (u64, u64) {
    run_counts_at(program, schedule, edb, n, 1)
}

/// [`run_counts`] at `threads` engine threads: what is counted is the
/// calling thread's share of the run.
fn run_counts_at<S: Schedule<Trop>>(
    program: &Program<Trop>,
    schedule: S,
    edb: fn(i64) -> Database<Trop>,
    n: i64,
    threads: usize,
) -> (u64, u64) {
    let (edb, bools) = (edb(n), BoolDatabase::new());
    let opts = EngineOpts {
        threads: Some(threads),
        ..EngineOpts::default()
    };
    let (calls, bytes, line) = allocations(|| {
        engine_eval_interned(program, &edb, &bools, 1 << 20, schedule, &opts).expect("compiles")
    });
    eprintln!("n = {n}: {line}");
    (calls, bytes)
}

/// `program`'s allocation counts under `schedule` over `edb(n)` and
/// over `edb(4n)`.
fn counts_at_n_and_4n<S: Schedule<Trop>>(
    source: &str,
    schedule: S,
    edb: fn(i64) -> Database<Trop>,
    n: i64,
) -> [(u64, u64); 2] {
    let program: Program<Trop> = parse_program(source).expect("parses");
    [n, 4 * n].map(|n| run_counts(&program, schedule, edb, n))
}

/// Holds `program`'s allocation calls under `schedule` over `edb(4n)`
/// to at most `per_row` more per added row, plus `slack`, than over
/// `edb(n)`.
fn assert_calls<S: Schedule<Trop>>(
    source: &str,
    schedule: S,
    edb: fn(i64) -> Database<Trop>,
    (n, per_row, slack): (i64, u64, u64),
) {
    let [(small, _), (large, _)] = counts_at_n_and_4n(source, schedule, edb, n);
    let bound = small + 3 * n as u64 * per_row + slack;
    assert!(
        large <= bound,
        "`{source}`: {small} allocation calls at n = {n}, {large} at 4n, more than {bound}: \
         something allocates more per row or per step than it did"
    );
}

/// [`assert_calls`] over [`edb`] at no calls per row: buffer doublings
/// only.
fn assert_size_independent(source: &str, slack: u64) {
    assert_calls(source, Strategy::Auto, edb, (10_000, 0, slack));
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

/// Ex. 4.1's single-source distances on [`edb`]`(n)`'s path: `n + 1`
/// rows of `L`, each settled by its own step — one one-row bucket of the
/// priority frontier, one round of the semi-naïve loop.
const SSSP: &str = "L(X) :- 1 | X = 0.\nL(X) :- L(Z) * E(Z, X).";

/// A converged priority run allocates nothing per bucket (192 → 207
/// calls at n = 2 000 → 8 000 in a debug build: the state's columns and
/// row map doubling, and the queue's B-tree nodes). A one-row bucket
/// holds its entry inline (`worklist.rs`, `Bucket`); the `Vec` each
/// bucket made before read 2 193 → 8 208. The gate is 0 calls per
/// bucket plus a slack of 64 for buffer doublings, so anything that
/// allocates once per bucket or per plan run (a bucket runs its plans
/// once) trips it.
#[test]
fn a_priority_run_allocates_nothing_per_bucket() {
    assert_calls(SSSP, Strategy::Priority, edb, (2_000, 0, 64));
}

/// A converged semi-naïve run allocates nothing per round (182 → 195
/// calls at n = 2 000 → 8 000 in a debug build): a round's accumulators,
/// fresh-key buffers and sort buffer, and the Δ relations the next round
/// reads, are the run's, cleared and swapped between rounds
/// (`driver::Run`). Rebuilding them per round read seven calls a round
/// (14 183 → 56 196). Gate: 0 calls per round plus a slack of 64, so one
/// more allocation per round or per plan run (two plans fire per round)
/// trips it.
#[test]
fn a_semi_naive_run_allocates_nothing_per_round() {
    assert_calls(SSSP, SemiNaive, edb, (2_000, 0, 64));
}

/// The plan clock on [`SSSP`]'s one-row steps is a sample: every plan
/// run is counted, and each plan times its first run and one in
/// [`PLAN_CLOCK_PERIOD`] after — a count, so the gate is exact, in debug
/// builds too. A clock read per run would read `timed_runs` = `runs`.
#[test]
fn one_row_steps_time_one_plan_run_in_n() {
    let program: Program<Trop> = parse_program(SSSP).expect("parses");
    let (edb, bools) = (edb(2_000), BoolDatabase::new());
    let opts = EngineOpts::default();
    let check = |stats: &EvalStats, leg: &str| {
        let runs: u64 = stats.rules.iter().map(|r| r.runs).sum();
        let timed: u64 = stats.rules.iter().map(|r| r.timed_runs).sum();
        let bound = runs.div_ceil(PLAN_CLOCK_PERIOD) + stats.rules.len() as u64;
        assert!(
            runs > 2_000,
            "{leg}: {runs} plan runs, one or more per step"
        );
        assert!(
            timed <= bound,
            "{leg}: {timed} of {runs} plan runs timed, more than {bound}"
        );
    };
    let priority = engine_eval_interned(&program, &edb, &bools, 1 << 20, Strategy::Priority, &opts);
    check(priority.expect("compiles").stats(), "priority");
    let rounds = engine_eval_interned(&program, &edb, &bools, 1 << 20, SemiNaive, &opts);
    check(rounds.expect("compiles").stats(), "semi-naïve");
}

/// The bytes of the load of [`edb`]`(n)` and of `E`'s posting table,
/// at n = 10 000 and 40 000 rows: the run at `4n` may allocate at most
/// [`LOAD_AND_TABLE_BYTES_PER_ROW`] more per added row, plus a slack.
/// The rate is measured, not derived: each row of `E` brings a new
/// integer constant, so it is mostly the interner's (its maps and
/// tables growing by doubling, every reallocation counted at its new
/// size), then `E`'s two id columns and values, then the table's offset
/// and row id. A posting table that counts its keys through an
/// `FxHashMap` allocates only log-many times, so the call gates above
/// miss it; its ≈ 30 bytes a row trip this one by ≈ 0.8 MB (the
/// module docs have the reading).
#[test]
fn a_bulk_load_and_its_posting_table_hold_their_bytes_per_row() {
    const SLACK: u64 = 64 << 10;
    let source = "J(X, Z) :- A(X, Y) * E(Y, Z).";
    let n = 10_000;
    let [(_, small), (_, large)] = counts_at_n_and_4n(source, Strategy::Auto, edb, n);
    let bound = small + 3 * n as u64 * LOAD_AND_TABLE_BYTES_PER_ROW + SLACK;
    assert!(
        large <= bound,
        "`{source}`: {small} bytes at n = {n}, {large} at 4n, more than {bound}: \
         the load or E's posting table allocates more per row than it did"
    );
}

/// What [`a_bulk_load_and_its_posting_table_hold_their_bytes_per_row`]
/// measures per row of `E`, rounded up.
const LOAD_AND_TABLE_BYTES_PER_ROW: u64 = 185;

/// A one-edge insert into a standing [`SSSP`] handle over [`edb`]`(n)`
/// costs its cone, not the relation: the shortcut `0 → n − 1` improves
/// `L(n − 1)` alone (and re-derives `L(n)` at no gain), at every `n`.
/// The handle first takes the shortcut `0 → n`, whose insert is the
/// first append to the bulk `E` and re-hashes it once; the second
/// insert is the one counted, at n = 10 000 and 40 000, and it may
/// allocate at most a constant more calls at `4n`.
#[test]
fn a_one_edge_insert_allocates_for_its_cone() {
    const SLACK: u64 = 16;
    let program: Program<Trop> = parse_program(SSSP).expect("parses");
    let bools = BoolDatabase::new();
    let opts = EngineOpts {
        threads: Some(1),
        ..EngineOpts::default()
    };
    let shortcut = |to: i64| {
        let edge = vec![Constant::from(0), to.into()];
        [FactInsert::new("E", edge, Trop::finite(1.0))]
    };
    let [small, large] = [10_000, 40_000].map(|n: i64| {
        let mut handle =
            Materialization::new(&program, &edb(n), &bools, 1 << 20, Strategy::Auto, &opts)
                .expect("builds");
        handle.insert(&shortcut(n)).expect("inserts");
        let (calls, _, line) = allocations(|| {
            let stats = handle.insert(&shortcut(n - 1)).expect("inserts");
            assert_eq!(stats.counters.rows_improved, 1, "the cone is L(n - 1)");
        });
        eprintln!("second insert at n = {n}: {line}");
        calls
    });
    assert!(
        large <= small + SLACK,
        "a one-edge insert: {small} allocation calls at n = 10 000, {large} at 40 000, \
         more than {SLACK} more: something in the insert allocates per row of the relation"
    );
}

/// A one-edge delete from a standing [`SSSP`] handle over [`edb`]`(n)`
/// costs its cone, not the relation. The handle first takes the
/// shortcut `0 → n − 1`, the first append to the bulk `E`, which
/// re-hashes it once; the loaded edge `n − 1 → n` then lies before the
/// shortcut in `E`, and its cone is `L(n)` alone, which no other path
/// reaches, so the delete leaves both rows at `0` where they stand. At
/// n = 10 000 and 40 000 the delete may allocate at most a constant more
/// calls and bytes at `4n`. A delete that re-lays `E` around its lost
/// row, as deletes did before a row at `0` stayed in place, reads
/// 20 117 → 80 121 calls and 611 293 → 2 424 157 bytes here (debug
/// build); the delete that leaves it in place reads 90 calls and 7 029
/// bytes at either size.
#[test]
fn a_one_edge_delete_allocates_for_its_cone() {
    const CALL_SLACK: u64 = 16;
    const BYTE_SLACK: u64 = 4 << 10;
    let program: Program<Trop> = parse_program(SSSP).expect("parses");
    let bools = BoolDatabase::new();
    let opts = EngineOpts {
        threads: Some(1),
        ..EngineOpts::default()
    };
    let [small, large] = [10_000, 40_000].map(|n: i64| {
        let mut handle =
            Materialization::new(&program, &edb(n), &bools, 1 << 20, Strategy::Auto, &opts)
                .expect("builds");
        let shortcut = vec![Constant::from(0), (n - 1).into()];
        let insert = [FactInsert::new("E", shortcut, Trop::finite(1.0))];
        handle.insert(&insert).expect("inserts");
        let last = [FactDelete::new("E", vec![(n - 1).into(), n.into()])];
        let (calls, bytes, line) = allocations(|| {
            let stats = handle.delete(&last).expect("deletes");
            assert_eq!(stats.counters.cone_rows, 1, "the cone is L(n)");
        });
        eprintln!("delete at n = {n}: {line}");
        (calls, bytes)
    });
    assert!(
        large.0 <= small.0 + CALL_SLACK && large.1 <= small.1 + BYTE_SLACK,
        "a one-edge delete: {small:?} allocation (calls, bytes) at n = 10 000, {large:?} at \
         40 000, more than ({CALL_SLACK}, {BYTE_SLACK}) more: something in the delete allocates \
         per row of the relation"
    );
}

/// One hash-index build over a bulk relation: `E`'s two-column mask,
/// which the one `A` row probes. A bulk relation's one-column masks get
/// posting tables; a two-column mask gets the hash index, whose posting
/// lists are one `Vec` per key, and each of `E`'s rows is its own key.
/// So the run at `4n` may allocate one call more per added row than at
/// `n`, plus a slack for doublings: beyond its posting lists the build
/// allocates independently of size (10 113 → 40 121 calls in a debug
/// build, 8 more than the `n` lists). A projection boxed per row
/// instead of written into the index's scratch buffer reads one call
/// more per row and trips it (20 113 → 80 121, against a bound of
/// 50 177).
#[test]
fn a_hash_index_build_allocates_one_posting_list_per_key() {
    assert_calls(
        "J(X, Y) :- A(X, Y) * E(X, Y).",
        Strategy::Auto,
        edb,
        (10_000, 1, 64),
    );
}

/// A probe of a loaded wide relation through a prefix of its columns
/// searches the rows as they lie: the run allocates no byte per row,
/// so over [`wide_edb`] the whole run at `4n` rows of `F` may allocate
/// no more per added row than the load's own columns — four `u32` ids
/// and one value — plus a constant for buffers that do not grow with
/// `n`. A counting sort of `F` (a key copy and a row-id vector, ≈ 20
/// bytes a row) breaks it by ≈ 600 000 bytes at n = 10 000.
#[test]
fn a_prefix_probe_of_a_loaded_relation_allocates_no_bytes_per_row() {
    const SLACK: u64 = 16 << 10;
    let source = "Out(A, D) :- S(A, B, C) * F(A, B, C, D).";
    let n = 10_000;
    let [(_, small), (_, large)] = counts_at_n_and_4n(source, Strategy::Auto, wide_edb, n);
    let columns = (4 * std::mem::size_of::<u32>() + std::mem::size_of::<Trop>()) as u64;
    let bound = small + 3 * n as u64 * columns + SLACK;
    assert!(
        large <= bound,
        "`{source}`: {small} bytes at n = {n}, {large} at 4n, more than {bound}: \
         something beside the load allocates per row of F"
    );
}

/// A parted load: at two engine threads, `F` of [`wide_edb`] at 40 000
/// and 64 000 rows — both above two parts of the load's minimum part
/// size — is loaded in two parts. Part 0 runs on the calling thread,
/// which is what is counted, through the code every part runs, and the
/// merge tail runs there too; its calls may not grow with the rows. A
/// part that collected its own columns and concatenated them would add
/// its buffers' doublings; one that allocated per row, thousands.
#[test]
fn a_parted_load_allocates_independently_of_size() {
    let program = parse_program("Out(A, D) :- S(A, B, C) * F(A, B, C, D).").expect("parses");
    let [small, large] =
        [40_000, 64_000].map(|n| run_counts_at(&program, Strategy::Auto, wide_edb, n, 2).0);
    assert!(
        large <= small + 8,
        "a parted load allocated {small} calls at 40 000 rows, {large} at 64 000: \
         a part allocates with its rows"
    );
}

/// A probe through a mask that is no prefix of `F`'s columns gets a
/// counting sort of `F` (`arrange::radix_order`): its buffers grow with
/// the rows, but their number does not.
#[test]
fn a_counting_sort_of_a_wide_relation_allocates_independently_of_size() {
    let source = "Out(A, D) :- P(A, C) * F(A, B, C, D).";
    assert_calls(source, Strategy::Auto, wide_edb, (10_000, 0, 32));
}

/// A decomposable program over [`edb`]`(n)`: `T` splits by its column
/// 0, and its seed lands all `n` edges — past the engine's minimum, so
/// the rest of the loop runs in shards — while the Δ round derives
/// nothing (no edge enters `A`'s node 0).
const SHARDED: &str = "T(X, Y) :- E(X, Y) + T(X, Z) * A(Z, Y).";

/// The split of a seeded state into shards and the merge of their
/// relations, markings and rows allocate per shard and per predicate,
/// not per row: at one engine thread, where every shard runs on the
/// calling thread, a run in shards at n = 10 000 and at 40 000 differs
/// by buffer doublings only, under the semi-naïve rounds and under the
/// priority frontier. A route, marking or buffer per row reads ≈ 30 000
/// calls more; the gate is a slack of 64. The Δ plan running once per
/// shard shows the split happened.
#[test]
fn a_split_and_its_merge_allocate_independently_of_size() {
    fn check<S: Schedule<Trop>>(schedule: S) {
        let program: Program<Trop> = parse_program(SHARDED).expect("parses");
        let [(small, _), (large, _)] =
            [10_000, 40_000].map(|n| run_counts(&program, schedule, edb, n));
        let bound = small + 64;
        assert!(
            large <= bound,
            "{small} allocation calls at n = 10 000, {large} at 40 000, more than {bound}: \
             the split or the merge allocates per row"
        );
        let opts = EngineOpts {
            threads: Some(1),
            ..EngineOpts::default()
        };
        let out = engine_eval_interned(
            &program,
            &edb(10_000),
            &BoolDatabase::new(),
            1 << 20,
            schedule,
            &opts,
        )
        .expect("compiles");
        let delta_runs: u64 = out
            .stats()
            .rules
            .iter()
            .filter(|r| r.kind == "delta")
            .map(|r| r.runs)
            .sum();
        assert!(
            delta_runs > 1,
            "the Δ plan ran once: no split ({delta_runs} runs)"
        );
    }
    check(SemiNaive);
    check(Strategy::Priority);
}
