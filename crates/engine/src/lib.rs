//! # dlo-engine — an interned, indexed datalog° engine
//!
//! The production execution backend for datalog° over naturally ordered
//! POPS, justified by Theorem 6.5 of *Convergence of Datalog over (Pre-)
//! Semirings* (PODS 2022). Where the grounded reference
//! (`dlo_core::eval`) expands the program into one polynomial per
//! ground atom over `Constant`s, this crate compiles each program once
//! and runs it on interned, columnar state:
//!
//! * [`intern`] — constants become `u32`s; rows are flat `Vec<u32>`
//!   slices, so join keys hash and compare without touching a single
//!   `Arc<str>`; the EDB is loaded in one pass that interns while it
//!   assembles the columns;
//! * [`storage`] — relations carry lazily built **hash-prefix indexes**
//!   per (relation, bound-column-set), maintained incrementally as the
//!   monotone `new` state grows; a bulk-loaded EDB relation wider than
//!   a packed key (arity > 2) is probed through one **sorted run**
//!   ([`arrange`]) instead, for as long as nothing is appended to it.
//!   The full-key row map every merge goes through is a hash map of
//!   packed keys, or — for arity ≤ 2 over ids dense enough, by one
//!   rule — a **direct-addressed slot table**;
//! * [`plan`] — a **rule compiler** greedily orders each sum-product's
//!   atoms by bound-variable coverage and resolves every argument to a
//!   column operation (probe / bind / check) at compile time: a seed
//!   plan per sum-product and **one Δ family** (Theorem 6.5's splits)
//!   that the rounds, the marking pass and the frontier all fire;
//! * [`exec`] — the join executor, including the `changed`-map trick
//!   that serves `J(t)` and `J(t-1)` from one physical relation;
//! * [`driver`] — naïve and **semi-naïve** round loops (prefix-new /
//!   Δ / suffix-old per Theorem 6.5) over one plan runner that every
//!   schedule shares, `⊕`-merging deterministically into packed-`u64`
//!   head accumulators for arities ≤ 2;
//! * [`worklist`] — the **priority frontier**: bucketed best-first
//!   scheduling, per-row change propagation instead of global
//!   iterations — the same Δ family with no round boundary (`changed`
//!   empty: `Old` reads as `New`);
//! * [`query`] — **demand-driven evaluation**: a `?- T("a", Y).` goal
//!   is magic-set rewritten (`dlo_core::demand`) and evaluated by any
//!   of the loops, with the frontier seeded from the query constants;
//! * [`incremental`] — **incremental maintenance**: a long-lived
//!   [`Materialization`] absorbs EDB edits — `⊕`-merge inserts by one
//!   variant per edited EDB occurrence, deletes by dioid-valued
//!   delete–rederive —
//!   without re-running the fixpoint from scratch, and answers queries
//!   by reading the fixpoint it holds;
//! * [`output`] — **decode-free result handles**
//!   ([`InternedOutput`]/[`InternedOutcome`]): the fixpoint stays
//!   interned and `Database` materialization is deferred until asked
//!   for;
//! * [`hash`] — the deterministic fast hasher behind every hot map.
//!
//! ## One way in: two entry points and a schedule argument
//!
//! There is one object to compute — the least fixpoint of the
//! immediate-consequence operator — and two functions that compute
//! it, differing only in *what* is asked; both take the EDB as a
//! classic `Database`:
//!
//! | | classic `Database` EDB |
//! |---|---|
//! | full fixpoint | [`engine_eval_interned`] |
//! | `?-` query (magic sets) | [`engine_query_eval_with_opts`] |
//!
//! Both return interned output (`materialize()` decodes on demand)
//! and, on failure, the one abort type: a boxed [`AbortedEval`] with the
//! partial result attached. *How* the fixpoint is iterated is the
//! [`Schedule`] argument — a value, not a function-name suffix — and
//! which schedules are *sound* is a property of the POPS, expressed as
//! `dlo_pops` trait bounds and law-gated by `dlo_pops::checker`:
//!
//! | schedule | argument | requires | sound because |
//! |---|---|---|---|
//! | naïve | [`Naive`] | `NaturallyOrdered` | Algorithm 1 (monotone ICO iteration) |
//! | semi-naïve | [`SemiNaive`] (or [`Strategy::SemiNaive`], or [`Strategy::Worklist`], another name for it) | `+ CompleteDistributiveDioid` | Theorem 6.5 (`⊖`-differentials) |
//! | priority frontier | [`Strategy::Priority`] / [`Strategy::Auto`] | `+ Absorptive + TotallyOrderedDioid` (offered through [`Strategy`], see below) | Cor. 5.19: over a 0-stable (absorptive, `x ⊕ 1 = 1`) semiring each fact strictly improves finitely often, and absorption makes `⊗` non-improving (`x ⊗ y ⊑ x`), so with a total order the ⊑-greatest pending fact can never be improved again: popped ⇒ settled (Dijkstra) |
//!
//! The gate is in the types: [`Schedule`] is sealed, [`SemiNaive`]
//! implements it only over complete distributive dioids and
//! [`Strategy`] only over totally ordered absorptive ones (every
//! absorptive POPS in `dlo_pops` — `Trop`, `MinNat`, `MaxMin`, `𝔹` —
//! is also totally ordered and a complete distributive dioid, so
//! [`Strategy`] offers the semi-naïve rounds too). An unsound pair is a
//! compile error, never
//! a runtime "unsupported strategy":
//!
//! ```compile_fail
//! use dlo_core::{BoolDatabase, Database, Program};
//! use dlo_engine::{engine_eval_interned, EngineOpts, SemiNaive};
//! use dlo_pops::NNReal;
//! // ℝ₊ has no `⊖`: the semi-naïve schedule does not exist for it.
//! let p = Program::<NNReal>::new();
//! let _ = engine_eval_interned(
//!     &p, &Database::new(), &BoolDatabase::new(), 10, SemiNaive, &EngineOpts::default());
//! ```
//!
//! ```compile_fail
//! use dlo_core::{BoolDatabase, Database, Program};
//! use dlo_engine::{engine_eval_interned, EngineOpts, Strategy};
//! use dlo_pops::NNReal;
//! // …and it is neither absorptive nor totally ordered: no frontier.
//! let p = Program::<NNReal>::new();
//! let _ = engine_eval_interned(
//!     &p, &Database::new(), &BoolDatabase::new(), 10, Strategy::Priority, &EngineOpts::default());
//! ```
//!
//! (The same call with [`Naive`] compiles — `tests/backend_matrix.rs`
//! runs company control over `NNReal` that way.)
//!
//! The practical selection guide:
//!
//! * **Know the query? Use query-seeded evaluation first** —
//!   [`engine_query_eval_with_opts`]. The magic-set rewrite is
//!   orthogonal to the schedule: it shrinks *what* is computed, the
//!   schedule decides *how*. A single-source question against the all-pairs program is
//!   two orders of magnitude cheaper than the full priority frontier
//!   (the `point-query` workload of `dlo_benchmark` holds the line).
//! * **Full fixpoint, totally ordered absorptive dioid** (`Trop`,
//!   `MinNat`, `MaxMin`, `𝔹`): the **priority frontier** (what
//!   [`Strategy::Auto`] picks) — settled-on-pop beats rounds whenever
//!   facts would re-improve (gradient SSSP: Θ(n) vs Θ(n²) — 170× at
//!   2000 nodes, 830× at 6000).
//! * **Complete distributive dioid without absorption** (`Nat`,
//!   `MaxPlus`): [`SemiNaive`] — `⊖`-differentials need no stability.
//! * **Naturally ordered only** (`ℝ₊`, `TropP`): [`Naive`] is all that
//!   is licensed (no `⊖`) — and the query entry points still apply
//!   demand restriction to it.
//!
//! A long-lived [`Materialization`] takes the same schedule argument at
//! construction and keeps it: builds, rebuilds, edits, edit scripts,
//! and queries are one set of methods for every POPS, and the schedule
//! that built the handle maintains it — a frontier handle builds,
//! inserts and rederives through its own queue (the one loop in
//! [`worklist`], seeded from the standing state instead of from `0`),
//! so on a chain-shaped program an edit costs per improved row, not
//! per global round, exactly like the from-scratch run.
//!
//! ## What a run costs before step 0
//!
//! The paper's bounds count fixpoint *steps*; before the first one
//! every schedule pays an O(|input|) term no schedule can amortize —
//! the classic [`dlo_core::Database`] has to become interned columns.
//! It costs **one scan**: [`Interner::load_relation`] walks each
//! relation once, interns each constant as it meets it (an integer
//! through a small memo local to the load, so only a memo miss probes
//! the Fx-hashed map; a string through the map, and no `Constant` is
//! built) and appends the id straight into pre-sized columns —
//! `P` relations first, Boolean relations after, program constants
//! last, which fixes every constant id and EDB row id. The full-key row
//! map is *not* part of the load: a from-scratch run reads its EDB by
//! scan and by prefix probe, so [`ColumnRel`] builds that map the first
//! time something asks for a row by key — a Boolean guard atom in a
//! rule condition, or a [`Materialization`] edit — and never otherwise.
//! The active domain `D₀` is collected only for programs with a
//! variable no join binds.
//!
//! [`PhaseNanos::setup`] is everything before the index builds, and
//! [`PhaseNanos::load`] the part of it spent in that scan. On
//! `dlo_benchmark`'s `wide-lookup` (300 000 arity-4 rows, 1.2 M stored
//! constants) the load *is* setup — all but ≈ 0.05 ms of it, the rest
//! being the compile — and setup was the operation: traced, seed 1,
//! `reported.setup_s` 0.225 → 0.043 s and `bench.op_wall_median_s`
//! 0.273 → 0.080 s against the two-pass, SipHash, map-per-row loader
//! this replaced, with every work counter unchanged. That left the one
//! sorted run of `F` (`reported.arrange_s`) at about half the operation,
//! until it became counting passes over the interned ids
//! (`arrange::radix_order`) instead of a comparison sort: traced,
//! seed 1, 53.7 → 25.5 ms, and `op_median_s` 0.0747 → 0.0571 reference
//! seconds (seed 7: 0.0791 → 0.0600; ten of ten alternating runs on
//! each). Those passes still ran over the whole relation, each reading
//! a key at a random address; now one counting pass partitions the rows
//! by their leading column — which a load lays out as one range of rows
//! per constant, so the pass moves ranges — and each partition is
//! finished in cache: traced, seed 1, 33.0 → 13.3 ms, and `op_median_s`
//! 0.0687 → 0.0548 (held-out seed 9: 0.0679 → 0.0546; ten of ten
//! alternating runs on each).
//! What was left of the load was the walk over the classic relation,
//! then a `BTreeMap<Vec<Constant>, P>` — a tree node per tuple. A
//! relation is now one sorted vector, so the walk reads a slice:
//! traced, seed 1, `reported.setup_s` 36.1 → 29.4 ms (medians of four
//! alternating runs; `reported.arrange_s` 9.6 ms on both sides), and
//! `op_median_s` 0.0481 → 0.0380 reference seconds (held-out seed 7:
//! 0.0458 → 0.0376; ten of ten alternating runs on each). What is left
//! is one cache miss per tuple, each a separately allocated
//! `Vec<Constant>`, which only a flat input format would remove. The
//! loader takes the walk in batches of a few hundred tuples and reads
//! each batch's constants once before interning any, so those misses
//! overlap instead of each waiting behind four hash probes:
//! worth little on a quiet host, but on a shared one the load no longer
//! swings with memory latency (30 → 55–65 ms became 25–30 → 40 ms), and
//! with it the operation's run-to-run spread halved ([`intern`]'s
//! header has the measurement). Then the hash probes themselves went:
//! `F`'s 1.2 M integers are 134 distinct values, and a 256-slot memo in
//! front of the map answers all but the first occurrence of each with
//! one compare — traced, seed 1, `reported.setup_s`
//! 31.2–36.9 → 21.6–25.9 ms over four alternations (in one process, 60
//! alternating operations: 34.4 → 23.4 ms, `phases.arrange` and
//! `phases.eval` 0.99× and 1.00×), and `op_median_s` 0.0402 → 0.0311
//! (ten of ten alternating runs).
//! A release-only test (`edb_load_is_one_cheap_pass`) holds the whole of
//! setup under 3× one cloning walk over the same relation. Since the
//! walk keeps the classic relation's order, the sorted run of `F` is no
//! longer built either: both of `wide-lookup`'s masks are prefixes of
//! `F`'s columns, so each probe searches the loaded rows by constant
//! rank ([`arrange`]), and traced `reported.arrange_s` reads ≈ 0.02 ms.
//!
//! ## Design note: magic sets — Bool-valued demand guarding POPS rules
//!
//! [`query`]'s rewrite (`dlo_core::demand::magic_rewrite`) adds *magic
//! predicates* that track which bindings the query can reach, and
//! guards every rule with its head's magic atom. Demand is inherently
//! **set-valued**: a magic fact means "needed", so magic relations
//! live on the Bool lattice even when answers carry `Trop`/`ℝ₊`/…
//! values. The compiler flags them ([`CompiledProgram::set_valued`])
//! and every driver stores such rows at `1` on first insertion and
//! never merges into them again — over a non-idempotent `⊕` a cyclic
//! demand rule would otherwise pump `1 ⊕ 1 = 2 ⊕ …` forever.
//! **Absorption is not required for the rewrite's correctness** (the
//! guard multiplies by `1`, and demand over-approximates the
//! contributing derivations — see `dlo_core::demand`'s module docs
//! for the induction); it is only required, as always, for the
//! frontier *strategies* one might run the rewritten program under.
//! Under the frontier drivers the magic seed is the only seed-plan
//! contribution, so the queue starts at the **query constants**
//! instead of the whole EDB delta, and demand facts derive between
//! batches exactly like head-key minting — including through key
//! functions in magic heads, which mint demand for keys the interner
//! has never seen. A domain-enumeration guard keeps the
//! answers-are-a-restriction invariant exact: rules with variables no
//! join can bind (enumerated over the active domain) force the
//! all-free fallback, since magic guards would re-scope those
//! variables to the demanded set.
//!
//! ## Design note: incremental maintenance over non-idempotent `⊕`
//!
//! [`incremental`]'s two edit paths are deliberately asymmetric.
//! **Inserts need no retraction machinery on any POPS**: growing the
//! EDB grows the immediate-consequence operator pointwise, so the old
//! fixpoint is a pre-fixpoint of the new operator and the handle's
//! ordinary continuation (semi-naïve rounds, or a frontier's queue) —
//! seeded with the *EDB differential*, computed by `@dlt`-variant plans
//! that read the edit batch at one EDB occurrence and the live, edited
//! EDB at every other — exact wherever it is folded into values,
//! because only the dioid-bounded schedules fold it and an idempotent
//! `⊕` absorbs an instance two variants both enumerate — converges to
//! the new least fixpoint in `O(|Δ|)`-driven work. **Deletes are where
//! idempotence would be quietly assumed**: classical DRed over the
//! Boolean lattice can re-derive a deleted fact's value by finding
//! *any* alternative derivation, but over a
//! non-idempotent `⊕` (counting `Nat`, `ℝ₊` sums) a fact's value folds
//! *every* derivation together, and over an absorptive dioid (`Trop`)
//! distinct support sets share the same value — neither lets the engine
//! subtract one lost derivation pointwise (there is no general `⊖`
//! inverse: `minus` solves `x ⊕ ? = y` only from below). The engine
//! therefore **marks a cone of keys and re-derives it**, one path on
//! every handle: the cone is enumerated *by key* from per-fact
//! supporting-rule provenance (the compiled delta plans themselves),
//! zeroed where it stands, and re-derived from the surviving support by
//! head-guarded plans that name exactly the zeroed keys — exact because
//! the survivors are untouched by construction and form a pre-fixpoint
//! of the shrunk operator, from which Kleene iteration reaches its least
//! fixpoint. What the POPS licenses decides only how small the cone is:
//! over any naturally ordered POPS, every key whose derivation-uses
//! graph reaches a deleted EDB row (sound because value maps are
//! monotone, so an instance that contributed `0` before the delete
//! still contributes `0` after); over a totally ordered absorptive
//! dioid, only the keys whose stored value a lost derivation attained.
//! Rows stay where they are — zeroed, re-derived or, if nothing
//! derives them any more, left at `0` as tombstones that every reader
//! skips — so a row id is stable under every schedule and every edit,
//! and a key that comes back comes back at its id, until a relation
//! whose tombstones pass half its rows is compacted.
//! Insert-only workloads should prefer
//! [`Materialization::insert`] alone — the marking pass, the zero-out,
//! and the rederive all exist purely to pay for deletion.
//!
//! ## Design note: two regimes, three probe structures
//!
//! A join step probes a relation through one of three structures, and
//! which one is decided by what the relation can observe about itself —
//! no option, no planner hint ([`ColumnRel::ensure_probe`], the one
//! place):
//!
//! * A relation that is **bulk** — loaded whole by the EDB loader
//!   ([`ColumnRel::from_distinct_rows`]) and not appended to since —
//!   and whose probe keys are too wide to pack into a `u64` (arity > 2)
//!   gets a **sorted run** ([`arrange`]): its rows re-ordered by a
//!   column permutation (probe columns first, ascending, then the
//!   rest), one immutable `Arc`-shared array built by one sort. The
//!   executor's probe key (always assembled ascending) compares directly
//!   against a key prefix, so two binary searches answer a probe, and
//!   every mask whose ascending column list is a prefix of the
//!   permutation rides the same run for free (`{c0}` on `{c0,c1}`'s
//!   order). Values are not duplicated — probes return row ids into the
//!   relation's flat storage, the hash-probe contract — and a clone of
//!   the relation shares the run (an `Arc`), never copies it. A
//!   relation the loader made needs no sort at all under a prefix mask
//!   (`{c0}`, `{c0,c1}`, …): the loader keeps its classic relation's
//!   ascending tuple order, so the rows already ascend by constant rank,
//!   and the run is the rows as they lie, searched by rank through the
//!   interner's [`Interner::rank_table`].
//! * A bulk relation of arity ≤ 2 probed on one column gets a
//!   **posting table** where the column is dense enough
//!   (`storage::row_map_dense`'s rule, at most 8 slots a row): interned
//!   ids are dense from 0, so one counting pass over the column and one
//!   stable scatter lay out every key's rows, ascending, in one buffer
//!   after the start offsets, and a probe reads
//!   `cells[cells[k]..cells[k + 1]]` — no `Vec` per key, no hash per
//!   probe. It counts as a hash probe.
//! * Everything else gets a **hash-prefix index**, maintained by every
//!   append: a sparse column or a two-column key of a bulk relation of
//!   arity ≤ 2 (packed keys), and every relation that **grows while it
//!   is probed**, at any arity — the IDB state, every Δ, `@dlt`, a live
//!   EDB relation an edit grew. A nonlinear rule is exactly the one
//!   that does this, one `ColumnRel::land` per derivation with `New` /
//!   `Old` probes in between (Thm. 6.5).
//!
//! A relation changes regime once, in one place: the **first append**
//! to a relation holding sorted runs or tables (a
//! [`Materialization::insert`] of a new fact into a bulk-loaded EDB
//! relation) drops them and builds the hash index of every mask they
//! had been asked for (`ColumnRel::append_row`); from then on it is a
//! grown relation like any other. The executor resolves, once per plan
//! run, which structure a step's relation holds, so nothing else has to
//! know. On `dlo_benchmark`'s `point-query` (80 000 edges over 20 000
//! ids, seed 1, a 2-core shared host) the table took
//! `reported.edb_index_s` from 3.2–4.4 to 0.48–0.56 ms against the hash
//! index, and `op_median_s` from 22.3 to 17.5 ms (10 alternating pairs,
//! all 10 faster), with every work counter equal.
//!
//! Until PR 21 the sorted side also served growing relations, through a
//! Bentley–Saxe spine (size-1 batches per append, size-tiered merges,
//! probes across all `O(log n)` batches). The measurements that retired
//! it, on that commit's public [`ColumnRel`] API and this host — each
//! structure owns one regime:
//!
//! | regime | sorted | hash |
//! |---|---|---|
//! | bulk, then read-only: 300 000 arity-4 rows, masks `0b0111` + `0b1111` (`wide-lookup`'s shape) | one run, 44–56 ms | two boxed-key indexes, 177–248 ms, plus 57–120 ms to drop them |
//! | growing while probed: 200 000 arity-3 rows, register, then `merge_changed` + probe per row | spine, 384–431 ms | `KeyedMap::Wide` index, 51–82 ms |
//! | the same at arity 4 | spine, 498–594 ms | 62–82 ms |
//!
//! and no workload of `dlo_benchmark` ever took the spine past its
//! first batch (`arrange.batches` 1, `reported.arrange_batches_merged`
//! 0 on all five). With the hash index on the growing side, in one
//! process against the parent, identical `emits` / `index_probes` /
//! rows: the labelled quadratic closure over an arity-3 IDB (55 084
//! rows) 1802 → 1452 ms under the priority frontier, 1427 → 1206 under
//! the FIFO worklist the engine had then, 1211 → 1033 semi-naïve; a
//! [`Materialization`] of the linear twin over a 9578-row arity-3 EDB,
//! build 2640 → 2149 ms, delete
//! 3450 → 2752 ms, and the first insert — the one that pays the
//! conversion — 2.6 → 2.9 ms. `tests/convergence_theorems.rs::`
//! `wide_relation_growth_is_hash_priced` holds the growing side to a
//! ratio against its arity-2 twin (3.2–3.5×; the spine read 22×).
//!
//! **Determinism.** A sorted probe's row ids are sorted ascending
//! before the plan sees them — exactly the order hash posting lists
//! hold (built ascending, maintained by append) — so a plan visits rows
//! identically through either structure and results are
//! **bit-identical** on every POPS, including non-associative f64
//! `⊕`-folds (a storage-level property test compares the two head to
//! head on every mask of arities 1–5, across the conversion). An edited
//! wide EDB relation therefore answers by hash where a from-scratch run
//! over the same facts sorts afresh, with the same result.
//! `dlo_benchmark`'s `wide-lookup` runs all 4000 of its probes on the
//! sorted side of the rule and the other four workloads run all of
//! theirs on the hash side. `explain()` tags each rule with the
//! structure a from-scratch run gives it (`merge` only for probes into
//! an EDB relation of arity > 2), the `merge_join_steps` /
//! `hash_join_steps` counters always sum to `index_probes` and are the
//! truth for the run at hand, and all three are functions of the
//! program, its input and — for a handle — its edit history;
//! [`EvalStats::invariants`] keeps them. `arrange_batches_merged` reads
//! 0 under every schedule and stays only because the frozen benchmark
//! reads the field; [`PhaseNanos::arrange`] times the bulk sorts.
//!
//! [`Strategy`] is bounded over the union of what its loops need, with
//! `Auto` resolving to the priority frontier — callers over `Trop`,
//! `MinNat`, `MaxMin`, or `Bool` get Dijkstra semantics by default and
//! can force any of the three. On workloads where round-based
//! evaluation re-improves facts for many rounds (the gradient SSSP
//! instance behind `dlo_benchmark`'s `sssp-sparse` workload) the
//! priority frontier is asymptotically faster: Θ(n) settled pops vs
//! Θ(n²) round updates, measured at 170× the semi-naïve loop on 2000
//! nodes and 830× on 6000 (evaluation phase). On
//! unique-path workloads (chain TC) derivation counts are
//! strategy-invariant and the frontier wins constant factors only.
//!
//! Θ(n) pops only pay off if a pop costs O(1), so the frontier loop
//! holds one **per-batch cost model**: a batch pays for popping its
//! bucket (one B-tree descent), for staging its rows as the Δ relation,
//! for running the Δ-family plans those rows' predicates drive (grouped
//! once per drain), for merging the emissions, and for one
//! stats row — each proportional to the rows in the batch, none to how
//! much else is queued. The queue depth in the stats row is a counter
//! the queue keeps, not a walk over the pending buckets: on the
//! gradient graph the first pop queues n − 2 guesses that stay pending
//! (stale) for most of the run, and walking them every batch made the
//! run Θ(n²) again — 10.6 µs per one-row bucket on `sssp-sparse`
//! (n = 6000), against ≈ 0.8 µs now (`reported.eval_s` 63.5 ms →
//! 4.6 ms, median of five traced runs on a shared 2-core host). What
//! remains per bucket is the plan runs — which allocate nothing: the
//! executor works in buffers the loop lends ([`exec::Scratch`]) and
//! keeps probe and head keys on the stack — and the merge of each
//! emission (`ColumnRel::land`, an array index where the head's row map
//! is direct-addressed — see below); a release-only test
//! (`priority_frontier_is_linear_in_settled_pops`) holds the loop to
//! linear scaling from 2000 to 16000 buckets.
//!
//! ## What one `⊕`-merge costs
//!
//! The step bounds become time bounds by charging O(1) per ground-rule
//! instance — per emission merged into its head relation — and that
//! merge is a probe of a hash map keyed by the whole row. It is O(1)
//! only if the map's bucket index sees the whole key, and for two PRs'
//! worth of measurements it did not: the hasher returned a bare
//! `key · odd`, whose low bits (the ones `std`'s table indexes by)
//! depend on the key's low bits alone, while `storage::pack` keeps
//! column 0 of a pair in the high half. Every arity-2 row map, index
//! and accumulator therefore started probing at a position set by the
//! last column only — on `dlo_benchmark`'s `apsp-dense` the 239 605
//! rows of `T` shared 500 probe starts — and the merge phase, not the
//! joins, was three quarters of the evaluation. [`hash`]'s `finish`
//! now adds the product's high half into its low half (the header
//! there has the candidates and why this one), and on the same input
//! with the same work counters `apsp-dense` `op_median_s` reads
//! 0.317 → 0.188 reference s (0.59×, ten of ten alternating pairs) and
//! `live-edits` 0.298 → 0.165 (0.55×; each delete there is a full
//! rebuild through the same row map). Traced, seed 1, four alternating
//! pairs on a host at 0.8 of reference speed, the saving sits where it
//! should: `reported.eval_s` 0.386 → 0.206 s raw on `apsp-dense` with
//! setup and decode unmoved, `incremental.delete_s` 0.425 → 0.259 s on
//! `live-edits`. The workloads whose hot keys are single ids or already
//! vary in their last column (`sssp-sparse`, `wide-lookup`,
//! `point-query`) move by under 2 %.
//! `EvalStats::explain()` shows the split that found it — `eval X
//! (plans Y)` and `merge+queue` (X − Y) per emission — and a
//! release-only test
//! (`merge_cost_is_independent_of_key_shape`) holds merging 250 000
//! rows by `[a, b]` to under 1.6× merging them by `[a·n + b]`
//! (measured 1.0–1.1×; 2.0–3.2× with the bare multiply).
//!
//! Once every probe starts in the right place, what is left of the
//! merge is the cache miss: `T`'s ≈ 8 MiB of buckets do not fit, and at
//! 82–88 ns an emission (`explain()`'s merge+queue line, 2-core shared
//! host) the 959 442 merges of an `apsp-dense` operation (653 825 of
//! them absorbed) were still most of its evaluation. But interned ids
//! are dense from 0, and `T` holds 239 605 of its 500² possible keys:
//! where `storage::row_map_dense` holds (arity ≤ 2, the table at most 8
//! slots a row and 2^24 slots) the row map is a slot table indexed by
//! the key, 976.6 KiB for `T`, and a merge is an array index — 40–44 ns
//! an emission on the same host. Nothing else moves — same row ids,
//! same counters — and `InternedOutput::explain` names each IDB's
//! layout and bytes. A
//! release-only test (`dense_row_map_merges_cheaper_than_hashed`) holds
//! 1 M merges over dense ids to under 0.5× the same merges over ids
//! spread 4 096 apart (measured 0.19–0.29×; 0.85–1.34× while both
//! hashed).
//!
//! There is one frontier discipline. A FIFO worklist drained in
//! generations (everything queued when the drain starts) stood beside
//! it until it was found slower than the priority frontier on all five
//! `dlo_benchmark` workloads: on re-improvement-heavy instances (the
//! gradient graph) it inherits the synchronous Θ(n²) update count,
//! while the priority frontier only ever fires settled rows.
//! [`Strategy::Worklist`] now names the semi-naïve rounds, which every
//! POPS [`Strategy`] admits can run.
//!
//! ## Parallelism: threads load the EDB and run a decomposable fixpoint in shards
//!
//! Three things fan over the scoped-thread pool in [`par`], capped by
//! `DLO_ENGINE_THREADS` (the default is
//! `std::thread::available_parallelism`) or per call via
//! [`EngineOpts::threads`]. Two come before a run's first step, under
//! every schedule: the **EDB load**, where a relation of at least two
//! parts of `LOAD_PART_ROWS` (16 384) rows is interned in up to that many
//! contiguous parts (the [`intern`] module docs say how the parts merge
//! into the one table with the sequential pass's ids), and the **EDB
//! index builds**, one relation per task. The load is bound by memory
//! latency and its sequential tail is one probe per distinct constant
//! of a later part, so a second core halves most of it; on
//! `dlo_benchmark`'s `wide-lookup`, where the load is most of the
//! operation, that is what `par.t2_over_t1` reads.
//!
//! The third is the **fixpoint of a decomposable program**. Where no
//! rule connects two groups of ground IDB atoms — in every sum-product
//! with an IDB factor, the head and every IDB factor hold one variable
//! in a column of their predicate ([`CompiledProgram::shard_cols`]:
//! left-linear APSP by its source, right-linear TC by its target, a
//! magic-rewritten query by its bound column) — the ICO (Sec. 4.3) is a
//! product of one map per group and its least fixpoint the tuple of
//! theirs (Lemma 3.3 / Thm. 3.4). A from-scratch run from the empty
//! state under [`SemiNaive`] or [`Strategy`] runs its seed step once;
//! when the seed landed enough rows, the rows and the queue entries
//! naming them go to a constant number of **shards** by the id in their
//! predicate's shard column, each shard runs the schedule's own loop —
//! its own accumulators, Δ, queue, settled marking and collector — over
//! the one engine, read-only, and the shards' relations are
//! concatenated into the output. Each emission is merged once, in its
//! shard; a shard's loop meets its rows in the order the one-shard loop
//! does, so values, every counter, the step count and the step rows are
//! the one-shard run's (semi-naïve rounds merge by round, frontier
//! batches by value and generation). On `apsp-dense` (seed 1, a 2-core
//! shared host) traced `par.t2_over_t1` read 0.50–0.84 over six runs,
//! five of them ≤ 0.59 (0.62–1.01 before), and `op_median_s` 0.72× the
//! one-loop parent's, 10 of 10 alternating pairs faster; a release test
//! (`tests/second_core.rs`) holds the two-over-one ratio under 0.8. The naïve rounds, a [`Materialization`]'s builds
//! and edits, and a delete's marking rounds stay one loop on the
//! calling thread, and every loop's rounds and batches run their plans
//! inline through one plan runner (`driver::run_plans_inline`).
//!
//! Rounds and dense frontier batches used to fan (plan × first-step row
//! chunk) tasks over the pool instead, and three readings on a 2-core
//! host decided what stayed then (two single-thread copies of the probe
//! side by side finished in 1.37× the time of one, so the second core
//! was there):
//!
//! * **semi-naïve rounds, 0.99×** — `apsp-dense`'s shape (n = 500,
//!   m = 2000) under [`SemiNaive`], 85 tasks over 10 fanned rounds and
//!   1 788 950 emits on both sides: 0.2728 s at one thread against
//!   0.2701 s at two, two threads ahead in 4 of 10 alternating pairs
//!   (dense frontier batches had read 0.93–1.09×, median 1.07–1.08×,
//!   before they went inline);
//! * **a delete's marking rounds, 0.997×** — the one path
//!   `dlo_benchmark` still fanned out (`live-edits`, 32–36 tasks over 4
//!   rounds per delete): 0.0797 against 0.0795 s per insert + delete
//!   cycle over 48 cycles, ahead in 24 of 48;
//! * **EDB index builds, 0.64×** — `phases.edb_index` 67.9 → 43.4 ms on
//!   `Out(X, Z) :- S(X) * A(X, Y) * B(Y, Z)` with two 300k-row probed
//!   relations, every two-thread run ahead of every one-thread run, ten
//!   a side.
//!
//! The fanned rounds could not pay by construction, not by bad luck:
//! each task `⊕`-merged its emissions into a private accumulator, then
//! the coordinator folded every task's accumulator into the global one
//! and drained that into the relations, both serially — each
//! ground-rule instance merged twice, and the merge is the larger half
//! of the loop (see *What one `⊕`-merge costs*). The joins in front of
//! it were all a second thread could take. Shards are the design those
//! readings pointed to: the accumulator and the relation behind it are
//! split by head key, so no emission is merged twice and nothing is
//! merged serially but the concatenation of the finished relations.
//! An index build has no such tail either: each relation's indexes are
//! built where they stay, by whichever worker holds the `&mut`.
//!
//! Results are **bit-identical at any thread count**: the shard count
//! is a constant, not the thread count, so row ids, counters and steps
//! do not depend on how many shards run at once; within a loop plans
//! run in plan order on one thread, accumulators drain in sorted key
//! order, and interner ids are minted between phases (a program that
//! shards mints nothing); an index's content is determined by its
//! relation's row order, not by who built it.
//!
//! ## Environment variables
//!
//! The engine reads two, both deployment settings rather than
//! semantics:
//!
//! | variable | read by | effect |
//! |---|---|---|
//! | `DLO_ENGINE_THREADS` | [`par::max_threads`], when [`EngineOpts::threads`] is `None` | cap of the pool that loads large EDB relations in parts, builds the EDB indexes and runs a decomposable fixpoint's shards (`1` = all of it in sequence; the results are the same) |
//! | `DLO_TRACE` | every run, when [`EngineOpts::trace`] is `None` | path of a JSONL file trace events are appended to |
//!
//! ## Observability: stats on every outcome, traces on demand
//!
//! Every evaluation — any strategy, any entry point — returns its
//! telemetry on the outcome: [`EvalStats`] carries per-run totals
//! (emissions, index probes, tuples scanned, merge outcomes split into
//! inserted / improved / absorbed / set-valued short-circuits, minted
//! interner ids), wall-clock phase timers (setup and the EDB load
//! inside it, EDB indexing, the fixpoint loop, id minting, decode),
//! per-iteration snapshots, and a
//! **per-rule profile** attributing time and emissions to each
//! compiled plan. The profile counts every plan run but times a
//! sample: every run of a step of many Δ rows, one in
//! [`PLAN_CLOCK_PERIOD`] of the others, each plan's time scaled to all
//! its runs ([`RuleProfile::runs`], [`RuleProfile::timed_runs`]) — a
//! clock pair per run was a sixth of a one-row frontier batch.
//! `stats()` on [`dlo_core::EvalOutcome`],
//! [`InternedOutcome`], and [`query::QueryAnswer`] exposes it;
//! `explain()` renders the profile as a report. Collection is
//! always-on: the counters ride the execution state the loops already
//! touch, and `dlo_benchmark` reports the traced-vs-untraced overhead
//! (`bench.trace_overhead`) on every workload.
//!
//! Structured tracing is opt-in: hand a [`TraceHandle`] (wrapping a
//! [`TraceSink`] — [`JsonlSink`] for files, [`MemorySink`] for tests)
//! through [`EngineOpts::trace`], or set `DLO_TRACE=out.jsonl` to
//! append one JSON object per event (`run_start`, `phase`,
//! `iteration`, `abort`, `run_end`) with no dependencies — the
//! writer/parser pair lives in `dlo_core::eval::stats::json`. Events are emitted
//! from the calling thread, in deterministic order: a run in shards
//! streams its merged step rows once the shards are done.
//!
//! Determinism extends to the telemetry itself: everything except
//! wall-clock fields and the thread count is **bit-identical at any
//! `DLO_ENGINE_THREADS`** — counters are exact counts, not sampled, of
//! work each loop does in plan order (a run in shards sums its shards',
//! which are the one-shard run's), and which plan runs were timed is a
//! function of those counts ([`EvalStats::tasks_spawned`] and
//! [`EvalStats::parallel_batches`] read 0 on every run).
//! [`EvalStats::invariants`] masks the timing fields, which is what
//! the cross-thread determinism tests compare.
//!
//! ## Design note: robustness & resource governance
//!
//! Every public entry point returns a `Result` whose error is (or
//! converts by `?` into) an [`EvalError`], and
//! **no input or runtime condition panics across the API boundary**
//! (pinned by `tests/robustness.rs`'s proptest leg). The error taxonomy
//! separates three failure classes:
//!
//! * **Compile-time rejection** ([`EvalError::Compile`]): programs the
//!   columnar storage cannot represent (arity > 32, one head predicate
//!   at two arities) and queries the magic rewrite rejects. No
//!   evaluation ran, so these carry no stats.
//! * **Governed interruption**: an [`EvalBudget`] on
//!   [`EngineOpts::budget`] bounds wall-clock (deadline, measured from
//!   entry so compile/intern time counts), fixpoint phases
//!   (`max_steps`), emitted rows, and minted ids; a shared
//!   [`CancelToken`] on [`EngineOpts::cancel`] requests cooperative
//!   cancellation from another thread. Checks run at every loop
//!   checkpoint — the seed phase, each global iteration, each priority
//!   **bucket** pop — in each shard's loop against one governor (a run
//!   under a step or row ceiling stays one loop, so those ceilings
//!   judge the run's own counts at any thread count), never
//!   inside a plan run, so governance costs a branch per checkpoint, the hot
//!   per-tuple loops are untouched, and a governed run stops within
//!   one checkpoint of crossing a line (the abort trace event records
//!   which granularity fired). The resulting
//!   [`EvalError::BudgetExhausted`] / [`EvalError::DeadlineExceeded`] /
//!   [`EvalError::Cancelled`] carries the final [`EvalStats`] snapshot
//!   (with `budget_checks` / `cancel_polls` counters and a trailing
//!   `abort` trace event whose `reason` is the error's `Display`), and
//!   arrives with the abort-time instance
//!   itself attached — see the graceful-degradation note below.
//! * **Contained panics** ([`EvalError::WorkerPanic`]): every index
//!   build and every shard of a fixpoint in the pool (and its sequential
//!   fallback) and every plan run executes under `catch_unwind`; the
//!   lowest-indexed panicking build or shard — or the first panicking
//!   plan, in plan order — wins deterministically at any thread count,
//!   and the calling thread converts it into the typed error instead of
//!   unwinding or aborting the process.
//!
//! Divergence is *not* an error here: hitting the iteration cap still
//! returns `Ok` with [`InternedOutcome::Diverged`]; only a
//! [`Materialization`] build or edit that hits it fails, with
//! [`EvalError::Diverged`]. Long-lived [`Materialization`]s
//! add a **poisoned bit**: if an edit fails mid-flight in a way that may
//! have left interned state inconsistent, every subsequent call returns
//! [`EvalError::Poisoned`] until [`Materialization::rebuild`] re-derives
//! the fixpoint from the live EDB relations — same fixpoint as a
//! from-scratch construction, with the retained interner reused so
//! constant ids stay stable across the recovery.
//!
//! ## Design note: graceful degradation — partial results on abort
//!
//! A governed abort does not discard the work done. The error side of
//! both entry points is a boxed [`AbortedEval`]: the typed error
//! **plus** a [`PartialOutput`] capturing the abort-time interned state
//! and a per-row [`SettledMark`] (`From<Box<…>> for EvalError` keeps `?`
//! working for callers that only want the error; a compile rejection
//! carries an empty partial). How much that state means depends on the
//! schedule:
//!
//! * Under the **priority frontier**, absorption plus the total order
//!   make a popped row final: `x ⊗ y ⊑ x` means no later derivation
//!   can improve the ⊑-greatest pending fact (Cor. 5.19 — the same
//!   argument that licenses the strategy licenses **settled-on-pop**).
//!   The engine marks each popped row before its derivations fire, so
//!   the settled frontier of the partial is **exact**: every settled
//!   row carries precisely its least-fixpoint value, and
//!   [`PartialOutput::materialize_settled`] is a sub-instance of the
//!   answer (differentially pinned in `tests/robustness.rs`). An
//!   interrupted Dijkstra yields correct shortest
//!   paths for everything it settled.
//! * Under the other schedules every intermediate `J(t)` still sits
//!   below the least fixpoint (`J(t) ⊑ lfp`, the loop invariant), so
//!   the partial is a **pointwise lower bound** — a progress snapshot,
//!   not an answer — and its mark says so ([`SettledMark::is_exact`]
//!   is `false`).
//!
//! A query's partial is the state of the **demanded** fragment: the
//! rewritten program's relations, the magic ones
//! (`dlo_core::magic_pred`) included. Its partial answers are
//! `dlo_core::Query::restrict` of the queried predicate's relation in
//! [`PartialOutput::materialize_settled`] — exact or a lower bound by
//! the same rule.
//!
//! Escalation is the caller's loop: rerun with a larger [`EvalBudget`]
//! (the `datalog_o` crate docs show it); a governed run that converges
//! is bit-identical to an ungoverned one. To feed one run's result to
//! another, decode it with `materialize()` and pass the `Database`.
//! Long-lived [`Materialization`]s expose the same state read-only: a
//! poisoned handle keeps its mid-flight partial on
//! [`Materialization::partial`] until a rebuild clears it.
//!
//! The engine cross-checks against the other backends in
//! `tests/cross_engine.rs` (and all schedules against each other in
//! `tests/backend_matrix.rs` / `tests/proptest_engine.rs`):
//!
//! ```
//! use dlo_core::{parse_program, BoolDatabase, Database, Program, Relation};
//! use dlo_engine::{engine_eval_interned, EngineOpts, SemiNaive};
//! use dlo_pops::Trop;
//!
//! let program: Program<Trop> =
//!     parse_program("T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).").unwrap();
//! let mut edb = Database::new();
//! edb.insert("E", Relation::from_pairs(2, vec![
//!     (vec!["a".into(), "b".into()], Trop::finite(1.0)),
//!     (vec!["b".into(), "c".into()], Trop::finite(3.0)),
//! ]));
//! let (out, _steps) = engine_eval_interned(
//!     &program, &edb, &BoolDatabase::new(), 10_000, SemiNaive, &EngineOpts::default())
//!     .expect("compiles")
//!     .converged()
//!     .expect("converges");
//! assert_eq!(out.get("T", &["a".into(), "c".into()]), Some(&Trop::finite(4.0)));
//! ```
//!
//! The engine is **total over the language**: head key functions, body
//! key functions, conditions, Boolean guards, coefficients, and value
//! functions all evaluate natively — there is no fallback backend.
//!
//! ## Design note: head key functions and dynamic interning
//!
//! A key function in a rule *head* (`W(i+1) :- W(i) ⊗ V(i+1)`, Sec. 4.5)
//! derives constants that need not exist when the program is compiled,
//! so the interner cannot be frozen for the whole run. The resolution is
//! split-phase:
//!
//! * while an iteration's plans run, the interner **is**
//!   frozen — the executor emits head keys whose computed cells miss the
//!   table as [`exec::HeadVal::Fresh`] integers into ordered per-IDB
//!   accumulators;
//! * between iterations, the driver mints ids for those integers in
//!   sorted key order (deterministic) and inserts the
//!   rows. A fresh cell is by definition a constant no existing row
//!   contains, so minted rows are always appends: they enter the `new`
//!   state, the `δ` relation, and the `changed` map exactly like any
//!   other appended row, and incremental index maintenance covers them.
//!
//! Body-side key functions never mint — a computed probe value outside
//! the interned domain simply matches nothing, which is the semantics of
//! joining against finite supports. Fresh accumulators are filled in
//! plan order and drained sorted, so minted ids are the same on every
//! run — under the frontier drivers ids are minted between batches
//! exactly as the global drivers mint between iterations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrange;
pub mod driver;
pub mod exec;
pub(crate) mod govern;
pub mod hash;
pub mod incremental;
pub mod intern;
pub mod output;
pub mod par;
pub mod plan;
pub mod query;
pub mod storage;
pub(crate) mod telemetry;
pub mod worklist;

pub use dlo_core::eval::stats::{Counters, EvalStats, IterStat, PhaseNanos, RuleProfile};
pub use driver::{engine_eval_interned, EngineOpts, Naive, Schedule, SemiNaive};
pub use govern::{BudgetKind, CancelToken, EvalBudget, EvalError};
pub use incremental::Materialization;
pub use intern::Interner;
pub use output::{AbortedEval, InternedOutcome, InternedOutput, PartialOutput, SettledMark};
pub use plan::{compile, compile_demand, CompileError, CompiledProgram, Plan, PlanMeta};
pub use query::{engine_query_eval_with_opts, QueryAnswer};
pub use storage::ColumnRel;
pub use telemetry::{JsonlSink, MemorySink, TraceEvent, TraceHandle, TraceSink, PLAN_CLOCK_PERIOD};
pub use worklist::Strategy;
