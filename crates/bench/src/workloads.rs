//! Seeded synthetic workload generators (graphs and programs).
//!
//! The paper reports no machine experiments, so the performance claims
//! (semi-naïve beats naïve; `LinearLFP`/FWK beat iteration on p-stable
//! semirings; 0-stable ⇒ ≤ N steps) are exercised on synthetic inputs:
//! Erdős–Rényi-style random digraphs, grids, paths, and cycles — all
//! generated from explicit seeds for byte-identical reruns.

use dlo_core::relation::{bool_relation, Database, Relation};
use dlo_core::value::{Constant, Tuple};
use dlo_pops::Trop;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated directed graph with integer node ids.
#[derive(Clone, Debug)]
pub struct GraphInstance {
    /// Node count.
    pub n: usize,
    /// Directed edges with weights.
    pub edges: Vec<(usize, usize, f64)>,
}

impl GraphInstance {
    /// A random digraph with `m` distinct non-loop edges, weights in
    /// `1..=max_w`.
    pub fn random(n: usize, m: usize, max_w: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = vec![];
        let mut seen = std::collections::BTreeSet::new();
        while edges.len() < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || !seen.insert((u, v)) {
                continue;
            }
            let w = rng.gen_range(1..=max_w) as f64;
            edges.push((u, v, w));
        }
        GraphInstance { n, edges }
    }

    /// A directed path `0 → 1 → … → n-1` with unit weights.
    pub fn path(n: usize) -> Self {
        GraphInstance {
            n,
            edges: (0..n - 1).map(|i| (i, i + 1, 1.0)).collect(),
        }
    }

    /// A directed cycle with unit weights.
    pub fn cycle(n: usize) -> Self {
        GraphInstance {
            n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        }
    }

    /// The **gradient** graph: the classic Bellman-Ford worst case for
    /// synchronous (round-based) shortest-path relaxation. A unit-weight
    /// chain `0 → 1 → … → n-1` plus direct edges `0 → i` of weight `3i`.
    ///
    /// From source 0 the true distance to `i` is `i` (the pure chain),
    /// but at round `t < i` the best ≤`t`-edge path is "jump to
    /// `i - t + 1`, walk the chain": cost `3i - 2t + 2`. So **every**
    /// node `i` strictly improves at **every** round `t ≤ i` — Θ(n²)
    /// value updates for a global semi-naïve loop — while a best-first
    /// frontier (Dijkstra) settles each node exactly once: Θ(n) work.
    /// This is the separation workload for `dlo_engine`'s priority
    /// strategy; the chain/random TC instances bound the constant-factor
    /// regime where derivation counts are strategy-invariant.
    pub fn gradient(n: usize) -> Self {
        assert!(n >= 2, "gradient graph needs at least a source and a sink");
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.extend((1..n).map(|i| (0, i, 3.0 * i as f64)));
        GraphInstance { n, edges }
    }

    /// A `k × k` grid with edges right and down, unit weights.
    pub fn grid(k: usize) -> Self {
        let idx = |r: usize, c: usize| r * k + c;
        let mut edges = vec![];
        for r in 0..k {
            for c in 0..k {
                if c + 1 < k {
                    edges.push((idx(r, c), idx(r, c + 1), 1.0));
                }
                if r + 1 < k {
                    edges.push((idx(r, c), idx(r + 1, c), 1.0));
                }
            }
        }
        GraphInstance { n: k * k, edges }
    }

    /// Node name for id `i`.
    pub fn node(&self, i: usize) -> Constant {
        Constant::Int(i as i64)
    }

    /// The edge relation as a `Trop⁺` EDB named `E`.
    pub fn trop_edb(&self) -> Database<Trop> {
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs(
                2,
                self.edges
                    .iter()
                    .map(|&(u, v, w)| (vec![self.node(u), self.node(v)] as Tuple, Trop::finite(w))),
            ),
        );
        db
    }

    /// The edge relation as a Boolean EDB named `E` (as a POPS database,
    /// for programs whose `E` is a factor).
    pub fn bool_edb(&self) -> Database<dlo_pops::Bool> {
        let mut db = Database::new();
        db.insert(
            "E",
            bool_relation(
                2,
                self.edges
                    .iter()
                    .map(|&(u, v, _)| vec![self.node(u), self.node(v)] as Tuple),
            ),
        );
        db
    }

    /// The single-source shortest-path program over `Trop⁺` from node 0,
    /// paired with this graph's EDB.
    pub fn sssp(&self) -> (dlo_core::Program<Trop>, Database<Trop>) {
        (single_source_int_program(0), self.trop_edb())
    }
}

/// `single_source_program` with an integer source (generator graphs use
/// integer node ids).
pub fn single_source_int_program<P: dlo_pops::Pops>(source: i64) -> dlo_core::Program<P> {
    use dlo_core::ast::{Atom, Factor, Program, SumProduct, Term};
    use dlo_core::formula::{CmpOp, Formula};
    let mut p = Program::new();
    p.rule(
        Atom::new("L", vec![Term::v(0)]),
        vec![
            SumProduct::new(vec![]).with_condition(Formula::cmp(
                Term::v(0),
                CmpOp::Eq,
                Term::c(source),
            )),
            SumProduct::new(vec![
                Factor::atom("L", vec![Term::v(1)]),
                Factor::atom("E", vec![Term::v(1), Term::v(0)]),
            ]),
        ],
    );
    p
}

/// A Dijkstra oracle for SSSP ground truth on generated graphs.
pub fn dijkstra(g: &GraphInstance, source: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.n];
    let mut adj: Vec<Vec<(usize, f64)>> = vec![vec![]; g.n];
    for &(u, v, w) in &g.edges {
        adj[u].push((v, w));
    }
    dist[source] = 0.0;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push((std::cmp::Reverse(ordered(0.0)), source));
    while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
        let d = d.0;
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push((std::cmp::Reverse(ordered(nd)), v));
            }
        }
    }
    dist
}

/// Orderable f64 wrapper for the heap (weights are never NaN).
#[derive(PartialEq, PartialOrd)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("no NaN weights")
    }
}
fn ordered(x: f64) -> OrdF64 {
    OrdF64(x)
}

/// The arity-4 **wide fact lookup** workload: a large random fact
/// table `F(A, B, C, D)` probed by two rules through two wide masks —
///
/// ```text
/// Out1(A, D) :- S(A, B, C)     * F(A, B, C, D).   // probe {A, B, C}
/// Out2(A)    :- S4(A, B, C, D) * F(A, B, C, D).   // probe {A, B, C, D}
/// ```
///
/// Both probe keys are ≥ 3 columns (past the packed-`u64` hash fast
/// path), and the two masks share a prefix order: one sorted
/// arrangement of `F` serves both, where the hash path must build two
/// boxed-wide-key indexes over the full table. `S` holds `probes`
/// known-present `(A, B, C)` triples and `S4` a sample of full rows, so
/// evaluation is a handful of probes against a build-dominated index —
/// the regime where arrangement construction cost decides wall-clock.
pub fn wide_lookup(
    rows: usize,
    probes: usize,
    seed: u64,
) -> (dlo_core::Program<Trop>, Database<Trop>) {
    use dlo_core::ast::{Atom, Factor, Program, SumProduct, Term};
    let mut p = Program::new();
    p.rule(
        Atom::new("Out1", vec![Term::v(0), Term::v(3)]),
        vec![SumProduct::new(vec![
            Factor::atom("S", vec![Term::v(0), Term::v(1), Term::v(2)]),
            Factor::atom("F", vec![Term::v(0), Term::v(1), Term::v(2), Term::v(3)]),
        ])],
    );
    p.rule(
        Atom::new("Out2", vec![Term::v(0)]),
        vec![SumProduct::new(vec![
            Factor::atom("S4", vec![Term::v(0), Term::v(1), Term::v(2), Term::v(3)]),
            Factor::atom("F", vec![Term::v(0), Term::v(1), Term::v(2), Term::v(3)]),
        ])],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut facts: Vec<(Tuple, Trop)> = Vec::with_capacity(rows);
    let domain = (rows as f64).cbrt() as i64 * 2 + 2;
    while facts.len() < rows {
        let (a, b, c) = (
            rng.gen_range(0..domain),
            rng.gen_range(0..domain),
            rng.gen_range(0..domain),
        );
        if !seen.insert((a, b, c)) {
            continue;
        }
        let d = rng.gen_range(0..domain);
        facts.push((
            vec![
                Constant::Int(a),
                Constant::Int(b),
                Constant::Int(c),
                Constant::Int(d),
            ],
            Trop::finite(rng.gen_range(1..=9) as f64),
        ));
    }
    let s_rows: Vec<(Tuple, Trop)> = facts
        .iter()
        .take(probes)
        .map(|(t, _)| (t[..3].to_vec(), Trop::finite(1.0)))
        .collect();
    let s4_rows: Vec<(Tuple, Trop)> = facts
        .iter()
        .step_by((rows / probes).max(1))
        .take(probes)
        .map(|(t, _)| (t.clone(), Trop::finite(1.0)))
        .collect();
    let mut db = Database::new();
    db.insert("F", Relation::from_pairs(4, facts));
    db.insert("S", Relation::from_pairs(3, s_rows));
    db.insert("S4", Relation::from_pairs(4, s4_rows));
    (p, db)
}

/// The arity-4 **labeled closure** workload: edges carry a two-column
/// label `(class, tier)`, and paths compose only within one label —
///
/// ```text
/// R(X, Y, A, B) :- E4(X, Y, A, B) + R(X, Z, A, B) * E4(Z, Y, A, B).
/// ```
///
/// so the fixpoint is a per-label transitive closure. The probed
/// relation (`E4`) has arity 4 and the recursive join's probe covers
/// three columns `(Z, A, B)` — past the packed-`u64` fast path of the
/// hash-prefix indexes (≥ 3 key columns fall back to boxed wide keys),
/// which is exactly the regime the sorted arrangements exist for. The
/// instance is `classes²` disjoint unit chains of `chain` nodes, one
/// per label pair, with node ids disjoint across labels.
pub fn labeled_tc4(classes: usize, chain: usize) -> (dlo_core::Program<Trop>, Database<Trop>) {
    use dlo_core::ast::{Atom, Factor, Program, SumProduct, Term};
    let mut p = Program::new();
    p.rule(
        Atom::new("R", vec![Term::v(0), Term::v(1), Term::v(2), Term::v(3)]),
        vec![
            SumProduct::new(vec![Factor::atom(
                "E4",
                vec![Term::v(0), Term::v(1), Term::v(2), Term::v(3)],
            )]),
            SumProduct::new(vec![
                Factor::atom("R", vec![Term::v(0), Term::v(4), Term::v(2), Term::v(3)]),
                Factor::atom("E4", vec![Term::v(4), Term::v(1), Term::v(2), Term::v(3)]),
            ]),
        ],
    );
    let mut rows: Vec<(Tuple, Trop)> = vec![];
    let mut id = 0i64;
    for a in 0..classes {
        for b in 0..classes {
            let base = id;
            id += chain as i64;
            for i in 0..chain as i64 - 1 {
                rows.push((
                    vec![
                        Constant::Int(base + i),
                        Constant::Int(base + i + 1),
                        Constant::Int(a as i64),
                        Constant::Int(b as i64),
                    ],
                    Trop::finite(1.0),
                ));
            }
        }
    }
    let mut db = Database::new();
    db.insert("E4", Relation::from_pairs(4, rows));
    (p, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_has_requested_shape() {
        let g = GraphInstance::random(10, 25, 5, 42);
        assert_eq!(g.n, 10);
        assert_eq!(g.edges.len(), 25);
        assert!(g.edges.iter().all(|&(u, v, w)| u != v && w >= 1.0));
        // Determinism.
        let g2 = GraphInstance::random(10, 25, 5, 42);
        assert_eq!(g.edges, g2.edges);
    }

    #[test]
    fn grid_and_path_shapes() {
        let p = GraphInstance::path(5);
        assert_eq!(p.edges.len(), 4);
        let g = GraphInstance::grid(3);
        assert_eq!(g.n, 9);
        assert_eq!(g.edges.len(), 12);
    }

    #[test]
    fn dijkstra_on_path() {
        let g = GraphInstance::path(4);
        assert_eq!(dijkstra(&g, 0), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn engine_matches_dijkstra_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let g = GraphInstance::random(12, 30, 9, seed);
            let (prog, edb) = g.sssp();
            let out =
                dlo_core::naive_eval_sparse(&prog, &edb, &dlo_core::BoolDatabase::new(), 10_000)
                    .unwrap();
            let oracle = dijkstra(&g, 0);
            let l = out.get("L");
            for (i, d) in oracle.iter().enumerate() {
                let got = l
                    .map(|r| r.get(&vec![g.node(i)]))
                    .unwrap_or(Trop::INF)
                    .get();
                assert_eq!(got, *d, "node {i} seed {seed}");
            }
        }
    }
}
