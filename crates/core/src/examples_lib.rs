//! The paper's example programs as reusable constructors.
//!
//! Each function returns a ready-to-run `(Program, EDB)` pair matching a
//! numbered example of the paper; the reproduction harness and the test
//! suite both build on these.

use crate::ast::{Atom, Factor, Program, SumProduct, Term, UnaryFn};
use crate::formula::{CmpOp, Formula};
use crate::relation::{bool_relation, BoolDatabase, Database, Relation};
use crate::tup;
use crate::value::Constant;
use dlo_pops::{LiftedReal, NNReal, Pops, Three, Trop};

/// The single-source reachability/shortest-path program of Example 4.1,
/// generic over the POPS:
///
/// `L(x) :- [x = source] ⊕ ⊕_z ( L(z) ⊗ E(z, x) )`
///
/// The indicator `[x = source]` is the conditional sum-product
/// `{ 1 | x = source }`.
pub fn single_source_program<P: Pops>(source: &str) -> Program<P> {
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

/// The edge relation of Fig. 2(a): a→b (1), b→a (2), b→c (3), c→d (4),
/// a→c (5), as a `P`-relation with an embedding of edge weights.
///
/// The edge directions are pinned by the paper's computed answers: the
/// `Trop⁺` trace works for either `b→a` or `d→b` as the weight-2 edge,
/// but `Trop⁺₁`'s `L(a) = {{0, 3}}` (a second a-to-a walk of length 3)
/// requires the cycle `a→b→a`.
pub fn fig2a_graph<P: Pops>(weight: impl Fn(f64) -> P) -> Database<P> {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            vec![
                (tup!["a", "b"], weight(1.0)),
                (tup!["b", "a"], weight(2.0)),
                (tup!["b", "c"], weight(3.0)),
                (tup!["c", "d"], weight(4.0)),
                (tup!["a", "c"], weight(5.0)),
            ],
        ),
    );
    db
}

/// Example 4.1 over `Trop⁺` on the Fig. 2(a) graph (SSSP from `source`).
pub fn sssp_trop(source: &str) -> (Program<Trop>, Database<Trop>) {
    (single_source_program(source), fig2a_graph(Trop::finite))
}

/// SSSP over `Trop⁺` on an arbitrary edge list with a weight function.
pub fn sssp_trop_graph(
    source: &str,
    edges: &[(&str, &str)],
    weight: impl Fn(usize) -> f64,
) -> (Program<Trop>, Database<Trop>) {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges
                .iter()
                .enumerate()
                .map(|(i, (a, b))| (tup![*a, *b], Trop::finite(weight(i)))),
        ),
    );
    (single_source_program(source), db)
}

/// The all-pairs shortest-path program of Example 1.1 (eq. 3):
///
/// `T(x, y) :- E(x, y) ⊕ ⊕_z ( T(x, z) ⊗ E(z, y) )`
pub fn apsp_program<P: Pops>() -> Program<P> {
    let mut p = Program::new();
    p.rule(
        Atom::new("T", vec![Term::v(0), Term::v(1)]),
        vec![
            SumProduct::new(vec![Factor::atom("E", vec![Term::v(0), Term::v(1)])]),
            SumProduct::new(vec![
                Factor::atom("T", vec![Term::v(0), Term::v(2)]),
                Factor::atom("E", vec![Term::v(2), Term::v(1)]),
            ]),
        ],
    );
    p
}

/// An APSP instance over `Trop⁺` from a weighted edge list.
pub fn apsp_trop(edges: &[(&str, &str, f64)]) -> (Program<Trop>, Database<Trop>) {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            2,
            edges
                .iter()
                .map(|(a, b, w)| (tup![*a, *b], Trop::finite(*w))),
        ),
    );
    (apsp_program(), db)
}

/// The quadratic (non-linear) transitive closure of Example 6.6 over 𝔹:
///
/// `T(x, y) :- E(x, y) ∨ ∃z ( T(x, z) ∧ T(z, y) )`
pub fn quadratic_tc_program<P: Pops>() -> Program<P> {
    let mut p = Program::new();
    p.rule(
        Atom::new("T", vec![Term::v(0), Term::v(1)]),
        vec![
            SumProduct::new(vec![Factor::atom("E", vec![Term::v(0), Term::v(1)])]),
            SumProduct::new(vec![
                Factor::atom("T", vec![Term::v(0), Term::v(2)]),
                Factor::atom("T", vec![Term::v(2), Term::v(1)]),
            ]),
        ],
    );
    p
}

/// Quadratic transitive closure over 𝔹 from an edge list.
pub fn quadratic_tc_bool(
    edges: &[(&str, &str)],
) -> (Program<dlo_pops::Bool>, Database<dlo_pops::Bool>) {
    let mut db = Database::new();
    db.insert(
        "E",
        bool_relation(2, edges.iter().map(|(a, b)| tup![*a, *b])),
    );
    (quadratic_tc_program(), db)
}

/// Linear transitive closure (eq. 2) over 𝔹 from an edge list.
pub fn linear_tc_bool(
    edges: &[(&str, &str)],
) -> (Program<dlo_pops::Bool>, Database<dlo_pops::Bool>) {
    let mut db = Database::new();
    db.insert(
        "E",
        bool_relation(2, edges.iter().map(|(a, b)| tup![*a, *b])),
    );
    (apsp_program(), db)
}

/// The bill-of-material program of Example 4.2, generic over the POPS:
///
/// `T(x) :- C(x) ⊕ ⊕_y { T(y) | E(x, y) }`
///
/// `E` is a Boolean EDB (the subpart graph), `C` a `P`-relation of costs.
pub fn bom_program<P: Pops>() -> Program<P> {
    let mut p = Program::new();
    p.rule(
        Atom::new("T", vec![Term::v(0)]),
        vec![
            SumProduct::new(vec![Factor::atom("C", vec![Term::v(0)])]),
            SumProduct::new(vec![Factor::atom("T", vec![Term::v(1)])])
                .with_condition(Formula::atom("E", vec![Term::v(0), Term::v(1)])),
        ],
    );
    p
}

/// The Fig. 2(b) subpart graph: a↔b, a→c, b→c, c→d.
pub fn fig2b_bool_edges() -> BoolDatabase {
    let mut db = BoolDatabase::new();
    db.insert(
        "E",
        bool_relation(
            2,
            vec![
                tup!["a", "b"],
                tup!["a", "c"],
                tup!["b", "a"],
                tup!["b", "c"],
                tup!["c", "d"],
            ],
        ),
    );
    db
}

/// Example 4.2 over the lifted reals: costs `C(a)=C(b)=C(c)=1`, `C(d)=10`
/// (Fig. 2(b)); converges in 3 steps to `T = (⊥, ⊥, 11, 10)`.
pub fn bom_lifted_reals() -> (Program<LiftedReal>, Database<LiftedReal>, BoolDatabase) {
    use dlo_pops::lifted::lreal;
    let mut pops = Database::new();
    pops.insert(
        "C",
        Relation::from_pairs(
            1,
            vec![
                (tup!["a"], lreal(1.0)),
                (tup!["b"], lreal(1.0)),
                (tup!["c"], lreal(1.0)),
                (tup!["d"], lreal(10.0)),
            ],
        ),
    );
    (bom_program(), pops, fig2b_bool_edges())
}

/// Example 4.2 over ℕ (diverges: a and b lie on a cycle).
pub fn bom_naturals() -> (
    Program<dlo_pops::Nat>,
    Database<dlo_pops::Nat>,
    BoolDatabase,
) {
    use dlo_pops::Nat;
    let mut pops = Database::new();
    pops.insert(
        "C",
        Relation::from_pairs(
            1,
            vec![
                (tup!["a"], Nat(1)),
                (tup!["b"], Nat(1)),
                (tup!["c"], Nat(1)),
                (tup!["d"], Nat(10)),
            ],
        ),
    );
    (bom_program(), pops, fig2b_bool_edges())
}

/// The company-control program of Example 4.3, expressed over the single
/// POPS `ℝ₊` with the monotone threshold indicator:
///
/// ```text
/// CV(x, z, y) :- [x = z] ⊗ S(x, y)  ⊕  thr(C(x, z)) ⊗ S(z, y)
/// T(x, y)     :- ⊕_z { CV(x, z, y) | Company(z) }
/// C(x, y)     :- thr₀.₅(T(x, y))
/// ```
///
/// where `thr₀.₅(v) = [v > 0.5]` maps the accumulated share weight back
/// into 0/1. `C` is an IDB wrapped in the threshold on *use*.
pub fn company_control(
    companies: &[&str],
    shares: &[(&str, &str, f64)],
) -> (Program<NNReal>, Database<NNReal>, BoolDatabase) {
    let thr = UnaryFn::new("thr0.5", |v: &NNReal| v.threshold(0.5));
    let mut p = Program::new();
    // T(x,y) :- Σ_z {CV terms}: we inline CV to keep one stratum:
    // T(x,y) :- {S(x,y)} ⊕ ⊕_z { thr(T'(x,z)) ⊗ S(z,y) | Company(z) }
    // with T'(x,z) the controlled-transfer value; the paper's C(x,z) is
    // thr(T(x,z)), applied on use.
    p.rule(
        Atom::new("T", vec![Term::v(0), Term::v(1)]),
        vec![
            SumProduct::new(vec![Factor::atom("S", vec![Term::v(0), Term::v(1)])]),
            SumProduct::new(vec![
                Factor::wrapped("T", vec![Term::v(0), Term::v(2)], thr),
                Factor::atom("S", vec![Term::v(2), Term::v(1)]),
            ])
            .with_condition(
                Formula::atom("Company", vec![Term::v(2)]).and(Formula::cmp(
                    Term::v(2),
                    CmpOp::Ne,
                    Term::v(0),
                )),
            ),
        ],
    );
    let mut pops = Database::new();
    pops.insert(
        "S",
        Relation::from_pairs(
            2,
            shares
                .iter()
                .map(|(a, b, w)| (tup![*a, *b], NNReal::of(*w))),
        ),
    );
    let mut bools = BoolDatabase::new();
    bools.insert(
        "Company",
        bool_relation(1, companies.iter().map(|c| tup![*c])),
    );
    (p, pops, bools)
}

/// The prefix-sum program of Sec. 4.5 over the lifted reals, using a case
/// statement and the interpreted key function `i - 1`:
///
/// `W(i) :- case i = 0 : V(0) ; i < n : W(i-1) + V(i)`
pub fn prefix_sum(values: &[f64]) -> (Program<LiftedReal>, Database<LiftedReal>) {
    use crate::ast::{desugar_case, CaseBranch, KeyFn};
    use dlo_pops::lifted::lreal;
    let n = values.len() as i64;
    let body = desugar_case(
        vec![
            CaseBranch {
                condition: Formula::cmp(Term::v(0), CmpOp::Eq, Term::c(0)),
                body: vec![SumProduct::new(vec![Factor::atom("V", vec![Term::c(0)])])],
            },
            CaseBranch {
                condition: Formula::cmp(Term::v(0), CmpOp::Lt, Term::c(n)),
                // W(i-1) ⊕ V(i): a sum of two sum-products (⊕ is the
                // arithmetic + of the lifted reals here).
                body: vec![
                    SumProduct::new(vec![Factor::atom(
                        "W",
                        vec![Term::Apply(KeyFn::AddInt(-1), Box::new(Term::v(0)))],
                    )]),
                    SumProduct::new(vec![Factor::atom("V", vec![Term::v(0)])]),
                ],
            },
        ],
        vec![],
    );
    let mut p = Program::new();
    p.rule(Atom::new("W", vec![Term::v(0)]), body);
    let mut db = Database::new();
    db.insert(
        "V",
        Relation::from_pairs(
            1,
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (tup![i as i64], lreal(*v))),
        ),
    );
    (p, db)
}

/// The Sec. 4.5 prefix program in *head-keyed* form, generic over the
/// POPS:
///
/// `W(0) :- V(0)` and `W(i + 1) :- W(i) ⊗ V(i + 1)`
///
/// Where [`prefix_sum`] looks *backwards* with a body key function
/// (`W(i-1)`), this version computes the next key **in the head** — the
/// form that exercises grounding-time/emit-time key functions and, on
/// the execution engine, dynamic interning of head-minted constants.
/// Each key has exactly one derivation, so over any POPS the fixpoint is
/// `W(i) = V(0) ⊗ … ⊗ V(i)`: genuine prefix sums over `Trop⁺` (⊗ = +)
/// or the lifted reals.
pub fn prefix_sum_keyed<P: Pops>(
    values: &[f64],
    lift: impl Fn(f64) -> P,
) -> (Program<P>, Database<P>) {
    use crate::ast::KeyFn;
    let mut p = Program::new();
    p.rule(
        Atom::new("W", vec![Term::c(0)]),
        vec![SumProduct::new(vec![Factor::atom("V", vec![Term::c(0)])])],
    );
    p.rule(
        Atom::new(
            "W",
            vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
        ),
        vec![SumProduct::new(vec![
            Factor::atom("W", vec![Term::v(0)]),
            Factor::atom(
                "V",
                vec![Term::Apply(KeyFn::AddInt(1), Box::new(Term::v(0)))],
            ),
        ])],
    );
    let mut db = Database::new();
    db.insert(
        "V",
        Relation::from_pairs(
            1,
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (tup![i as i64], lift(*v))),
        ),
    );
    (p, db)
}

/// The keys-to-values example of Sec. 4.5 over `Trop⁺`:
///
/// `ShortestLength(x, y) :- min_c { [Length(x, y, c)] + c }`
///
/// where `Length` is a Boolean EDB and the key `c` becomes a tropical
/// value. Implemented with a per-constant coefficient grounding: the
/// harness materializes `{ c | Length(x,y,c) }` into a Trop EDB `Len` with
/// value `c` at tuple `(x, y, c)`, then sums it out — which is exactly the
/// paper's desugaring of key-to-value casts.
pub fn shortest_length(lengths: &[(&str, &str, i64)]) -> (Program<Trop>, Database<Trop>) {
    let mut p = Program::new();
    p.rule(
        Atom::new("ShortestLength", vec![Term::v(0), Term::v(1)]),
        vec![SumProduct::new(vec![Factor::atom(
            "Len",
            vec![Term::v(0), Term::v(1), Term::v(2)],
        )])],
    );
    let mut db = Database::new();
    db.insert(
        "Len",
        Relation::from_pairs(
            3,
            lengths
                .iter()
                .map(|(x, y, c)| (tup![*x, *y, *c], Trop::finite(*c as f64))),
        ),
    );
    (p, db)
}

/// The win-move program of Sec. 7 over `THREE`:
///
/// `Win(x) :- ⊕_y ( E(x, y) ⊗ not(Win(y)) )`
///
/// with `E` Boolean and `not` the monotone Kleene negation.
pub fn win_move_three(edges: &[(&str, &str)]) -> (Program<Three>, BoolDatabase) {
    let notf = UnaryFn::new("not", |x: &Three| x.not());
    let mut p = Program::new();
    p.rule(
        Atom::new("Win", vec![Term::v(0)]),
        vec![
            SumProduct::new(vec![Factor::wrapped("Win", vec![Term::v(1)], notf)])
                .with_condition(Formula::atom("E", vec![Term::v(0), Term::v(1)])),
        ],
    );
    let mut bools = BoolDatabase::new();
    bools.insert(
        "E",
        bool_relation(2, edges.iter().map(|(a, b)| tup![*a, *b])),
    );
    (p, bools)
}

/// The Fig. 4 win-move graph: a→b, a→c, b→a, c→d, c→e, d→e, e→f.
pub fn fig4_edges() -> Vec<(&'static str, &'static str)> {
    vec![
        ("a", "b"),
        ("a", "c"),
        ("b", "a"),
        ("c", "d"),
        ("c", "e"),
        ("d", "e"),
        ("e", "f"),
    ]
}

/// A named constant helper (re-exported for harness code).
pub fn konst(name: &str) -> Constant {
    Constant::str(name)
}
