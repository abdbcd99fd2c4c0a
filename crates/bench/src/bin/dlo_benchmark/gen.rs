//! Seeded input generators. The same seed gives the same edge list and
//! the same tables, byte for byte; the program under test only ever
//! sees the classic `Database` built from them.

use crate::rng::SplitMix64;
use dlo_core::{Constant, Database, Relation};
use dlo_pops::Trop;
use std::collections::HashSet;

/// A weighted digraph over nodes `0..n`; edges are distinct, no loops.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(u32, u32, f64)>,
}

impl Graph {
    /// `m` distinct non-loop edges drawn uniformly, integer weights
    /// `1..=max_w` (integer-valued `f64` sums are exact, so references
    /// compare with `==`).
    pub fn random(n: usize, m: usize, max_w: u64, rng: &mut SplitMix64) -> Graph {
        assert!(n >= 2 && m <= n * (n - 1), "no room for {m} distinct edges");
        let mut seen = HashSet::with_capacity(m);
        let mut edges = Vec::with_capacity(m);
        while edges.len() < m {
            let u = rng.below(n as u64) as u32;
            let v = rng.below(n as u64) as u32;
            if u != v && seen.insert((u, v)) {
                edges.push((u, v, (1 + rng.below(max_w)) as f64));
            }
        }
        Graph { n, edges }
    }

    /// The gradient graph: a unit chain `0 → 1 → … → n-1` plus jumps
    /// `0 → i` of weight `3i`. From node 0 the distance to `i` is `i`,
    /// yet every jump is a worse first guess — a best-first frontier
    /// settles one node per bucket, `n` one-row buckets in all.
    pub fn gradient(n: usize) -> Graph {
        assert!(n >= 3);
        let chain = (0..n as u32 - 1).map(|i| (i, i + 1, 1.0));
        let jumps = (2..n as u32).map(|i| (0, i, 3.0 * f64::from(i)));
        Graph {
            n,
            edges: chain.chain(jumps).collect(),
        }
    }

    /// Out-neighbour lists, for the reference solvers.
    pub fn adjacency(&self) -> Vec<Vec<(u32, f64)>> {
        let mut adj = vec![vec![]; self.n];
        for &(u, v, w) in &self.edges {
            adj[u as usize].push((v, w));
        }
        adj
    }

    /// The EDB `E(u, v) = w` over `Trop`.
    pub fn database(&self) -> Database<Trop> {
        let rows = self
            .edges
            .iter()
            .map(|&(u, v, w)| (vec![int(u.into()), int(v.into())], Trop::finite(w)));
        let mut db = Database::new();
        db.insert("E", Relation::from_pairs(2, rows));
        db
    }
}

/// The tables of `wide-lookup`: a fact table `F(A, B, C, D)` whose
/// `(A, B, C)` is a key, `S` holding the first `probes` keys, and `S4`
/// holding every `rows / probes`-th full row.
#[derive(Clone, Debug, PartialEq)]
pub struct Wide {
    pub f: Vec<([i64; 4], f64)>,
    pub s: Vec<[i64; 3]>,
    pub s4: Vec<[i64; 4]>,
}

impl Wide {
    pub fn random(rows: usize, probes: usize, rng: &mut SplitMix64) -> Wide {
        assert!(probes >= 1 && probes <= rows);
        // Twice the cube root, so the key space is ~8× the row count.
        let domain = 2 * (rows as f64).cbrt() as u64 + 2;
        let mut seen = HashSet::with_capacity(rows);
        let mut f = Vec::with_capacity(rows);
        while f.len() < rows {
            let key = [(); 3].map(|()| rng.below(domain) as i64);
            if seen.insert(key) {
                let d = rng.below(domain) as i64;
                let w = (1 + rng.below(9)) as f64;
                f.push(([key[0], key[1], key[2], d], w));
            }
        }
        let s = f.iter().take(probes).map(|(r, _)| [r[0], r[1], r[2]]);
        let s4 = f
            .iter()
            .step_by(rows / probes)
            .take(probes)
            .map(|(r, _)| *r);
        Wide {
            s: s.collect(),
            s4: s4.collect(),
            f,
        }
    }

    /// The EDB: `F` at its weights, `S` and `S4` at `1` (Trop `1.0`).
    pub fn database(&self) -> Database<Trop> {
        let tuple = |r: &[i64]| r.iter().map(|&c| int(c)).collect::<Vec<_>>();
        let one = Trop::finite(1.0);
        let mut db = Database::new();
        let f = self.f.iter().map(|(r, w)| (tuple(r), Trop::finite(*w)));
        db.insert("F", Relation::from_pairs(4, f));
        let s = self.s.iter().map(|r| (tuple(r), one));
        db.insert("S", Relation::from_pairs(3, s));
        let s4 = self.s4.iter().map(|r| (tuple(r), one));
        db.insert("S4", Relation::from_pairs(4, s4));
        db
    }
}

pub fn int(i: i64) -> Constant {
    Constant::Int(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let g = |seed| Graph::random(50, 200, 16, &mut SplitMix64::new(seed));
        assert_eq!(g(1), g(1));
        assert_ne!(g(1), g(2));
        assert_eq!(g(1).database(), g(1).database());
        let w = |seed| Wide::random(500, 20, &mut SplitMix64::new(seed));
        assert_eq!(w(1), w(1));
        assert_ne!(w(1), w(2));
        assert_eq!(w(1).database(), w(1).database());
    }

    /// Pins seed 1 across commits: a change here changes every number.
    #[test]
    fn seed_one_is_pinned() {
        let g = Graph::random(500, 2000, 16, &mut SplitMix64::new(1));
        assert_eq!(g.edges[..3], PINNED_EDGES);
        let w = Wide::random(500, 20, &mut SplitMix64::new(1));
        assert_eq!(w.f[0], PINNED_ROW);
    }
    const PINNED_EDGES: [(u32, u32, f64); 3] = [(283, 372, 16.0), (381, 438, 9.0), (142, 396, 7.0)];
    const PINNED_ROW: ([i64; 4], f64) = ([9, 11, 15, 7], 4.0);

    #[test]
    fn random_graph_is_simple() {
        let g = Graph::random(30, 400, 16, &mut SplitMix64::new(3));
        let keys: HashSet<_> = g.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(keys.len(), 400);
        assert!(g.edges.iter().all(|&(u, v, w)| u != v
            && (u as usize) < 30
            && (v as usize) < 30
            && (1.0..=16.0).contains(&w)
            && w.fract() == 0.0));
    }

    #[test]
    fn gradient_has_a_chain_and_jumps() {
        let g = Graph::gradient(5);
        assert_eq!(
            g.edges,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (0, 2, 6.0),
                (0, 3, 9.0),
                (0, 4, 12.0)
            ]
        );
    }

    #[test]
    fn wide_keys_are_distinct_and_probes_present() {
        let w = Wide::random(1000, 50, &mut SplitMix64::new(5));
        let keys: HashSet<_> = w.f.iter().map(|(r, _)| [r[0], r[1], r[2]]).collect();
        assert_eq!(keys.len(), 1000);
        assert_eq!((w.s.len(), w.s4.len()), (50, 50));
        assert!(w.s.iter().all(|k| keys.contains(k)));
        assert!(w.s4.iter().all(|r| w.f.iter().any(|(x, _)| x == r)));
    }
}
