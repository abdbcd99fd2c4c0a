//! Reference solvers, written against the generated inputs and sharing
//! no code with the engine: Floyd–Warshall, Dijkstra, the gradient
//! graph's closed form, and a hash join. Weights are integer-valued
//! (or halves) in `f64`, so every sum is exact and answers compare
//! with `==`.

use crate::gen::{Graph, Wide};
use dlo_core::Relation;
use dlo_pops::Trop;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// One relation's expected rows, ascending by key.
pub type Rows = Vec<(Vec<i64>, f64)>;

const INF: f64 = f64::INFINITY;

/// All-pairs shortest **non-empty** paths (`d[i][i]` is the shortest
/// cycle through `i`, as `T(X,Y) :- E(X,Y) + T(X,Z) * E(Z,Y)` defines
/// it), row-major `n × n`, `∞` where there is no path.
pub fn floyd_warshall(g: &Graph) -> Vec<f64> {
    let n = g.n;
    let mut d = vec![INF; n * n];
    for &(u, v, w) in &g.edges {
        let cell = &mut d[u as usize * n + v as usize];
        *cell = cell.min(w);
    }
    for k in 0..n {
        let row_k = d[k * n..(k + 1) * n].to_vec();
        for i in 0..n {
            let ik = d[i * n + k];
            if ik == INF {
                continue;
            }
            for (cell, &kj) in d[i * n..(i + 1) * n].iter_mut().zip(&row_k) {
                *cell = cell.min(ik + kj);
            }
        }
    }
    d
}

/// Shortest paths from `source`. With `empty_path` the source is at
/// distance 0 (Example 4.1's `[X = source]` base case); without it
/// only paths of at least one edge count, which is what a row of the
/// all-pairs program holds.
pub fn dijkstra(adj: &[Vec<(u32, f64)>], source: u32, empty_path: bool) -> Vec<f64> {
    let mut dist = vec![INF; adj.len()];
    // Weights are non-negative halves of integers: order by 2·d as u64.
    let key = |d: f64| Reverse((2.0 * d) as u64);
    let mut heap = BinaryHeap::new();
    if empty_path {
        dist[source as usize] = 0.0;
        heap.push((key(0.0), source));
    } else {
        for &(v, w) in &adj[source as usize] {
            if w < dist[v as usize] {
                dist[v as usize] = w;
                heap.push((key(w), v));
            }
        }
    }
    while let Some((Reverse(k), u)) = heap.pop() {
        let du = dist[u as usize];
        if k as f64 / 2.0 > du {
            continue;
        }
        for &(v, w) in &adj[u as usize] {
            if du + w < dist[v as usize] {
                dist[v as usize] = du + w;
                heap.push((key(du + w), v));
            }
        }
    }
    dist
}

/// Distances from node 0 on [`Graph::gradient`]: `dist(i) = i`.
pub fn gradient_closed_form(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

/// `T(i, j)` rows of a distance matrix.
pub fn matrix_rows(n: usize, d: &[f64]) -> Rows {
    let cells = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
    cells
        .filter(|&(i, j)| d[i * n + j] < INF)
        .map(|(i, j)| (vec![i as i64, j as i64], d[i * n + j]))
        .collect()
}

/// `T(source, j)` rows of one distance vector.
pub fn source_rows(source: u32, dist: &[f64]) -> Rows {
    let reached = dist.iter().enumerate().filter(|(_, &d)| d < INF);
    reached
        .map(|(j, &d)| (vec![i64::from(source), j as i64], d))
        .collect()
}

/// `L(j)` rows of one distance vector.
pub fn unary_rows(dist: &[f64]) -> Rows {
    let reached = dist.iter().enumerate().filter(|(_, &d)| d < INF);
    reached.map(|(j, &d)| (vec![j as i64], d)).collect()
}

/// The two `wide-lookup` heads by hash join, probe side hashed:
/// `Out1(A, D) = min S(A,B,C) + F(A,B,C,D)` and
/// `Out2(A) = min S4(A,B,C,D) + F(A,B,C,D)`, with `S = S4 = 1`.
pub fn wide_join(w: &Wide) -> (Rows, Rows) {
    let s: HashSet<[i64; 3]> = w.s.iter().copied().collect();
    let s4: HashSet<[i64; 4]> = w.s4.iter().copied().collect();
    let mut out1: BTreeMap<Vec<i64>, f64> = BTreeMap::new();
    let mut out2: BTreeMap<Vec<i64>, f64> = BTreeMap::new();
    let merge = |out: &mut BTreeMap<Vec<i64>, f64>, key: Vec<i64>, v: f64| {
        let cell = out.entry(key).or_insert(INF);
        *cell = cell.min(v);
    };
    for (r, weight) in &w.f {
        if s.contains(&[r[0], r[1], r[2]]) {
            merge(&mut out1, vec![r[0], r[3]], 1.0 + weight);
        }
        if s4.contains(r) {
            merge(&mut out2, vec![r[0]], 1.0 + weight);
        }
    }
    (out1.into_iter().collect(), out2.into_iter().collect())
}

/// Compares a decoded relation with its expected rows: same keys, same
/// values, nothing missing and nothing extra. Both sides ascend by key
/// (`Relation` is a `BTreeMap` over integer constants), so one zip
/// covers the whole relation.
pub fn check(pred: &str, got: &Relation<Trop>, expected: &Rows) -> Result<(), String> {
    if got.support_size() != expected.len() {
        return Err(format!(
            "{pred}: {} rows, reference has {}",
            got.support_size(),
            expected.len()
        ));
    }
    for ((tuple, value), (key, want)) in got.support().zip(expected) {
        let same_key =
            tuple.len() == key.len() && tuple.iter().zip(key).all(|(c, k)| c.as_int() == Some(*k));
        if !same_key {
            return Err(format!("{pred}: row {tuple:?}, reference has {key:?}"));
        }
        if value.get() != *want {
            return Err(format!(
                "{pred}{key:?} = {}, reference has {want}",
                value.get()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::int;

    /// 0 →2→ 1 →3→ 2 →1→ 0, 0 →7→ 2, 3 →1→ 0; node 4 is isolated.
    fn five_nodes() -> Graph {
        Graph {
            n: 5,
            edges: vec![
                (0, 1, 2.0),
                (1, 2, 3.0),
                (2, 0, 1.0),
                (0, 2, 7.0),
                (3, 0, 1.0),
            ],
        }
    }

    const X: f64 = INF;
    #[rustfmt::skip]
    const FIVE_NODE_TABLE: [f64; 25] = [
        6.0, 2.0, 5.0, X, X,
        4.0, 6.0, 3.0, X, X,
        1.0, 3.0, 6.0, X, X,
        1.0, 3.0, 6.0, X, X,
        X,   X,   X,   X, X,
    ];

    #[test]
    fn floyd_warshall_matches_the_hand_table() {
        assert_eq!(floyd_warshall(&five_nodes()), FIVE_NODE_TABLE);
    }

    #[test]
    fn dijkstra_matches_the_hand_table_row_by_row() {
        let adj = five_nodes().adjacency();
        for s in 0..5 {
            let row = &FIVE_NODE_TABLE[s * 5..s * 5 + 5];
            assert_eq!(dijkstra(&adj, s as u32, false), row, "source {s}");
        }
        assert_eq!(dijkstra(&adj, 0, true), [0.0, 2.0, 5.0, X, X]);
        assert_eq!(dijkstra(&adj, 4, true), [X, X, X, X, 0.0]);
    }

    #[test]
    fn dijkstra_orders_half_weights() {
        // The live-edits edge weighs 0.5: 0 →0.5→ 1 →1→ 2 beats 0 →2→ 2.
        let adj = vec![vec![(1, 0.5), (2, 2.0)], vec![(2, 1.0)], vec![]];
        assert_eq!(dijkstra(&adj, 0, false), [X, 0.5, 1.5]);
    }

    #[test]
    fn gradient_closed_form_agrees_with_dijkstra() {
        let g = Graph::gradient(5);
        assert_eq!(gradient_closed_form(5), [0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(dijkstra(&g.adjacency(), 0, true), gradient_closed_form(5));
    }

    #[test]
    fn wide_join_matches_the_hand_table() {
        // Five F rows; S holds keys of rows 0, 1, 3; S4 holds rows 1, 4.
        let w = Wide {
            f: vec![
                ([1, 1, 1, 7], 4.0),
                ([1, 2, 1, 7], 2.0),
                ([2, 1, 1, 8], 5.0),
                ([2, 2, 2, 9], 3.0),
                ([1, 3, 3, 7], 6.0),
            ],
            s: vec![[1, 1, 1], [1, 2, 1], [2, 2, 2]],
            s4: vec![[1, 2, 1, 7], [1, 3, 3, 7]],
        };
        let (out1, out2) = wide_join(&w);
        // Out1(1,7) = min(1+4, 1+2); Out1(2,9) = 1+3.
        assert_eq!(out1, [(vec![1, 7], 3.0), (vec![2, 9], 4.0)]);
        // Out2(1) = min(1+2, 1+6).
        assert_eq!(out2, [(vec![1], 3.0)]);
    }

    #[test]
    fn rows_come_out_ascending_and_skip_unreachable() {
        let rows = matrix_rows(5, &FIVE_NODE_TABLE);
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0], (vec![0, 0], 6.0));
        assert_eq!(rows[11], (vec![3, 2], 6.0));
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            source_rows(3, &[1.0, X, 6.0]),
            [(vec![3, 0], 1.0), (vec![3, 2], 6.0)]
        );
        assert_eq!(unary_rows(&[0.0, X, 2.0]), [(vec![0], 0.0), (vec![2], 2.0)]);
    }

    fn relation(rows: &[(&[i64], f64)]) -> Relation<Trop> {
        let pairs = rows
            .iter()
            .map(|(k, v)| (k.iter().map(|&c| int(c)).collect(), Trop::finite(*v)));
        Relation::from_pairs(rows[0].0.len(), pairs)
    }

    #[test]
    fn check_catches_wrong_values_keys_and_counts() {
        let expected: Rows = vec![(vec![0, 1], 2.0), (vec![0, 2], 5.0)];
        assert!(check("T", &relation(&[(&[0, 1], 2.0), (&[0, 2], 5.0)]), &expected).is_ok());
        let wrong_value = relation(&[(&[0, 1], 2.0), (&[0, 2], 4.0)]);
        assert!(check("T", &wrong_value, &expected)
            .unwrap_err()
            .contains("= 4"));
        let wrong_key = relation(&[(&[0, 1], 2.0), (&[0, 3], 5.0)]);
        assert!(check("T", &wrong_key, &expected)
            .unwrap_err()
            .contains("row"));
        let missing = relation(&[(&[0, 1], 2.0)]);
        assert!(check("T", &missing, &expected)
            .unwrap_err()
            .contains("1 rows"));
    }
}
