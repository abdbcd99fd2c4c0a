//! Queries: a goal atom with constant bindings and free positions.
//!
//! A query `?- T("a", Y).` asks for the rows of the IDB `T` whose first
//! column is `"a"`, with `Y` ranging free. The bound/free pattern per
//! argument is the query's **adornment** (the classic magic-sets `b`/`f`
//! string); [`crate::demand::magic_rewrite`] turns a program plus a
//! query into a demand-restricted program that derives only what the
//! query can reach.
//!
//! A query is POPS-independent: its bindings live in the key space, so
//! one `Query` value works against a program over any value space.

use crate::relation::Relation;
use crate::value::Constant;
use dlo_pops::Pops;
use std::fmt;

/// One query argument: a constant binding or a free position.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum QueryArg {
    /// A bound argument: answers must carry exactly this constant.
    Bound(Constant),
    /// A free argument: answers range over it.
    Free,
}

impl QueryArg {
    /// Shorthand for a bound argument.
    pub fn bound(c: impl Into<Constant>) -> QueryArg {
        QueryArg::Bound(c.into())
    }
}

impl fmt::Debug for QueryArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryArg::Bound(c) => write!(f, "{c:?}"),
            QueryArg::Free => write!(f, "_"),
        }
    }
}

/// A query: a goal predicate with per-argument bindings.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// The queried predicate (an IDB of the program).
    pub pred: String,
    /// The argument pattern.
    pub args: Vec<QueryArg>,
}

impl Query {
    /// Constructs a query.
    pub fn new(pred: &str, args: Vec<QueryArg>) -> Query {
        Query {
            pred: pred.to_string(),
            args,
        }
    }

    /// A point query: every argument bound.
    pub fn point(pred: &str, consts: Vec<Constant>) -> Query {
        Query {
            pred: pred.to_string(),
            args: consts.into_iter().map(QueryArg::Bound).collect(),
        }
    }

    /// An all-free query (demands the full relation).
    pub fn all(pred: &str, arity: usize) -> Query {
        Query {
            pred: pred.to_string(),
            args: vec![QueryArg::Free; arity],
        }
    }

    /// The query's arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The bound/free adornment (`true` = bound), in argument order.
    pub fn adornment(&self) -> Vec<bool> {
        self.args
            .iter()
            .map(|a| matches!(a, QueryArg::Bound(_)))
            .collect()
    }

    /// Whether any argument is bound (an all-free query triggers no
    /// demand restriction: everything is demanded).
    pub fn has_bound(&self) -> bool {
        self.args.iter().any(|a| matches!(a, QueryArg::Bound(_)))
    }

    /// The bound constants, in argument order (skipping free positions).
    pub fn bound_consts(&self) -> Vec<&Constant> {
        self.args
            .iter()
            .filter_map(|a| match a {
                QueryArg::Bound(c) => Some(c),
                QueryArg::Free => None,
            })
            .collect()
    }

    /// Whether `tuple` matches the query's bound positions.
    pub fn matches(&self, tuple: &[Constant]) -> bool {
        tuple.len() == self.args.len()
            && self.args.iter().zip(tuple).all(|(a, c)| match a {
                QueryArg::Bound(b) => b == c,
                QueryArg::Free => true,
            })
    }

    /// Restricts a relation to the rows matching this query. A support
    /// is distinct and already ordered, so the rows go into one bulk
    /// build rather than one merge each.
    pub fn restrict<P: Pops>(&self, rel: &Relation<P>) -> Relation<P> {
        Relation::from_distinct_pairs(
            rel.arity(),
            rel.support()
                .filter(|(t, _)| self.matches(t))
                .map(|(t, v)| (t.clone(), v.clone())),
        )
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.args.iter().map(|a| format!("{a:?}")).collect();
        write!(f, "?- {}({}).", self.pred, args.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use dlo_pops::Trop;

    #[test]
    fn adornment_and_matching() {
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        assert_eq!(q.adornment(), vec![true, false]);
        assert!(q.has_bound());
        assert!(q.matches(&["a".into(), "b".into()]));
        assert!(!q.matches(&["b".into(), "a".into()]));
        assert!(!q.matches(&["a".into()]));
        assert_eq!(q.bound_consts(), vec![&Constant::str("a")]);
        assert!(!Query::all("T", 2).has_bound());
    }

    #[test]
    fn restriction_filters_rows() {
        let rel = Relation::from_pairs(
            2,
            vec![
                (tup!["a", "b"], Trop::finite(1.0)),
                (tup!["a", "c"], Trop::finite(2.0)),
                (tup!["b", "c"], Trop::finite(3.0)),
            ],
        );
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        let r = q.restrict(&rel);
        assert_eq!(r.support_size(), 2);
        assert_eq!(r.get(&tup!["a", "c"]), Trop::finite(2.0));
        assert!(r.get(&tup!["b", "c"]).is_bottom());
    }

    #[test]
    fn debug_renders_query_syntax() {
        let q = Query::new("T", vec![QueryArg::bound("a"), QueryArg::Free]);
        assert_eq!(format!("{q:?}"), "?- T(a, _).");
    }
}
