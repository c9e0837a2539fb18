//! Elastic sensitivity (Flex — Johnson, Near & Song, 2018): the paper's
//! accuracy baseline, re-implemented from scratch.
//!
//! Elastic sensitivity upper-bounds the local sensitivity at distance `k`
//! by static rules over a binary join plan, using only per-relation
//! **max-frequency** statistics `mf(X, R)` (the largest number of rows of
//! `R` sharing one value of the attribute set `X`):
//!
//! ```text
//! Ŝ(E1 ⋈_J E2, r) = max( mf(J,E1)·Ŝ(E2,r), mf(J,E2)·Ŝ(E1,r), Ŝ(E1,r)·Ŝ(E2,r) )
//! mf(X, E1 ⋈_J E2) = min( mf(X∩A1,E1) · mf(J ∪ (X∩A2), E2),
//!                          mf(X∩A2,E2) · mf(J ∪ (X∩A1), E1) )
//! ```
//!
//! Following §7.2 of the paper, the baseline is extended with:
//! * **cross products**: `mf(∅, R) = |R|` ("assign the max frequency of
//!   empty attributes as the size of the table");
//! * an explicit **join plan** (the post-order of the decomposition tree)
//!   so TSens and Elastic join in the same order.
//!
//! Faithful to Flex's known weaknesses, selection predicates are ignored
//! (its static analysis "will output the same value as for a query without
//! the selection operators") — that is part of why TSens beats it.

use crate::session::SessionExt;
use std::collections::BTreeSet;
use std::sync::Arc;
use tsens_data::{
    sat_add, sat_mul, AttrId, Count, Database, FastMap, Relation, Row, Schema, TsensError,
};
use tsens_engine::session::EngineSession;
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// Elastic sensitivity bounds for a query: one bound per atom treated as
/// the (only) private relation, plus the overall maximum.
#[derive(Clone, Debug)]
pub struct ElasticReport {
    /// `(relation index, elastic bound when that relation is private)`,
    /// in query-atom order.
    pub per_relation: Vec<(usize, Count)>,
    /// `max` over `per_relation` — the elastic bound on `LS(Q, D)`.
    pub overall: Count,
}

/// The paper's join order: a post-order traversal of the decomposition
/// tree, visiting each bag's atoms in bag order.
pub fn plan_order_from_tree(tree: &DecompositionTree) -> Vec<usize> {
    let mut order = Vec::new();
    for v in tree.post_order() {
        order.extend(tree.bags()[v].atoms.iter().copied());
    }
    order
}

type AttrSet = BTreeSet<AttrId>;

/// Where the oracle's base-relation `mf` statistics come from.
///
/// All three sources compute the **same numbers** for the same logical
/// database: a direct scan of one catalog, a session's shared
/// cross-query `mf` cache (which additionally amortizes them across
/// atoms, plans, distances and queries), or a merge across hash-shard
/// sessions. The merge is exact, not a bound: the shards' relations are
/// a partition of the global relation's rows, so projecting each
/// shard's rows into one shared frequency map reproduces the global
/// multiplicity of every projection value — elastic sensitivity is a
/// pure function of `mf`, so a sharded engine reports *identical*
/// elastic bounds to an unsharded one, for any query (no co-partition
/// requirement).
#[derive(Clone, Copy)]
pub(crate) enum BaseMf<'a> {
    /// Scan the oracle's own catalog.
    Db,
    /// A warm session's shared statistics cache.
    Session(&'a EngineSession<'a>),
    /// Merge raw rows across shard snapshots (global mf).
    Shards(&'a [Arc<EngineSession<'static>>]),
}

/// Max-frequency oracle over the base relations, with memoised
/// plan-expression lookups layered on top. See [`BaseMf`] for the
/// statistic sources.
struct MfOracle<'a> {
    db: &'a Database,
    /// Base-relation statistic source.
    source: BaseMf<'a>,
    /// Atom order in the plan; `plan[j]`'s relation backs leaf `j`.
    plan_atoms: Vec<(usize, Schema)>, // (relation idx, schema)
    /// Cumulative schema of expression node `j` (join of leaves `0..=j`).
    node_attrs: Vec<AttrSet>,
    /// Memo: (node, attr set) → mf bound.
    memo: FastMap<(usize, Vec<AttrId>), Count>,
    /// Base-relation mf cache: (relation, attr set) → mf.
    base_memo: FastMap<(usize, Vec<AttrId>), Count>,
    /// Relation treated as private and the distance k added to its mf.
    private: usize,
    k: Count,
}

impl<'a> MfOracle<'a> {
    fn new(
        db: &'a Database,
        source: BaseMf<'a>,
        cq: &ConjunctiveQuery,
        plan: &[usize],
        private: usize,
        k: Count,
    ) -> Self {
        let plan_atoms: Vec<(usize, Schema)> = plan
            .iter()
            .map(|&ai| {
                let atom = &cq.atoms()[ai];
                (atom.relation, atom.schema.clone())
            })
            .collect();
        let mut node_attrs: Vec<AttrSet> = Vec::with_capacity(plan_atoms.len());
        let mut acc: AttrSet = AttrSet::new();
        for (_, schema) in &plan_atoms {
            acc.extend(schema.attrs().iter().copied());
            node_attrs.push(acc.clone());
        }
        MfOracle {
            db,
            source,
            plan_atoms,
            node_attrs,
            memo: FastMap::default(),
            base_memo: FastMap::default(),
            private,
            k,
        }
    }

    /// mf of attribute set `x` in base relation `rel` (by catalog index):
    /// the max multiplicity of an `x`-projection value; `|rel|` for `∅`.
    fn base_mf(&mut self, rel: usize, x: &AttrSet) -> Count {
        let key = (rel, x.iter().copied().collect::<Vec<_>>());
        if let BaseMf::Session(s) = self.source {
            // The session computes from the resident encoding and shares
            // the statistic across atoms, plans and queries.
            let mf = s
                .max_frequency(rel, &key.1)
                .expect("residency pre-checked at the session entry point");
            return self.bump_private(rel, mf);
        }
        if let Some(&c) = self.base_memo.get(&key) {
            return self.bump_private(rel, c);
        }
        let mf = match self.source {
            BaseMf::Db => scanned_mf(std::iter::once(self.db.relation(rel)), x),
            BaseMf::Shards(sessions) => {
                scanned_mf(sessions.iter().map(|s| s.database().relation(rel)), x)
            }
            BaseMf::Session(_) => unreachable!("handled above"),
        };
        self.base_memo.insert(key, mf);
        self.bump_private(rel, mf)
    }

    #[inline]
    fn bump_private(&self, rel: usize, mf: Count) -> Count {
        if rel == self.private {
            mf.saturating_add(self.k)
        } else {
            mf
        }
    }

    /// Join key of plan step `j ≥ 1`.
    ///
    /// Flex models every join as a **single-column equijoin**; when a
    /// natural join shares several attributes (composite FK keys, the
    /// closing edge of a cycle) only one column's frequency is used. This
    /// looseness is visible in the paper's reported numbers — its Elastic
    /// bound for the 4-cycle q∘ equals the 4-path qw's — so we keep it:
    /// the key is the smallest-id shared attribute (deterministic), or
    /// empty for a cross product.
    fn join_key(&self, j: usize) -> AttrSet {
        self.plan_atoms[j]
            .1
            .attrs()
            .iter()
            .copied()
            .filter(|a| self.node_attrs[j - 1].contains(a))
            .min()
            .into_iter()
            .collect()
    }

    /// mf of attribute set `x` in expression node `j`.
    fn node_mf(&mut self, j: usize, x: &AttrSet) -> Count {
        debug_assert!(x.iter().all(|a| self.node_attrs[j].contains(a)));
        if j == 0 {
            return self.base_mf(self.plan_atoms[0].0, x);
        }
        let key = (j, x.iter().copied().collect::<Vec<_>>());
        if let Some(&c) = self.memo.get(&key) {
            return c;
        }
        let join = self.join_key(j);
        let leaf_attrs: AttrSet = self.plan_atoms[j].1.attrs().iter().copied().collect();
        let x1: AttrSet = x
            .iter()
            .copied()
            .filter(|a| self.node_attrs[j - 1].contains(a))
            .collect();
        let x2: AttrSet = x
            .iter()
            .copied()
            .filter(|a| leaf_attrs.contains(a))
            .collect();
        // Anchor on the left subplan: each left row joins ≤ mf(J ∪ X2, leaf).
        let j_or_x2: AttrSet = join.union(&x2).copied().collect();
        let b1 = sat_mul(
            self.node_mf(j - 1, &x1),
            self.base_mf(self.plan_atoms[j].0, &j_or_x2),
        );
        // Anchor on the right leaf.
        let j_or_x1: AttrSet = join.union(&x1).copied().collect();
        let b2 = sat_mul(
            self.base_mf(self.plan_atoms[j].0, &x2),
            self.node_mf(j - 1, &j_or_x1),
        );
        let mf = b1.min(b2);
        self.memo.insert(key, mf);
        mf
    }

    /// Elastic sensitivity of the full plan w.r.t. the private relation.
    fn sensitivity(&mut self) -> Count {
        // S over the left-deep spine. S(leaf) = 1 iff private.
        let mut s: Count = u128::from(self.plan_atoms[0].0 == self.private);
        for j in 1..self.plan_atoms.len() {
            let join = self.join_key(j);
            let leaf_rel = self.plan_atoms[j].0;
            let s_leaf: Count = u128::from(leaf_rel == self.private);
            let mf_left = self.node_mf(j - 1, &join);
            let mf_leaf = self.base_mf(leaf_rel, &join);
            // max( mf(J,E1)·S(E2), mf(J,E2)·S(E1), S(E1)·S(E2) )
            s = sat_mul(mf_left, s_leaf)
                .max(sat_mul(mf_leaf, s))
                .max(sat_mul(s, s_leaf));
        }
        s
    }
}

/// mf of attribute set `x` over the rows of `rels` taken together —
/// with a single relation, the textbook scan; with several (the shard
/// path) an exact merge: one shared frequency map accumulates every
/// shard's `x`-projections, so a value split across shards counts its
/// **global** multiplicity. `∅` sums the table sizes.
fn scanned_mf<'r>(rels: impl Iterator<Item = &'r Relation>, x: &AttrSet) -> Count {
    if x.is_empty() {
        return rels.fold(0, |acc, r| sat_add(acc, r.len() as Count));
    }
    let mut counts: FastMap<Row, Count> = FastMap::default();
    let mut max = 0;
    for r in rels {
        let positions: Vec<usize> = x
            .iter()
            .map(|&a| r.schema().position(a).expect("attr must be in relation"))
            .collect();
        for row in r.rows() {
            let key: Row = positions.iter().map(|&i| row[i].clone()).collect();
            let slot = counts.entry(key).or_insert(0);
            *slot += 1;
            max = max.max(*slot);
        }
    }
    max
}

/// Compute elastic sensitivity bounds at distance `k` (use `k = 0` for a
/// local-sensitivity bound, as in the paper's experiments) over the given
/// left-deep `plan` (atom indices; see [`plan_order_from_tree`]).
///
/// # Panics
/// Panics if `plan` is not a permutation of the query's atom indices.
pub fn elastic_sensitivity(
    db: &Database,
    cq: &ConjunctiveQuery,
    plan: &[usize],
    k: Count,
) -> ElasticReport {
    elastic_report(db, BaseMf::Db, cq, plan, k)
}

/// [`elastic_sensitivity`] over pinned hash-shard snapshots: base
/// max-frequency statistics are merged across all shards' raw rows
/// ([`BaseMf::Shards`]), which reproduces the global statistics
/// **exactly** — the report equals the unsharded one for any query, with
/// no co-partition requirement (unlike sharded counts and TSens, elastic
/// depends on the data only through `mf`). A single shard delegates to
/// the session path and its shared statistics cache.
///
/// # Errors
/// Propagates session residency errors (single-shard path only).
///
/// # Panics
/// Panics if `sessions` is empty or `plan` is not a permutation of the
/// query's atom indices.
pub fn elastic_sensitivity_sharded(
    sessions: &[Arc<EngineSession<'static>>],
    cq: &ConjunctiveQuery,
    plan: &[usize],
    k: Count,
) -> Result<ElasticReport, TsensError> {
    assert!(!sessions.is_empty(), "need at least one shard");
    if sessions.len() == 1 {
        return sessions[0].elastic_sensitivity(cq, plan, k);
    }
    Ok(elastic_report(
        sessions[0].database(),
        BaseMf::Shards(sessions),
        cq,
        plan,
        k,
    ))
}

/// Elastic sensitivity from one statistics source — the shared body of
/// [`elastic_sensitivity`], [`elastic_sensitivity_sharded`] and
/// [`SessionExt::elastic_sensitivity`].
pub(crate) fn elastic_report(
    db: &Database,
    source: BaseMf<'_>,
    cq: &ConjunctiveQuery,
    plan: &[usize],
    k: Count,
) -> ElasticReport {
    let mut sorted = plan.to_vec();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..cq.atom_count()).collect::<Vec<_>>(),
        "plan must be a permutation of atom indices"
    );
    let mut per_relation = Vec::with_capacity(cq.atom_count());
    let mut overall: Count = 0;
    for atom in cq.atoms() {
        let mut oracle = MfOracle::new(db, source, cq, plan, atom.relation, k);
        let s = oracle.sensitivity();
        overall = overall.max(s);
        per_relation.push((atom.relation, s));
    }
    ElasticReport {
        per_relation,
        overall,
    }
}

/// Flex's **β-smooth** elastic sensitivity:
/// `Ŝ_β = max_{k ≥ 0} e^{−βk} · Ŝ(k)`, where `Ŝ(k)` is the elastic bound
/// at distance `k` ([`elastic_sensitivity`]). Flex calibrates its noise
/// with this smooth upper bound (Nissim et al.'s framework); the paper's
/// experiments use the `k = 0` point, but the full curve is provided for
/// completeness.
///
/// `k` is scanned up to `k_max`; since `Ŝ(k)` grows polynomially in `k`
/// while `e^{−βk}` decays exponentially, the maximum is attained at small
/// `k` for any `β > 0` and the scan also stops early once ten consecutive
/// `k` fail to improve the running maximum.
///
/// # Panics
/// Panics if `beta ≤ 0`.
pub fn smooth_elastic_bound(
    db: &Database,
    cq: &ConjunctiveQuery,
    plan: &[usize],
    beta: f64,
    k_max: Count,
) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    let mut best = 0.0f64;
    let mut since_improved = 0u32;
    let mut k: Count = 0;
    while k <= k_max {
        let s = elastic_sensitivity(db, cq, plan, k).overall as f64;
        let term = (-beta * k as f64).exp() * s;
        if term > best {
            best = term;
            since_improved = 0;
        } else {
            since_improved += 1;
            if since_improved >= 10 {
                break;
            }
        }
        k += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Relation, Value};
    use tsens_query::gyo_decompose;

    fn two_rel_db(r_rows: &[(i64, i64)], s_rows: &[(i64, i64)]) -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let mk = |rows: &[(i64, i64)], s1, s2| {
            Relation::from_rows(
                Schema::new(vec![s1, s2]),
                rows.iter()
                    .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
                    .collect(),
            )
        };
        db.add_relation("R", mk(r_rows, a, b)).unwrap();
        db.add_relation("S", mk(s_rows, b, c)).unwrap();
        let q = ConjunctiveQuery::over(&db, "rs", &["R", "S"]).unwrap();
        (db, q)
    }

    #[test]
    fn single_join_elastic_is_max_frequency() {
        // R(A,B): b=1 appears 3×; S(B,C): b=1 appears 2×.
        let (db, q) = two_rel_db(
            &[(1, 1), (2, 1), (3, 1), (4, 2)],
            &[(1, 10), (1, 11), (2, 12)],
        );
        let report = elastic_sensitivity(&db, &q, &[0, 1], 0);
        // Private R: a new R-row can join ≤ mf(B, S) = 2 rows.
        assert_eq!(report.per_relation[0], (0, 2));
        // Private S: ≤ mf(B, R) = 3.
        assert_eq!(report.per_relation[1], (1, 3));
        assert_eq!(report.overall, 3);
    }

    #[test]
    fn elastic_upper_bounds_true_local_sensitivity() {
        let (db, q) = two_rel_db(&[(1, 1), (2, 1), (3, 2)], &[(1, 10), (2, 11), (2, 12)]);
        let report = elastic_sensitivity(&db, &q, &[0, 1], 0);
        let truth = crate::naive::naive_local_sensitivity(&db, &q);
        assert!(report.overall >= truth.local_sensitivity);
    }

    #[test]
    fn distance_k_inflates_private_frequencies() {
        let (db, q) = two_rel_db(&[(1, 1)], &[(1, 10)]);
        let k0 = elastic_sensitivity(&db, &q, &[0, 1], 0);
        let k5 = elastic_sensitivity(&db, &q, &[0, 1], 5);
        assert!(k5.overall >= k0.overall);
        // Private S at distance 5: mf(B, S) grows by 5, so the bound for R… —
        // elastic for private R uses mf of S at distance… both must not shrink.
        for (a, b) in k0.per_relation.iter().zip(k5.per_relation.iter()) {
            assert!(b.1 >= a.1);
        }
    }

    #[test]
    fn cross_product_uses_table_size() {
        let mut db = Database::new();
        let [a, b] = db.attrs(["A", "B"]);
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a]),
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                    vec![Value::Int(3)],
                ],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(Schema::new(vec![b]), vec![vec![Value::Int(7)]; 2]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "x", &["R", "S"]).unwrap();
        let report = elastic_sensitivity(&db, &q, &[0, 1], 0);
        // Adding a row to R multiplies with all |S| = 2 rows, and vice versa.
        assert_eq!(report.per_relation[0], (0, 2));
        assert_eq!(report.per_relation[1], (1, 3));
    }

    #[test]
    fn plan_order_covers_all_atoms() {
        let (db, q) = two_rel_db(&[(1, 1)], &[(1, 2)]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("acyclic");
        let plan = plan_order_from_tree(&tree);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        let _ = db;
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_plan_rejected() {
        let (db, q) = two_rel_db(&[(1, 1)], &[(1, 2)]);
        let _ = elastic_sensitivity(&db, &q, &[0, 0], 0);
    }

    #[test]
    fn three_hop_path_multiplies_frequencies() {
        // Path R1(A,B) R2(B,C) R3(C,D) with known frequencies:
        // mf(B,R1)=2, mf(B,R2)=1, mf(C,R2)=1, mf(C,R3)=3.
        let mut db = Database::new();
        let [a, b, c, d] = db.attrs(["A", "B", "C", "D"]);
        let rows = |v: &[(i64, i64)]| -> Vec<Vec<Value>> {
            v.iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
                .collect()
        };
        db.add_relation(
            "R1",
            Relation::from_rows(Schema::new(vec![a, b]), rows(&[(1, 1), (2, 1), (3, 2)])),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(Schema::new(vec![b, c]), rows(&[(1, 5), (2, 6)])),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(
                Schema::new(vec![c, d]),
                rows(&[(5, 1), (5, 2), (5, 3), (6, 1)]),
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "p3", &["R1", "R2", "R3"]).unwrap();
        let report = elastic_sensitivity(&db, &q, &[0, 1, 2], 0);
        // Private R2: a new (b,c) row joins ≤ mf(B,R1) × mf(C,R3) = 2 × 3 = 6.
        assert_eq!(report.per_relation[1].1, 6);
        // Exact LS (naive) is bounded by elastic for every relation.
        let truth = crate::naive::naive_local_sensitivity(&db, &q);
        for ((_, e), t) in report.per_relation.iter().zip(truth.per_relation.iter()) {
            assert!(*e >= t.sensitivity);
        }
    }

    #[test]
    fn smooth_bound_dominates_distance_zero() {
        let (db, q) = two_rel_db(&[(1, 1), (2, 1)], &[(1, 10), (1, 11)]);
        let k0 = elastic_sensitivity(&db, &q, &[0, 1], 0).overall as f64;
        let smooth = smooth_elastic_bound(&db, &q, &[0, 1], 0.1, 100);
        assert!(smooth >= k0, "smooth {smooth} < Ŝ(0) {k0}");
    }

    #[test]
    fn smooth_bound_shrinks_with_beta() {
        let (db, q) = two_rel_db(&[(1, 1), (2, 1)], &[(1, 10), (1, 11)]);
        let loose = smooth_elastic_bound(&db, &q, &[0, 1], 0.01, 200);
        let tight = smooth_elastic_bound(&db, &q, &[0, 1], 1.0, 200);
        assert!(tight <= loose);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn smooth_bound_rejects_bad_beta() {
        let (db, q) = two_rel_db(&[(1, 1)], &[(1, 10)]);
        let _ = smooth_elastic_bound(&db, &q, &[0, 1], 0.0, 10);
    }
}
