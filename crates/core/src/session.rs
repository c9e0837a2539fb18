//! Sensitivity algorithms as session methods — the crate's query API.
//!
//! [`EngineSession`] lives in `tsens-engine` (below this crate in the
//! dependency order), so the TSens algorithms attach to it through an
//! extension trait: `use tsens_core::SessionExt;` and every algorithm of
//! this crate is a method on a warm session. The only other entry points
//! are the one-shot free functions (`tsens`, `tsens_path`,
//! `elastic_sensitivity`, …), which answer a single query without a
//! caller-held session; the TSens ones build a throwaway session and call
//! the method here.
//!
//! ```
//! use tsens_core::SessionExt;
//! use tsens_data::{Database, Relation, Schema, Value};
//! use tsens_engine::EngineSession;
//! use tsens_query::{gyo_decompose, ConjunctiveQuery};
//!
//! let mut db = Database::new();
//! let [a, b] = db.attrs(["A", "B"]);
//! db.add_relation(
//!     "R",
//!     Relation::from_rows(
//!         Schema::new(vec![a, b]),
//!         vec![vec![Value::Int(1), Value::Int(2)]],
//!     ),
//! )
//! .unwrap();
//! let q = ConjunctiveQuery::over(&db, "q", &["R"]).unwrap();
//! let tree = gyo_decompose(&q).unwrap().expect_acyclic("single atom");
//!
//! let mut session = EngineSession::new(&db); // resident encoding, built once
//! let report = session.tsens(&q, &tree).unwrap(); // warm per-query call
//! assert_eq!(report.local_sensitivity, 1);
//!
//! // Sessions are mutable: interleave updates with queries (including
//! // `tsens_dp`'s `tsensdp_answer_session`) — the resident encoding is
//! // maintained in place, and cached ⊥/⊤ pass states of touched queries
//! // are *repaired* in O(delta) rather than invalidated whenever the
//! // update enters the join tree through a single unpredicated
//! // singleton bag. Cached `tsens`/`mtable` reports even survive an
//! // update outright when the repair proves no pass key group moved
//! // (the delta row joins nothing); every other divergence point falls
//! // back to selective invalidation, so answers always equal a fresh
//! // recompute.
//! session.insert(0, vec![Value::Int(3), Value::Int(4)]).unwrap();
//! assert_eq!(session.count_query(&q, &tree).unwrap(), 2);
//! assert!(session.delete(0, vec![Value::Int(3), Value::Int(4)]).unwrap());
//! ```

use crate::acyclic::table_for_atom;
use crate::approx::tsens_topk_uncached;
use crate::elastic::{elastic_report, BaseMf, ElasticReport};
use crate::path::tsens_path_ordered;
use crate::report::{MultiplicityTable, RelationSensitivity, SensitivityReport};
use tsens_data::{sat_mul, Count, TsensError};
use tsens_engine::session::EngineSession;
use tsens_query::analysis::path_order;
use tsens_query::{auto_decompose, classify, ConjunctiveQuery, DecompositionTree, QueryError};

/// The TSens algorithm suite as methods on a warm [`EngineSession`].
///
/// A stream of queries over one session shares the dictionary, lifted
/// atoms, pass states, cached statistics and finished reports.
pub trait SessionExt {
    /// `TSens` (Algorithm 2): local sensitivity, most sensitive tuple, and
    /// the per-relation breakdown, skipping no relation.
    ///
    /// # Errors
    /// [`TsensError`] when the (partial) session does not serve one of
    /// the query's relations — every method here is fallible for the
    /// same reason, so a serving front-end can turn a bad request into
    /// an error response instead of a dead worker.
    fn tsens(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<SensitivityReport, TsensError>;

    /// [`SessionExt::tsens`] skipping the multiplicity tables of the
    /// given atoms — used when a relation's tuple sensitivity is known to
    /// be bounded elsewhere (the paper skips `Lineitem` in q3: FK-PK joins
    /// cap it at 1, and its table would dominate the runtime; see §7.2).
    /// The finished report is memoized per `(query, tree, skips)`, so a
    /// repeated query is a cache lookup.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn tsens_with_skips(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        skip_atoms: &[usize],
    ) -> Result<SensitivityReport, TsensError>;

    /// [`SessionExt::tsens_with_skips`] with the per-relation
    /// multiplicity tables computed on an explicitly sized worker pool
    /// over one shared pass state. The tables are independent given the
    /// shared ⊤/⊥ passes, so this parallelises the only super-linear step
    /// of Algorithm 2 (Theorem 5.1's `O(m d n^d log n)` term); the
    /// `(node, atom)` work items run through
    /// [`tsens_engine::pool::Pool::run`]'s chunked work queue. Results are
    /// bit-identical to the sequential version. Always computes (no
    /// report-cache read): callers ask for it explicitly to exercise the
    /// parallel path.
    ///
    /// # Errors
    /// [`TsensError::ZeroThreads`] when `threads == 0`, plus the errors of
    /// [`SessionExt::tsens`].
    fn tsens_parallel(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        skip_atoms: &[usize],
        threads: usize,
    ) -> Result<SensitivityReport, TsensError>;

    /// Algorithm 1 for path join queries. `Ok(None)` means the query is
    /// not a (predicate-free) path join query — use [`SessionExt::tsens`],
    /// which handles both. Lifted atoms come from the session's atom cache
    /// and the finished report is memoized per query.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn tsens_path(&self, cq: &ConjunctiveQuery) -> Result<Option<SensitivityReport>, TsensError>;

    /// `TSens` with top-k capped summaries (§5.4): an **upper bound**
    /// report (`local_sensitivity ≥` the exact value; equality when every
    /// summary has at most `k` distinct keys). The capped passes are
    /// k-dependent and recomputed, but the finished report is memoized
    /// per `(query, tree, k)`.
    ///
    /// # Errors
    /// [`TsensError::ZeroTopK`] when `k == 0`, plus the errors of
    /// [`SessionExt::tsens`].
    fn tsens_topk(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        k: usize,
    ) -> Result<SensitivityReport, TsensError>;

    /// The multiplicity table of every atom (Algorithm 2 steps I–III),
    /// in atom order.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn multiplicity_tables(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Vec<MultiplicityTable>, TsensError>;

    /// The multiplicity table of a single atom — what TSensDP needs for
    /// its primary private relation (Def 6.4), avoiding the other tables'
    /// joins. The table is memoized in the session's result cache, so
    /// repeated DP runs over the same query reuse it.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    fn multiplicity_table_for(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        atom: usize,
    ) -> Result<MultiplicityTable, TsensError>;

    /// Elastic sensitivity ([`crate::elastic`]) at distance `k` under join
    /// `plan`. Base max-frequency statistics come from the session's
    /// cross-query `mf` cache (computed once per `(relation, attr set)`
    /// across atoms, plans, distances and queries), and the finished
    /// report is memoized per `(query, plan, k)`.
    ///
    /// # Errors
    /// See [`SessionExt::tsens`].
    ///
    /// # Panics
    /// Panics if `plan` is not a permutation of the query's atom indices.
    fn elastic_sensitivity(
        &self,
        cq: &ConjunctiveQuery,
        plan: &[usize],
        k: Count,
    ) -> Result<ElasticReport, TsensError>;

    /// Classify the query, pick a decomposition and run the right
    /// algorithm, including the §5.4 handling of disconnected queries (see
    /// [`crate::local_sensitivity`]).
    ///
    /// # Errors
    /// Propagates query/decomposition construction failures and session
    /// serving failures ([`QueryError::Session`]).
    fn local_sensitivity(&self, cq: &ConjunctiveQuery) -> Result<SensitivityReport, QueryError>;
}

impl SessionExt for EngineSession<'_> {
    fn tsens(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<SensitivityReport, TsensError> {
        self.tsens_with_skips(cq, tree, &[])
    }

    fn tsens_with_skips(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        skip_atoms: &[usize],
    ) -> Result<SensitivityReport, TsensError> {
        let mut salt: Vec<u128> = skip_atoms.iter().map(|&a| a as u128).collect();
        salt.sort_unstable();
        salt.dedup();
        let cached = self.try_cached_query_result("tsens", cq, Some(tree), &salt, || {
            let passes = self.passes(cq, tree)?;
            let tops = passes.tops(tree);
            let mut per_relation = Vec::with_capacity(cq.atom_count());
            for v in 0..tree.bag_count() {
                for &ai in &tree.bags()[v].atoms {
                    if skip_atoms.contains(&ai) {
                        continue;
                    }
                    let table = table_for_atom(cq, tree, &passes, tops, v, ai);
                    per_relation.push(table.max_sensitivity(&cq.atoms()[ai].schema));
                }
            }
            per_relation.sort_by_key(|rs| rs.relation);
            Ok(SensitivityReport::from_per_relation(per_relation))
        })?;
        Ok((*cached).clone())
    }

    fn tsens_parallel(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        skip_atoms: &[usize],
        threads: usize,
    ) -> Result<SensitivityReport, TsensError> {
        let pool = tsens_engine::Pool::new(threads)?;
        let passes = self.passes(cq, tree)?;
        let tops = passes.tops(tree);
        let mut items: Vec<(usize, usize)> = Vec::with_capacity(cq.atom_count());
        for v in 0..tree.bag_count() {
            for &ai in &tree.bags()[v].atoms {
                if !skip_atoms.contains(&ai) {
                    items.push((v, ai));
                }
            }
        }
        let passes_ref = &*passes;
        let mut per_relation: Vec<RelationSensitivity> = pool.run(items.len(), |k| {
            let (v, ai) = items[k];
            let table = table_for_atom(cq, tree, passes_ref, tops, v, ai);
            table.max_sensitivity(&cq.atoms()[ai].schema)
        });
        per_relation.sort_by_key(|rs| rs.relation);
        Ok(SensitivityReport::from_per_relation(per_relation))
    }

    fn tsens_path(&self, cq: &ConjunctiveQuery) -> Result<Option<SensitivityReport>, TsensError> {
        let Some(order) = path_order(cq) else {
            return Ok(None);
        };
        if cq.atoms().iter().any(|a| !a.predicate.is_trivial()) {
            return Ok(None);
        }
        let cached = self.try_cached_query_result("tsens_path", cq, None, &[], || {
            tsens_path_ordered(self, cq, &order)
        })?;
        Ok(Some((*cached).clone()))
    }

    fn tsens_topk(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        k: usize,
    ) -> Result<SensitivityReport, TsensError> {
        if k == 0 {
            return Err(TsensError::ZeroTopK);
        }
        let cached =
            self.try_cached_query_result("tsens_topk", cq, Some(tree), &[k as u128], || {
                tsens_topk_uncached(self, cq, tree, k)
            })?;
        Ok((*cached).clone())
    }

    fn multiplicity_tables(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
    ) -> Result<Vec<MultiplicityTable>, TsensError> {
        let passes = self.passes(cq, tree)?;
        let tops = passes.tops(tree);
        let mut out: Vec<Option<MultiplicityTable>> = (0..cq.atom_count()).map(|_| None).collect();
        for v in 0..tree.bag_count() {
            for &ai in &tree.bags()[v].atoms {
                out[ai] = Some(table_for_atom(cq, tree, &passes, tops, v, ai));
            }
        }
        Ok(out
            .into_iter()
            .map(|t| t.expect("every atom is in a bag"))
            .collect())
    }

    fn multiplicity_table_for(
        &self,
        cq: &ConjunctiveQuery,
        tree: &DecompositionTree,
        atom: usize,
    ) -> Result<MultiplicityTable, TsensError> {
        let cached =
            self.try_cached_query_result("mtable", cq, Some(tree), &[atom as u128], || {
                let passes = self.passes(cq, tree)?;
                let tops = passes.tops(tree);
                let v = (0..tree.bag_count())
                    .find(|&v| tree.bags()[v].atoms.contains(&atom))
                    .expect("atom must be assigned to a bag");
                Ok(table_for_atom(cq, tree, &passes, tops, v, atom))
            })?;
        Ok((*cached).clone())
    }

    fn elastic_sensitivity(
        &self,
        cq: &ConjunctiveQuery,
        plan: &[usize],
        k: Count,
    ) -> Result<ElasticReport, TsensError> {
        self.ensure_resident(cq)?;
        let mut salt: Vec<u128> = plan.iter().map(|&p| p as u128).collect();
        salt.push(k);
        let cached = self.try_cached_query_result("elastic", cq, None, &salt, || {
            Ok(elastic_report(
                self.database(),
                BaseMf::Session(self),
                cq,
                plan,
                k,
            ))
        })?;
        Ok((*cached).clone())
    }

    fn local_sensitivity(&self, cq: &ConjunctiveQuery) -> Result<SensitivityReport, QueryError> {
        if cq.is_connected() {
            let (_, tree) = classify(cq)?;
            let tree = match tree {
                Some(t) => t,
                None => auto_decompose(cq)?,
            };
            return Ok(self.tsens(cq, &tree)?);
        }

        // §5.4 "Disconnected join trees": run per component, then scale
        // each tuple sensitivity by the product of the other components'
        // counts. One session serves every component sub-query.
        let db = self.database();
        let components = cq.connected_components();
        let mut per_relation = Vec::with_capacity(cq.atom_count());
        let mut sub_reports = Vec::with_capacity(components.len());
        let mut sub_counts: Vec<Count> = Vec::with_capacity(components.len());
        for comp in &components {
            let sub = cq.restrict_to_atoms(db, comp)?;
            let (_, tree) = classify(&sub)?;
            let tree = match tree {
                Some(t) => t,
                None => auto_decompose(&sub)?,
            };
            sub_counts.push(self.count_query(&sub, &tree)?);
            sub_reports.push(self.tsens(&sub, &tree)?);
        }
        for (ci, report) in sub_reports.iter().enumerate() {
            let other_product: Count = sub_counts
                .iter()
                .enumerate()
                .filter(|&(cj, _)| cj != ci)
                .fold(1, |acc, (_, &c)| sat_mul(acc, c));
            for sub_rel in &report.per_relation {
                let mut scaled = sub_rel.clone();
                scaled.sensitivity = sat_mul(scaled.sensitivity, other_product);
                per_relation.push(scaled);
            }
        }
        Ok(SensitivityReport::from_per_relation(per_relation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Database, Relation, Schema, Value};
    use tsens_query::gyo_decompose;

    /// One warm session serving several distinct queries over the same
    /// database gives the same answers as one-shot calls, while sharing
    /// lifted atoms and statistics.
    #[test]
    fn warm_session_matches_one_shot_across_queries() {
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let row2 = |x: i64, y: i64| vec![Value::Int(x), Value::Int(y)];
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![a, b]),
                vec![row2(1, 10), row2(2, 10), row2(2, 11)],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(
                Schema::new(vec![b, c]),
                vec![row2(10, 20), row2(10, 21), row2(11, 20)],
            ),
        )
        .unwrap();
        let rs = ConjunctiveQuery::over(&db, "rs", &["R", "S"]).unwrap();
        let r_only = ConjunctiveQuery::over(&db, "r", &["R"]).unwrap();
        let tree_rs = gyo_decompose(&rs).unwrap().expect_acyclic("path");
        let tree_r = gyo_decompose(&r_only).unwrap().expect_acyclic("single");

        let session = tsens_engine::EngineSession::new(&db);
        for _ in 0..2 {
            let warm = session.tsens(&rs, &tree_rs).unwrap();
            let cold = crate::tsens(&db, &rs, &tree_rs);
            assert_eq!(warm.local_sensitivity, cold.local_sensitivity);
            assert_eq!(warm.witness, cold.witness);

            assert_eq!(
                session.tsens(&r_only, &tree_r).unwrap().local_sensitivity,
                crate::tsens(&db, &r_only, &tree_r).local_sensitivity
            );
            let plan = vec![0, 1];
            let warm_e = session.elastic_sensitivity(&rs, &plan, 0).unwrap();
            let cold_e = crate::elastic_sensitivity(&db, &rs, &plan, 0);
            assert_eq!(warm_e.overall, cold_e.overall);
            assert_eq!(warm_e.per_relation, cold_e.per_relation);

            assert_eq!(
                session.tsens_path(&rs).unwrap().unwrap().local_sensitivity,
                crate::tsens_path(&db, &rs).unwrap().local_sensitivity
            );
        }
        // The second round of tsens/elastic/path calls were report-cache
        // hits (3 report kinds × 2 queries would otherwise recompute).
        assert!(session.stats().result_hits >= 3);
    }

    #[test]
    fn session_local_sensitivity_handles_disconnected_queries() {
        let mut db = Database::new();
        let [x, y] = db.attrs(["X", "Y"]);
        db.add_relation(
            "R",
            Relation::from_rows(
                Schema::new(vec![x]),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            ),
        )
        .unwrap();
        db.add_relation(
            "S",
            Relation::from_rows(Schema::new(vec![y]), vec![vec![Value::Int(7)]; 3]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "rxs", &["R", "S"]).unwrap();
        let session = tsens_engine::EngineSession::new(&db);
        let warm = session.local_sensitivity(&q).unwrap();
        let cold = crate::local_sensitivity(&db, &q).unwrap();
        assert_eq!(warm.local_sensitivity, cold.local_sensitivity);
        assert_eq!(warm.local_sensitivity, 3);
    }
}
