//! # tsens-core
//!
//! The paper's primary contribution: computing **tuple sensitivities** and
//! the **local sensitivity** of counting queries with joins.
//!
//! * [`acyclic`] — `TSens` (Algorithm 2) over a decomposition tree,
//!   covering acyclic queries (singleton bags / join trees) and, through
//!   GHD bags, the §5.4 extension to cyclic queries such as q3, q△, q∘;
//! * [`path`] — Algorithm 1, the paper-faithful `O(n log n)` special case
//!   for path join queries;
//! * [`naive`] — the Theorem 3.1 polynomial-data-complexity baseline
//!   (re-evaluate the query for every candidate deletion/insertion), used
//!   as ground truth;
//! * [`elastic`] — a re-implementation of elastic sensitivity
//!   (Flex, Johnson et al. 2018) over the same join plans, the paper's
//!   accuracy baseline;
//! * [`approx`] — the §5.4 top-k frequency capping that trades sensitivity
//!   tightness for bounded intermediate frequencies;
//! * [`report`] — result types: sensitivity reports, witnesses with
//!   wildcard ("any value") components, and per-relation multiplicity
//!   tables (consumed by `tsens-dp`'s truncation operator);
//! * [`session`] — [`SessionExt`], which attaches every algorithm above
//!   to a warm [`tsens_engine::EngineSession`] so a stream of queries
//!   over one database shares the resident encoding and the
//!   atom/pass/statistic/report caches.
//!
//! The API is [`SessionExt`] plus one-shot free functions. The TSens free
//! functions build a throwaway **partial** session that encodes only the
//! relations the query references and call the method
//! (`tsens(db, cq, tree)` ≡ `EngineSession::for_query(db, cq).tsens(cq,
//! tree)`) — observationally identical to a full session, without paying
//! to encode the rest of the catalog. The one-stop entry point is
//! [`local_sensitivity`], which classifies the query, picks a
//! decomposition and runs the right algorithm — including the §5.4
//! handling of disconnected queries.

pub mod acyclic;
pub mod approx;
pub mod elastic;
pub mod naive;
pub mod path;
pub mod report;
pub mod session;
pub mod sharded;

pub use acyclic::{
    multiplicity_table_for, multiplicity_tables, tsens, tsens_parallel, tsens_with_skips,
};
pub use approx::tsens_topk;
pub use elastic::{
    elastic_sensitivity, elastic_sensitivity_sharded, plan_order_from_tree, smooth_elastic_bound,
    ElasticReport,
};
pub use naive::naive_local_sensitivity;
pub use path::tsens_path;
pub use report::{
    LocalSensitivity, MultiplicityTable, RelationSensitivity, SensitivityReport, TupleRef,
};
pub use session::SessionExt;
pub use sharded::{sharded_tsens, sharded_tsens_checked, ShardedSessionExt};
pub use tsens_data::Update;

use tsens_data::Database;
use tsens_engine::EngineSession;
use tsens_query::{ConjunctiveQuery, QueryError};

/// Compute the local sensitivity of `cq` on `db`, choosing the best
/// algorithm automatically:
///
/// * connected acyclic queries run `TSens` on the GYO join tree;
/// * connected cyclic queries run `TSens` on a heuristic GHD
///   ([`auto_decompose`]) — pass a hand-picked decomposition to
///   [`tsens`] directly when you have a better one (e.g. the paper's
///   Figure 5 plans);
/// * disconnected queries are decomposed per component; a tuple's
///   sensitivity in component `C` is its in-component sensitivity times
///   the product of the other components' output sizes (§5.4).
///
/// # Errors
/// Propagates query/decomposition construction failures.
pub fn local_sensitivity(
    db: &Database,
    cq: &ConjunctiveQuery,
) -> Result<SensitivityReport, QueryError> {
    // One throwaway partial session (resident over exactly the query's
    // relations) serves the whole computation — for disconnected queries
    // every component sub-query shares the resident encoding and the
    // lifted-atom cache instead of rebuilding them.
    EngineSession::for_query(db, cq).local_sensitivity(cq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Relation, Schema, Value};

    #[test]
    fn disconnected_query_scales_by_other_component_counts() {
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
        let report = local_sensitivity(&db, &q).unwrap();
        // Adding a row to R adds |S| = 3 outputs; adding to S adds |R| = 2.
        assert_eq!(report.local_sensitivity, 3);
        let w = report.witness.as_ref().unwrap();
        assert_eq!(w.relation, 0);
        // Cross-check with the naive baseline.
        let naive = naive_local_sensitivity(&db, &q);
        assert_eq!(naive.local_sensitivity, 3);
    }
}
