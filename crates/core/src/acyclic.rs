//! `TSens` — Algorithm 2 of the paper, generalized from join trees to
//! GHDs (§5.2 + §5.4).
//!
//! For every relation `R_i` assigned to tree node `v`, the **multiplicity
//! table** `T^i` (Eqn 6) counts, for each combination of `R_i`-attribute
//! values in the representative domain, the number of join combinations of
//! all *other* relations consistent with it:
//!
//! ```text
//! T^i = γ_{A_i}( r⋈( ⊤(v), {⊥(c) : c ∈ children(v)},
//!                    {R_j : j ∈ bag(v), j ≠ i} ) )
//! ```
//!
//! `T^i[t]` is exactly the tuple sensitivity `δ(t, Q, D)`: inserting `t`
//! adds that many output tuples, deleting one copy removes that many. The
//! local sensitivity is the maximum entry over all tables, and its row is
//! the most sensitive tuple (Definitions 2.1–2.3).
//!
//! The ⊤/⊥ passes are near-linear ([`tsens_engine::passes`]); only this
//! final join can be super-linear — it is a join of up to `d` summaries
//! whose schemas may be pairwise disjoint, giving the `O(m d n^d log n)`
//! bound of Theorem 5.1, and `O(m n log n)` when each such join is itself
//! acyclic (doubly acyclic queries, §5.3).

use crate::report::{MultiplicityTable, SensitivityReport};
use crate::session::SessionExt;
use std::sync::Arc;
use tsens_data::{Database, Dict, EncodedRelation, Schema, TsensError};
use tsens_engine::ops::multiway_join_enc;
use tsens_engine::session::{EngineSession, QueryPasses};
use tsens_query::{ConjunctiveQuery, DecompositionTree};

/// Group schemas into connected components of their overlap graph
/// (schemas in different components share no attributes). Returns groups
/// of input indices.
fn schema_components(schemas: &[&Schema]) -> Vec<Vec<usize>> {
    let n = schemas.len();
    let mut assigned = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if assigned[start] {
            continue;
        }
        let mut comp = vec![start];
        assigned[start] = true;
        let mut frontier = vec![start];
        while let Some(i) = frontier.pop() {
            for j in 0..n {
                if !assigned[j] && !schemas[i].is_disjoint_from(schemas[j]) {
                    assigned[j] = true;
                    comp.push(j);
                    frontier.push(j);
                }
            }
        }
        components.push(comp);
    }
    components
}

/// Assemble a multiplicity table from the "everything else" inputs of one
/// atom: join each connected component of inputs, group onto the covered
/// attributes, and keep the components as **factors** — the cross product
/// across components is never materialised, which is what keeps path and
/// doubly acyclic queries near-linear (§4 / §5.3). The component joins
/// and the final `γ` run on flat `u32` rows, and the grouped factors are
/// handed to the report-level [`MultiplicityTable`] still encoded —
/// witnesses alone are decoded. Shared with [`crate::approx`]'s capped
/// variant.
pub(crate) fn assemble_table_enc(
    atom: &tsens_query::Atom,
    inputs: &[&EncodedRelation],
    dict: &Arc<Dict>,
) -> MultiplicityTable {
    let schemas: Vec<&Schema> = inputs.iter().map(|r| r.schema()).collect();
    let mut factors: Vec<EncodedRelation> = Vec::new();
    for comp in schema_components(&schemas) {
        let members: Vec<&EncodedRelation> = comp.iter().map(|&i| inputs[i]).collect();
        let joined = multiway_join_enc(&members);
        let covered = atom.schema.intersect(joined.schema());
        factors.push(joined.group(&covered));
    }
    let table = MultiplicityTable::from_encoded_factors(atom.relation, factors, dict);
    if atom.predicate.is_trivial() {
        return table;
    }

    // §5.4 Selections: a candidate tuple must satisfy the atom's own
    // predicate. The predicate may span factors, so this path joins the
    // factors into the explicit table over `covered` and keeps entries
    // whose predicate is not definitely false (unknown stays — an
    // undecided predicate can be satisfied by some wildcard completion).
    // The dictionary is normalized before queries are served, so the
    // surviving rows stay in value order and the witness tie-break
    // matches a decoded table's.
    debug_assert!(dict.is_order_isomorphic());
    let covered = &table.covered;
    let explicit = table.materialise_encoded();
    let mut kept = EncodedRelation::with_capacity(covered.clone(), explicit.len());
    for (row, c) in explicit.iter() {
        let value_of = |a| covered.position(a).map(|pos| dict.decode(row[pos]));
        if atom.predicate.eval_partial(&value_of) != Some(false) {
            kept.push(row, c);
        }
    }
    MultiplicityTable::from_encoded_factors(atom.relation, vec![kept], dict)
}

/// Compute `T^i` for atom `ai`, which lives in tree node `v`, from a
/// session pass state (with the ⊤ pass already forced).
pub(crate) fn table_for_atom(
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    passes: &QueryPasses,
    tops: &[EncodedRelation],
    v: usize,
    ai: usize,
) -> MultiplicityTable {
    let atom = &cq.atoms()[ai];
    // Gather the "everything else" inputs.
    let mut inputs: Vec<&EncodedRelation> = Vec::new();
    if tree.parent(v).is_some() {
        inputs.push(&tops[v]);
    }
    for &c in tree.children(v) {
        inputs.push(&passes.bots[c]);
    }
    for &other in &tree.bags()[v].atoms {
        if other != ai {
            inputs.push(&passes.lifted[other]);
        }
    }
    assemble_table_enc(atom, &inputs, &passes.dict)
}

/// The multiplicity table of every atom (Algorithm 2 steps I–III), in
/// atom order, as a one-shot call (fresh session; see
/// [`SessionExt::multiplicity_tables`]).
pub fn multiplicity_tables(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
) -> Vec<MultiplicityTable> {
    EngineSession::for_query(db, cq)
        .multiplicity_tables(cq, tree)
        .expect("one-shot sessions are resident over their query")
}

/// The multiplicity table of a single atom as a one-shot call (fresh
/// session; see [`SessionExt::multiplicity_table_for`]).
pub fn multiplicity_table_for(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    atom: usize,
) -> MultiplicityTable {
    EngineSession::for_query(db, cq)
        .multiplicity_table_for(cq, tree, atom)
        .expect("one-shot sessions are resident over their query")
}

/// `TSens` (Algorithm 2): local sensitivity, most sensitive tuple, and the
/// per-relation breakdown, skipping no relation.
///
/// One-shot wrapper — equivalent to
/// `EngineSession::for_query(db, cq).tsens(cq, tree)` (only the query's
/// relations are encoded; see [`SessionExt::tsens`]).
pub fn tsens(db: &Database, cq: &ConjunctiveQuery, tree: &DecompositionTree) -> SensitivityReport {
    tsens_with_skips(db, cq, tree, &[])
}

/// [`tsens`] skipping the multiplicity tables of the given atoms, as a
/// one-shot call (fresh session; see [`SessionExt::tsens_with_skips`]).
pub fn tsens_with_skips(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    skip_atoms: &[usize],
) -> SensitivityReport {
    EngineSession::for_query(db, cq)
        .tsens_with_skips(cq, tree, skip_atoms)
        .expect("one-shot sessions are resident over their query")
}

/// [`tsens_with_skips`] with the per-relation tables computed on an
/// explicitly sized worker pool, as a one-shot call (fresh session; see
/// [`SessionExt::tsens_parallel`]).
///
/// # Errors
/// [`TsensError::ZeroThreads`] when `threads == 0`.
pub fn tsens_parallel(
    db: &Database,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    skip_atoms: &[usize],
    threads: usize,
) -> Result<SensitivityReport, TsensError> {
    EngineSession::for_query(db, cq).tsens_parallel(cq, tree, skip_atoms, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_data::{Relation, Schema, Value};
    use tsens_query::{auto_decompose, gyo_decompose, DecompositionTree, Predicate};

    /// The paper's Figure 1 database and query.
    fn figure1() -> (Database, ConjunctiveQuery, DecompositionTree) {
        let mut db = Database::new();
        let [a, b, c, d, e, f] = db.attrs(["A", "B", "C", "D", "E", "F"]);
        let v = |s: &str| Value::str(s);
        db.add_relation(
            "R1",
            Relation::from_rows(
                Schema::new(vec![a, b, c]),
                vec![
                    vec![v("a1"), v("b1"), v("c1")],
                    vec![v("a1"), v("b2"), v("c1")],
                    vec![v("a2"), v("b1"), v("c1")],
                ],
            ),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(
                Schema::new(vec![a, b, d]),
                vec![
                    vec![v("a1"), v("b1"), v("d1")],
                    vec![v("a2"), v("b2"), v("d2")],
                ],
            ),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(
                Schema::new(vec![a, e]),
                vec![
                    vec![v("a1"), v("e1")],
                    vec![v("a2"), v("e1")],
                    vec![v("a2"), v("e2")],
                ],
            ),
        )
        .unwrap();
        db.add_relation(
            "R4",
            Relation::from_rows(
                Schema::new(vec![b, f]),
                vec![
                    vec![v("b1"), v("f1")],
                    vec![v("b2"), v("f1")],
                    vec![v("b2"), v("f2")],
                ],
            ),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "fig1", &["R1", "R2", "R3", "R4"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("fig1 is acyclic");
        (db, q, tree)
    }

    #[test]
    fn figure1_local_sensitivity_is_four() {
        // Example 2.1: LS = 4, most sensitive tuple (a2, b2, c1) in R1.
        let (db, q, tree) = figure1();
        let report = tsens(&db, &q, &tree);
        assert_eq!(report.local_sensitivity, 4);
        let w = report.witness.as_ref().unwrap();
        assert_eq!(w.relation, 0);
        // C appears only in R1, so it is reported as a wildcard; the
        // paper's (a2, b2, c1) is one concretisation of (a2, b2, *).
        assert_eq!(
            w.values,
            vec![Some(Value::str("a2")), Some(Value::str("b2")), None]
        );
    }

    #[test]
    fn figure1_tuple_sensitivities() {
        // Example 2.1's spot values: δ((a1,b1,c1)) = 1 (it supports the
        // only output tuple), δ((a2,b2,c1)) = 4 (upward).
        let (db, q, tree) = figure1();
        let tables = multiplicity_tables(&db, &q, &tree);
        let r1_schema = &q.atoms()[0].schema;
        let t1 = &tables[0];
        let row = |s: &[&str]| -> Vec<Value> { s.iter().map(Value::str).collect() };
        assert_eq!(t1.sensitivity_of(r1_schema, &row(&["a1", "b1", "c1"])), 1);
        assert_eq!(t1.sensitivity_of(r1_schema, &row(&["a2", "b2", "c1"])), 4);
        // A combination outside the representative domain has sensitivity 0.
        assert_eq!(t1.sensitivity_of(r1_schema, &row(&["a9", "b1", "c1"])), 0);
    }

    #[test]
    fn figure1_c_is_wildcard_for_r1() {
        // C appears only in R1, so it is extrapolated: the covered schema
        // of T^1 is {A, B}. (The witness above still prints c1? No — C is a
        // wildcard; Example 2.1's (a2,b2,c1) names c1 because any C works.)
        // Our implementation reports `None` for C... unless C ∈ covered.
        let (db, q, tree) = figure1();
        let tables = multiplicity_tables(&db, &q, &tree);
        let c = db.attr_id("C").unwrap();
        assert!(!tables[0].covered.contains(c));
    }

    #[test]
    fn matches_naive_on_figure1_for_all_relations() {
        let (db, q, tree) = figure1();
        let report = tsens(&db, &q, &tree);
        let naive = crate::naive::naive_local_sensitivity(&db, &q);
        assert_eq!(report.local_sensitivity, naive.local_sensitivity);
        for (ts, nv) in report.per_relation.iter().zip(naive.per_relation.iter()) {
            assert_eq!(ts.relation, nv.relation);
            assert_eq!(ts.sensitivity, nv.sensitivity, "relation {}", ts.relation);
        }
    }

    #[test]
    fn single_relation_query_has_sensitivity_one() {
        let mut db = Database::new();
        let a = db.attr("A");
        db.add_relation(
            "R",
            Relation::from_rows(Schema::new(vec![a]), vec![vec![Value::Int(1)]]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "single", &["R"]).unwrap();
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("single");
        let report = tsens(&db, &q, &tree);
        assert_eq!(report.local_sensitivity, 1);
        // The witness is fully wildcarded: any tuple works.
        assert_eq!(report.witness.unwrap().values, vec![None]);
    }

    #[test]
    fn triangle_ghd_matches_naive() {
        // Cyclic query through a GHD: sensitivity of an edge tuple (a,b) in
        // a triangle query is the number of common neighbours paths c with
        // R2(b,c), R3(c,a).
        let mut db = Database::new();
        let [a, b, c] = db.attrs(["A", "B", "C"]);
        let e = |x: i64, y: i64| vec![Value::Int(x), Value::Int(y)];
        db.add_relation(
            "R1",
            Relation::from_rows(Schema::new(vec![a, b]), vec![e(0, 1), e(0, 2)]),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(Schema::new(vec![b, c]), vec![e(1, 2), e(1, 3), e(2, 3)]),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(Schema::new(vec![c, a]), vec![e(2, 0), e(3, 0), e(3, 5)]),
        )
        .unwrap();
        let q = ConjunctiveQuery::over(&db, "tri", &["R1", "R2", "R3"]).unwrap();
        let ghd = auto_decompose(&q).unwrap();
        let report = tsens(&db, &q, &ghd);
        let naive = crate::naive::naive_local_sensitivity(&db, &q);
        assert_eq!(report.local_sensitivity, naive.local_sensitivity);
        for (ts, nv) in report.per_relation.iter().zip(naive.per_relation.iter()) {
            assert_eq!(ts.sensitivity, nv.sensitivity, "relation {}", ts.relation);
        }
    }

    #[test]
    fn predicates_zero_out_failing_candidates() {
        // Same as Figure 1 but R1 restricted to A = "a1": the (a2,b2,c1)
        // candidate is gone and LS drops.
        let (db, q, tree) = figure1();
        let a = db.attr_id("A").unwrap();
        let q = q.with_predicate(&db, "R1", Predicate::eq(a, Value::str("a1")));
        let report = tsens(&db, &q, &tree);
        let naive = crate::naive::naive_local_sensitivity(&db, &q);
        assert_eq!(report.local_sensitivity, naive.local_sensitivity);
        // The best insertion into R1 is now (a1, b2, *): R2 has (a1,b1,d1)
        // only… cross-check specific value against naive.
        assert!(report.local_sensitivity < 4);
    }

    #[test]
    fn skipping_atoms_excludes_their_tables() {
        let (db, q, tree) = figure1();
        let report = tsens_with_skips(&db, &q, &tree, &[0]);
        // R1's table (the max) excluded: LS comes from another relation.
        assert!(report.per_relation.iter().all(|rs| rs.relation != 0));
        let full = tsens(&db, &q, &tree);
        assert!(report.local_sensitivity <= full.local_sensitivity);
    }

    #[test]
    fn multiplicity_table_for_matches_full_run() {
        let (db, q, tree) = figure1();
        let all = multiplicity_tables(&db, &q, &tree);
        let single = multiplicity_table_for(&db, &q, &tree, 2);
        assert_eq!(single.materialise(), all[2].materialise());
        assert_eq!(single.covered, all[2].covered);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (db, q, tree) = figure1();
        let seq = tsens(&db, &q, &tree);
        for threads in [1, 2, 4] {
            let par = tsens_parallel(&db, &q, &tree, &[], threads).expect("threads > 0");
            assert_eq!(par.local_sensitivity, seq.local_sensitivity);
            for (a, b) in par.per_relation.iter().zip(seq.per_relation.iter()) {
                assert_eq!(a.relation, b.relation);
                assert_eq!(a.sensitivity, b.sensitivity);
                assert_eq!(a.witness, b.witness);
            }
        }
    }

    #[test]
    fn parallel_zero_threads_is_typed_error() {
        let (db, q, tree) = figure1();
        assert_eq!(
            tsens_parallel(&db, &q, &tree, &[], 0).err(),
            Some(TsensError::ZeroThreads)
        );
    }

    #[test]
    fn parallel_respects_skips() {
        let (db, q, tree) = figure1();
        let seq = tsens_with_skips(&db, &q, &tree, &[0]);
        let par = tsens_parallel(&db, &q, &tree, &[0], 3).expect("threads > 0");
        assert_eq!(par.local_sensitivity, seq.local_sensitivity);
        assert!(par.per_relation.iter().all(|rs| rs.relation != 0));
    }

    #[test]
    fn path_interior_tables_stay_factored() {
        // For a path query the interior relations' multiplicity tables
        // must keep their J and K sides as separate factors (§4/§5.3) —
        // materialising their cross product would be quadratic.
        let mut db = Database::new();
        let [a, b, c, d] = db.attrs(["A", "B", "C", "D"]);
        let edge = |x: i64, y: i64| vec![Value::Int(x), Value::Int(y)];
        for (name, s1, s2) in [("R0", a, b), ("R1", b, c), ("R2", c, d)] {
            db.add_relation(
                name,
                Relation::from_rows(
                    Schema::new(vec![s1, s2]),
                    (0..5).map(|i| edge(i, i)).collect(),
                ),
            )
            .unwrap();
        }
        let q = ConjunctiveQuery::over(&db, "p3", &["R0", "R1", "R2"]).unwrap();
        let tree = tsens_query::gyo_decompose(&q)
            .unwrap()
            .expect_acyclic("path");
        let tables = multiplicity_tables(&db, &q, &tree);
        // The middle relation R1 is constrained from both sides on
        // disjoint keys {B} and {C}: exactly two factors, never joined.
        assert_eq!(tables[1].factor_count(), 2);
        // Endpoints see one side only.
        assert_eq!(tables[0].factor_count(), 1);
        assert_eq!(tables[2].factor_count(), 1);
    }
}
