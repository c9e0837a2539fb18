//! Property tests: a **warm `EngineSession` reused across queries** is
//! observationally identical to the one-shot free functions, which are
//! in turn cross-checked against the naive ground truth.
//!
//! For random path, star and triangle databases (mixed Int/Str columns)
//! each case opens ONE session and interleaves `tsens`, `count_query`
//! and `elastic_sensitivity` calls against it — including repeated and
//! predicated variants — so the atom, pass, max-frequency and report
//! caches are all exercised between queries. Every session answer must
//! equal the corresponding one-shot answer, and every second round of
//! the same calls (pure cache hits) must reproduce the first.
//!
//! Predicates on the middle atom of paths and triangles reach the
//! multi-factor branch of the multiplicity-table step (the predicate is
//! checked on the cross product of the atom's factors), alongside
//! constants absent from the dictionary and single-atom queries whose
//! table has no factors at all.

use proptest::prelude::*;
use tsens_core::{
    elastic_sensitivity, naive_local_sensitivity, plan_order_from_tree, tsens, tsens_path,
    SessionExt, TupleRef,
};
use tsens_data::{Database, Relation, Schema, Value};
use tsens_engine::naive_eval::naive_count;
use tsens_engine::EngineSession;
use tsens_query::{auto_decompose, gyo_decompose, ConjunctiveQuery, DecompositionTree, Predicate};

/// Mixed-type value: a third of the domain becomes strings so the
/// session dictionary must keep ints and strings order-isomorphic.
fn value(x: i64) -> Value {
    if x % 3 == 0 {
        Value::str(format!("s{x}"))
    } else {
        Value::Int(x)
    }
}

fn relation(schema: Schema, rows: &[Vec<i64>]) -> Relation {
    let mut rel = Relation::new(schema);
    for row in rows {
        rel.push(row.iter().map(|&x| value(x)).collect());
    }
    rel
}

fn database(edges: &[(&str, &str)], rows: &[Vec<Vec<i64>>]) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let mut names = Vec::new();
    for (i, ((a1, a2), rel_rows)) in edges.iter().zip(rows).enumerate() {
        let s1 = db.attr(a1);
        let s2 = db.attr(a2);
        let name = format!("R{i}");
        db.add_relation(&name, relation(Schema::new(vec![s1, s2]), rel_rows))
            .unwrap();
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let q = ConjunctiveQuery::over(&db, "q", &refs).unwrap();
    (db, q)
}

/// Interleave the full call mix against one warm session, twice, and
/// compare every answer against the one-shot path and (for sensitivity
/// and counts) the naive ground truth.
fn assert_session_equivalent(db: &Database, q: &ConjunctiveQuery, tree: &DecompositionTree) {
    let session = EngineSession::new(db);
    let plan = plan_order_from_tree(tree);
    let naive_cnt = naive_count(db, q);
    let naive_ls = naive_local_sensitivity(db, q);
    let oneshot_report = tsens(db, q, tree);
    let oneshot_elastic = elastic_sensitivity(db, q, &plan, 0);
    let oneshot_path = tsens_path(db, q);

    // A predicated variant of the same query shares the session but must
    // key its own cache entries.
    let pred_attr = q.atoms()[0].schema.attrs()[0];
    let some_val = db
        .relation(q.atoms()[0].relation)
        .rows()
        .first()
        .map(|r| r[0].clone());
    let q_pred = some_val.clone().map(|v| {
        q.clone().with_predicate(
            db,
            db.relation_name(q.atoms()[0].relation),
            Predicate::eq(pred_attr, v),
        )
    });

    for round in 0..2 {
        // count_query: session == one-shot == naive.
        prop_assert_eq!(
            session.count_query(q, tree).unwrap(),
            naive_cnt,
            "count round {}",
            round
        );

        // tsens: session == one-shot, and == naive per relation.
        let warm = session.tsens(q, tree).unwrap();
        prop_assert_eq!(
            warm.local_sensitivity,
            oneshot_report.local_sensitivity,
            "tsens LS round {}",
            round
        );
        prop_assert_eq!(&warm.witness, &oneshot_report.witness);
        prop_assert_eq!(warm.local_sensitivity, naive_ls.local_sensitivity);
        for (w, n) in warm.per_relation.iter().zip(naive_ls.per_relation.iter()) {
            prop_assert_eq!(w.relation, n.relation);
            prop_assert_eq!(w.sensitivity, n.sensitivity, "relation {}", w.relation);
        }

        // elastic: session == one-shot (and both bound the true LS).
        let warm_e = session.elastic_sensitivity(q, &plan, 0).unwrap();
        prop_assert_eq!(warm_e.overall, oneshot_elastic.overall);
        prop_assert_eq!(&warm_e.per_relation, &oneshot_elastic.per_relation);
        prop_assert!(warm_e.overall >= naive_ls.local_sensitivity);

        // tsens_path (None for non-path queries in both flavours).
        let warm_p = session.tsens_path(q).unwrap();
        match (&warm_p, &oneshot_path) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.local_sensitivity, b.local_sensitivity);
                prop_assert_eq!(&a.witness, &b.witness);
            }
            (None, None) => {}
            _ => prop_assert!(false, "path applicability must not depend on the session"),
        }

        // Predicated variant interleaved through the same session.
        if let Some(qp) = &q_pred {
            let warm_pred = session.tsens(qp, tree).unwrap();
            let cold_pred = tsens(db, qp, tree);
            prop_assert_eq!(warm_pred.local_sensitivity, cold_pred.local_sensitivity);
            let naive_pred = naive_local_sensitivity(db, qp);
            prop_assert_eq!(warm_pred.local_sensitivity, naive_pred.local_sensitivity);
            prop_assert_eq!(
                session.count_query(qp, tree).unwrap(),
                naive_count(db, qp),
                "predicated count round {}",
                round
            );
        }
    }
    // The second round was answered from the caches.
    let stats = session.stats();
    prop_assert!(
        stats.result_hits > 0,
        "warm round must hit the report cache"
    );
    prop_assert!(stats.pass_hits > 0, "warm round must hit the pass cache");
}

/// TSens on `q` with `pred` on atom `ai` must equal the naive baseline
/// per relation, and the warm session must agree with the one-shot call
/// down to the witness. Exact equality needs every attribute `pred`
/// reads to be decided by the atom's table: a join attribute, or any
/// attribute when an existing row satisfies `pred` in a single-atom
/// query.
fn assert_predicated_matches_naive(
    db: &Database,
    q: &ConjunctiveQuery,
    tree: &DecompositionTree,
    ai: usize,
    pred: Predicate,
) {
    let qp = q
        .clone()
        .with_predicate(db, db.relation_name(q.atoms()[ai].relation), pred);
    let warm = EngineSession::new(db).tsens(&qp, tree).unwrap();
    let cold = tsens(db, &qp, tree);
    let naive = naive_local_sensitivity(db, &qp);
    prop_assert_eq!(warm.local_sensitivity, naive.local_sensitivity);
    prop_assert_eq!(&warm.witness, &cold.witness);
    prop_assert_eq!(warm.per_relation.len(), naive.per_relation.len());
    for (w, n) in warm.per_relation.iter().zip(naive.per_relation.iter()) {
        prop_assert_eq!(w.relation, n.relation);
        prop_assert_eq!(w.sensitivity, n.sensitivity, "relation {}", w.relation);
    }
}

/// The predicated cases for a query whose atom 1 has two join
/// attributes (the middle atom of a 3-path, any edge of a triangle):
/// a predicate spanning both columns — so both of its factors — one
/// mixing in a constant absent from the dictionary, and the spanning
/// predicate again on atom 1 queried alone, whose table has no factors.
fn assert_middle_atom_predicates(db: &Database, q: &ConjunctiveQuery, tree: &DecompositionTree) {
    let rel = q.atoms()[1].relation;
    let Some(first) = db.relation(rel).rows().first() else {
        return;
    };
    let [c0, c1] = [
        q.atoms()[1].schema.attrs()[0],
        q.atoms()[1].schema.attrs()[1],
    ];
    let spanning = Predicate::eq(c0, first[0].clone()).or(Predicate::Le(c1, first[1].clone()));
    let unseen =
        Predicate::Eq(c0, Value::str("never-seen")).or(Predicate::Ne(c1, first[1].clone()));
    assert_predicated_matches_naive(db, q, tree, 1, spanning.clone());
    assert_predicated_matches_naive(db, q, tree, 1, unseen);

    let single = ConjunctiveQuery::over(db, "single", &[db.relation_name(rel)]).unwrap();
    let single_tree = gyo_decompose(&single).unwrap().expect_acyclic("one atom");
    assert_predicated_matches_naive(db, &single, &single_tree, 0, spanning);
}

fn rows_strategy(max_rows: usize, domain: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, 2..=2), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Path query R0(A0,A1) ⋈ R1(A1,A2) ⋈ R2(A2,A3).
    #[test]
    fn session_matches_one_shot_on_paths(
        r0 in rows_strategy(10, 4),
        r1 in rows_strategy(10, 4),
        r2 in rows_strategy(10, 4),
    ) {
        let (db, q) = database(&[("A0", "A1"), ("A1", "A2"), ("A2", "A3")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
        assert_session_equivalent(&db, &q, &tree);
        assert_middle_atom_predicates(&db, &q, &tree);
    }

    /// Star query R0(H,A) ⋈ R1(H,B) ⋈ R2(H,C) around a shared hub.
    #[test]
    fn session_matches_one_shot_on_stars(
        r0 in rows_strategy(8, 3),
        r1 in rows_strategy(8, 3),
        r2 in rows_strategy(8, 3),
    ) {
        let (db, q) = database(&[("H", "A"), ("H", "B"), ("H", "C")], &[r0, r1, r2]);
        let tree = gyo_decompose(&q).unwrap().expect_acyclic("star is acyclic");
        assert_session_equivalent(&db, &q, &tree);
    }

    /// Triangle query R0(A,B) ⋈ R1(B,C) ⋈ R2(C,A) through a GHD.
    #[test]
    fn session_matches_one_shot_on_triangles(
        r0 in rows_strategy(7, 3),
        r1 in rows_strategy(7, 3),
        r2 in rows_strategy(7, 3),
    ) {
        let (db, q) = database(&[("A", "B"), ("B", "C"), ("C", "A")], &[r0, r1, r2]);
        let ghd = auto_decompose(&q).unwrap();
        assert_session_equivalent(&db, &q, &ghd);
        assert_middle_atom_predicates(&db, &q, &ghd);
    }
}

/// Fixed predicated cases with their witnesses pinned: the multi-factor
/// predicate branch must keep the first-winner tie rule (smallest row in
/// value order among the maxima).
#[test]
fn predicated_witnesses_are_pinned() {
    let (db, q) = database(
        &[("A0", "A1"), ("A1", "A2"), ("A2", "A3")],
        &[
            vec![vec![1, 2], vec![4, 2], vec![5, 3], vec![1, 3]],
            vec![vec![2, 4], vec![2, 5], vec![3, 4], vec![3, 7]],
            vec![vec![4, 1], vec![4, 2], vec![5, 1], vec![7, 3], vec![7, 3]],
        ],
    );
    let tree = gyo_decompose(&q).unwrap().expect_acyclic("path is acyclic");
    let [a1, a2] = [db.attr_id("A1").unwrap(), db.attr_id("A2").unwrap()];
    let witness = |relation: usize, values: Vec<Option<Value>>| Some(TupleRef { relation, values });
    let cases = [
        (
            Predicate::eq(a1, value(3)).or(Predicate::eq(a2, value(5))),
            witness(1, vec![Some(value(3)), Some(value(4))]),
        ),
        (
            Predicate::Eq(a1, Value::str("never-seen")).or(Predicate::Ne(a2, value(4))),
            witness(1, vec![Some(value(2)), Some(value(7))]),
        ),
    ];
    for (pred, expected) in cases {
        let qp = q.clone().with_predicate(&db, "R1", pred.clone());
        for report in [
            EngineSession::new(&db).tsens(&qp, &tree).unwrap(),
            tsens(&db, &qp, &tree),
        ] {
            assert_eq!(report.local_sensitivity, 4, "{pred:?}");
            let r1 = &report.per_relation[1];
            assert_eq!(r1.sensitivity, 4, "{pred:?}");
            assert_eq!(r1.witness, expected, "{pred:?}");
        }

        // Alone, R1's table has no factors: every tuple passing the
        // predicate has sensitivity 1, witnessed by wildcards.
        let single = ConjunctiveQuery::over(&db, "single", &["R1"])
            .unwrap()
            .with_predicate(&db, "R1", pred);
        let single_tree = gyo_decompose(&single).unwrap().expect_acyclic("one atom");
        let report = EngineSession::new(&db)
            .tsens(&single, &single_tree)
            .unwrap();
        assert_eq!(report.local_sensitivity, 1);
        assert_eq!(report.witness, witness(1, vec![None, None]));
    }
}
