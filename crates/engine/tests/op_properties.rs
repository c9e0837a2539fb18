//! Algebraic properties of the multiplicity-propagating operators,
//! checked with proptest.

use proptest::prelude::*;
use tsens_data::{AttrId, Count, EncodedRelation, Schema};
use tsens_engine::ops::{hash_join_enc, lookup_join_enc, multiway_join_enc, semijoin_enc};

fn schema(ids: &[u32]) -> Schema {
    Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
}

fn encoded(sch: &[u32], entries: Vec<(Vec<u32>, Count)>) -> EncodedRelation {
    let mut rel = EncodedRelation::new(schema(sch));
    for (row, c) in entries {
        rel.push(&row, c);
    }
    rel
}

fn entries2(max: usize, domain: u32) -> impl Strategy<Value = Vec<(Vec<u32>, Count)>> {
    prop::collection::vec((prop::collection::vec(0..domain, 2..=2), 1..5u128), 0..max)
}

/// Count of `row` in a grouped relation, or 0.
fn count_of(grouped: &EncodedRelation, row: &[u32]) -> Count {
    grouped.find_row(row).map_or(0, |i| grouped.count(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Join total counts are symmetric: |R ⋈ S| == |S ⋈ R| (bag sizes).
    #[test]
    fn hash_join_total_is_symmetric(
        r in entries2(10, 3),
        s in entries2(10, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1, 2], s);
        let rs = hash_join_enc(&r, &s);
        let sr = hash_join_enc(&s, &r);
        prop_assert_eq!(rs.total_count(), sr.total_count());
        // Same number of distinct output rows after grouping.
        let target = schema(&[0, 1, 2]);
        prop_assert_eq!(rs.group(&target).len(), sr.group(&target).len());
    }

    /// Joining with a grouped projection equals grouping the join:
    /// γ_full(R ⋈ γ_B(S)) counts == γ over B of `hash_join_enc` results.
    #[test]
    fn lookup_join_agrees_with_hash_join(
        r in entries2(10, 3),
        s in entries2(10, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1, 2], s);
        let keyed = s.group(&schema(&[1]));
        let via_lookup = lookup_join_enc(&r, &keyed);
        let via_hash = hash_join_enc(&r, &s).group(&schema(&[0, 1]));
        prop_assert!(via_lookup.group(&schema(&[0, 1])) == via_hash);
    }

    /// Semijoin keeps a subset with unchanged counts.
    #[test]
    fn semijoin_is_a_filter(
        r in entries2(10, 3),
        s in entries2(10, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1], s.into_iter().map(|(row, c)| (vec![row[0]], c)).collect());
        let filtered = semijoin_enc(&r, &s);
        prop_assert!(filtered.total_count() <= r.total_count());
        // Grouped view: every surviving key keeps its full multiplicity
        // (inputs may carry duplicate rows, so compare after γ).
        let full = schema(&[0, 1]);
        let r_grouped = r.group(&full);
        for (row, c) in filtered.group(&full).iter() {
            prop_assert_eq!(count_of(&r_grouped, row), c);
        }
    }

    /// Multiway join is order-insensitive in total count.
    #[test]
    fn multiway_join_total_order_invariant(
        r in entries2(8, 3),
        s in entries2(8, 3),
        t in entries2(8, 3),
    ) {
        let r = encoded(&[0, 1], r);
        let s = encoded(&[1, 2], s);
        let t = encoded(&[2, 3], t);
        let a = multiway_join_enc(&[&r, &s, &t]).total_count();
        let b = multiway_join_enc(&[&t, &r, &s]).total_count();
        let c = multiway_join_enc(&[&s, &t, &r]).total_count();
        prop_assert_eq!(a, b);
        prop_assert_eq!(b, c);
    }

    /// Group-by is idempotent and preserves totals.
    #[test]
    fn group_is_idempotent(r in entries2(12, 4)) {
        let r = encoded(&[0, 1], r);
        let g1 = r.group(&schema(&[0]));
        let g2 = g1.group(&schema(&[0]));
        prop_assert!(g1 == g2);
        prop_assert_eq!(g1.total_count(), r.total_count());
    }
}
