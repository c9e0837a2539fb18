//! Answer checking: every response is reduced to the one figure its op
//! computes and compared with the figure the benchmark expects.

use tsens_data::Count;

/// The checked outcome of one op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// `op=count`: `|Q(D)|`.
    Count(Count),
    /// `op=tsens`: the local sensitivity.
    Ls(Count),
    /// `op=elastic`: the overall elastic bound.
    Elastic(Count),
    /// `op=tsensdp` with a fixed seed: the released answer (as `f64`
    /// bits) and the learned threshold.
    Dp { noisy_bits: u64, threshold: Count },
    /// `/update`: deltas applied.
    Applied(u64),
}

/// The raw value text of the first JSON field named `key`, at any
/// depth, up to the next `,` or `}`.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let bytes = body.as_bytes();
    let mut from = 0;
    while let Some(at) = body[from..].find(key) {
        let start = from + at;
        let end = start + key.len();
        if start > 0 && bytes[start - 1] == b'"' && body[end..].starts_with("\":") {
            let rest = &body[end + 2..];
            let stop = rest.find([',', '}']).unwrap_or(rest.len());
            return Some(rest[..stop].trim());
        }
        from = end;
    }
    None
}

/// Read the answer of the same kind as `like` out of a response body.
pub fn parse_answer(body: &str, like: &Answer) -> Option<Answer> {
    let num = |key| field(body, key)?.parse::<Count>().ok();
    Some(match like {
        Answer::Count(_) => Answer::Count(num("count")?),
        Answer::Ls(_) => Answer::Ls(num("local_sensitivity")?),
        Answer::Elastic(_) => Answer::Elastic(num("overall")?),
        Answer::Dp { .. } => Answer::Dp {
            noisy_bits: field(body, "noisy_answer")?.parse::<f64>().ok()?.to_bits(),
            threshold: num("threshold")?,
        },
        Answer::Applied(_) => Answer::Applied(field(body, "applied")?.parse().ok()?),
    })
}

/// Whether an HTTP response carries exactly the expected answer.
pub fn check(status: u16, body: &str, expected: &Answer) -> bool {
    status == 200 && parse_answer(body, expected).as_ref() == Some(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNT: &str = r#"{"ok":true,"op":"count","db":"main","count":42}"#;
    const TSENS: &str = r#"{"ok":true,"op":"tsens","db":"main","local_sensitivity":7,"witness":"Follow(3, *)","per_relation":[{"relation":"Follow","sensitivity":7,"witness":null}]}"#;

    #[test]
    fn accepts_the_right_answer() {
        assert!(check(200, COUNT, &Answer::Count(42)));
        assert!(check(200, TSENS, &Answer::Ls(7)));
        let dp = r#"{"ok":true,"op":"tsensdp","noisy_answer":12.5,"threshold":3}"#;
        let want = Answer::Dp {
            noisy_bits: 12.5f64.to_bits(),
            threshold: 3,
        };
        assert!(check(200, dp, &want));
    }

    #[test]
    fn rejects_a_perturbed_count_or_ls() {
        assert!(!check(200, COUNT, &Answer::Count(43)));
        assert!(!check(200, TSENS, &Answer::Ls(8)));
        assert!(!check(200, TSENS, &Answer::Elastic(7)), "wrong kind");
        assert!(!check(500, COUNT, &Answer::Count(42)), "non-200");
    }

    #[test]
    fn field_ignores_values_that_look_like_keys() {
        // "count" appears as the op's value before it appears as a key.
        assert_eq!(field(COUNT, "count"), Some("42"));
        assert_eq!(field(COUNT, "missing"), None);
    }
}
