//! Property tests for the job service's trust boundary: the body of
//! `POST /v1/jobs`.

use hipmer_serve::JobSpec;
use proptest::prelude::*;

/// Values that are valid JSON but hostile as spec fields: negative, huge,
/// fractional, out-of-range floats, wrong types.
const FIELD_VALUES: &[&str] = &[
    "0",
    "1",
    "21",
    "-1",
    "-0",
    "1.5",
    "1e308",
    "-1e308",
    "1e400",
    "18446744073709551615",
    "18446744073709551616",
    "null",
    "true",
    "\"\"",
    "\"21\"",
    "[]",
    "{}",
];

const KEYS: &[&str] = &[
    "input",
    "tenant",
    "k",
    "ranks",
    "ranks_per_node",
    "rounds",
    "metagenome",
    "priority",
];

proptest! {
    // Arbitrary bytes, and spec-shaped objects whose fields carry hostile
    // values, are `Ok` or `Err`, never a panic; an accepted spec satisfies
    // the checks the scheduler relies on.
    #[test]
    fn job_spec_from_json_never_panics(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        fields in prop::collection::vec(
            (prop::sample::select(KEYS), prop::sample::select(FIELD_VALUES)),
            0..10,
        ),
        cut in any::<usize>(),
    ) {
        let _ = JobSpec::from_json(&raw);
        let body = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect::<Vec<_>>()
            .join(",");
        let body = format!("{{\"input\":\"reads.fastq\",\"tenant\":\"t\",{body}}}");
        let body = body.replace(",}", "}");
        for bytes in [body.as_bytes(), &body.as_bytes()[..cut % (body.len() + 1)]] {
            if let Ok(spec) = JobSpec::from_json(bytes) {
                prop_assert!(spec.k > 0 && spec.ranks > 0 && spec.ranks_per_node > 0);
                prop_assert!(!spec.tenant.is_empty());
            }
        }
    }
}
