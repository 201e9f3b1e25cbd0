//! Property tests for the job service's trust boundary: the HTTP request
//! itself and the body of `POST /v1/jobs`.

use hipmer_serve::http::{read_request, ParseError, Request};
use hipmer_serve::JobSpec;
use proptest::prelude::*;
use std::io::Read;

/// The request head and body limits `read_request` enforces.
const MAX_HEAD_BYTES: usize = 8 * 1024;
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// `read_request` over `bytes`; an accepted request must be within the
/// body limit. Returning at all is the never-panic property.
fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
    let parsed = read_request(bytes);
    if let Ok(req) = &parsed {
        assert!(req.body.len() <= MAX_BODY_BYTES);
    }
    parsed
}

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

    // Arbitrary bytes, and valid requests cut, flipped or spliced, give a
    // request or a `ParseError`, never a panic; the valid request parses to
    // exactly what was sent.
    #[test]
    fn read_request_never_panics_on_arbitrary_or_mutated_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        method in prop::sample::select(&["GET", "post", "DELETE", "Put"][..]),
        path in "[a-z0-9/]{0,20}",
        query in "[a-z0-9=&]{0,12}",
        body in prop::collection::vec(any::<u8>(), 0..64),
        junk in prop::collection::vec(any::<u8>(), 1..16),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip in 1u8..=255,
        splice_at in any::<usize>(),
    ) {
        let _ = parse(&raw);

        let mut valid = format!(
            "{method} /{path}?{query} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        valid.extend_from_slice(&body);
        let req = parse(&valid).unwrap();
        prop_assert_eq!(req.method, method.to_ascii_uppercase());
        prop_assert_eq!((req.path, req.query), (format!("/{path}"), query));
        prop_assert_eq!(req.body, body);

        let mut flipped = valid.clone();
        flipped[flip_at % valid.len()] ^= flip;
        let mut spliced = valid.clone();
        let at = splice_at % (valid.len() + 1);
        spliced.splice(at..at, junk);
        for bytes in [&valid[..cut % (valid.len() + 1)], &flipped[..], &spliced[..]] {
            let _ = parse(bytes);
        }
    }
}

#[test]
fn read_request_holds_the_head_and_body_limits() {
    let too_large = |parsed: Result<Request, ParseError>| {
        assert!(matches!(parsed, Err(ParseError::TooLarge(_))), "{parsed:?}");
    };
    // A request line that never ends, and headers that never end, are cut
    // off at the head limit instead of being read whole.
    too_large(read_request(std::io::repeat(b'a')));
    let endless_headers = &b"GET / HTTP/1.1\r\n"[..];
    too_large(read_request(
        endless_headers.chain(Endless(b"X-Pad: 0123456789\r\n", 0)),
    ));
    // A head of exactly the limit is accepted.
    let mut head = b"GET / HTTP/1.1\r\n".to_vec();
    let pad = MAX_HEAD_BYTES - head.len() - b"X: \r\n\r\n".len();
    head.extend_from_slice(format!("X: {}\r\n\r\n", "p".repeat(pad)).as_bytes());
    assert_eq!(head.len(), MAX_HEAD_BYTES);
    assert!(read_request(&head[..]).is_ok());
    // A body over the limit is refused before any of it is read; one at
    // the limit is read whole.
    let with_length = |n: usize| {
        let head = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {n}\r\n\r\n");
        read_request(head.into_bytes().chain(std::io::repeat(b'b')))
    };
    too_large(with_length(MAX_BODY_BYTES + 1));
    too_large(with_length(usize::MAX));
    assert_eq!(
        with_length(MAX_BODY_BYTES).unwrap().body.len(),
        MAX_BODY_BYTES
    );
}

/// A line repeated forever; the second field is the offset into it.
struct Endless(&'static [u8], usize);

impl Read for Endless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        for byte in buf.iter_mut() {
            *byte = self.0[self.1];
            self.1 = (self.1 + 1) % self.0.len();
        }
        Ok(buf.len())
    }
}
