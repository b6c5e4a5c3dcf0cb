//! Property tests of the reactor's incremental request parser
//! (`http::parse_request`): no byte string makes it panic, and a valid
//! request, whole or pipelined, parses to exactly what was sent while
//! every strict prefix of it just waits for more bytes.

use ft_server::http::{parse_request, Request};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789";

/// A request as sent, and the fields it must parse back to.
struct Sent {
    raw: Vec<u8>,
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: String,
    keep_alive: bool,
    trace: Option<u64>,
}

type Parts = (
    (usize, Vec<Vec<u8>>, Vec<(Vec<u8>, Vec<u8>)>),
    (bool, u64, usize, bool, bool),
    Vec<u8>,
);

/// Method, path segments and query pairs; trace header, `Connection`
/// header, HTTP/1.0, upper-case header names; a 0–4 KB body.
fn parts() -> impl Strategy<Value = Parts> {
    (
        (
            0usize..5,
            vec(vec(0u8..ALNUM.len() as u8, 1..8), 1..4),
            vec(
                (
                    vec(0u8..ALNUM.len() as u8, 1..6),
                    vec(0u8..ALNUM.len() as u8 + 1, 0..6),
                ),
                0..4,
            ),
        ),
        (
            proptest::bool::ANY,
            1u64..u64::MAX,
            0usize..3,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        vec(0u8..96, 0..4096),
    )
}

fn alnum(indices: &[u8]) -> String {
    indices.iter().map(|&i| ALNUM[i as usize] as char).collect()
}

fn build(
    ((method, segments, query), (traced, trace, connection, http10, upper), body): Parts,
) -> Sent {
    let method = ["GET", "POST", "PUT", "DELETE", "PATCH"][method].to_string();
    let path: String = segments.iter().map(|s| format!("/{}", alnum(s))).collect();
    // Index ALNUM.len() stands for a space, sent percent-encoded.
    let query: Vec<(String, String)> = query
        .iter()
        .map(|(k, v)| {
            let v = v
                .iter()
                .map(|&i| ALNUM.get(i as usize).map_or(' ', |&b| b as char))
                .collect();
            (alnum(k), v)
        })
        .collect();
    // Printable ASCII plus CR and LF, so a body may hold a blank line.
    let body: String = body
        .iter()
        .map(|&b| match b {
            94 => '\r',
            95 => '\n',
            b => (b' ' + b) as char,
        })
        .collect();

    let mut target = path.clone();
    for (i, (k, v)) in query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&format!("{k}={}", v.replace(' ', "%20")));
    }
    let name = |n: &str| {
        if upper {
            n.to_uppercase()
        } else {
            n.to_string()
        }
    };
    let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
    let mut head = format!(
        "{method} {target} {version}\r\n{}: localhost\r\n",
        name("Host")
    );
    // An empty body goes with `Content-Length: 0` or with no header.
    if !body.is_empty() || traced {
        head.push_str(&format!("{}: {}\r\n", name("Content-Length"), body.len()));
    }
    if traced {
        head.push_str(&format!("{}: {trace:016x}\r\n", name("x-ft-trace")));
    }
    let mut keep_alive = !http10;
    if connection > 0 {
        let value = ["keep-alive", "close"][connection - 1];
        head.push_str(&format!("{}: {value}\r\n", name("Connection")));
        keep_alive = connection == 1;
    }
    head.push_str("\r\n");
    let mut raw = head.into_bytes();
    raw.extend_from_slice(body.as_bytes());
    Sent {
        raw,
        method,
        path,
        query,
        body,
        keep_alive,
        trace: traced.then_some(trace),
    }
}

fn parsed_as_sent(got: &Request, sent: &Sent) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(&got.method, &sent.method);
    prop_assert_eq!(&got.path, &sent.path);
    prop_assert_eq!(&got.query, &sent.query);
    prop_assert_eq!(&got.body, &sent.body);
    prop_assert_eq!(got.keep_alive, sent.keep_alive);
    prop_assert_eq!(got.trace, sent.trace);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_request_waits_on_every_prefix_then_parses_whole(parts in parts()) {
        let sent = build(parts);
        for cut in 0..sent.raw.len() {
            prop_assert!(
                matches!(parse_request(&sent.raw[..cut]), Ok(None)),
                "prefix of {cut} bytes is not just incomplete"
            );
        }
        let (got, consumed) = parse_request(&sent.raw).unwrap().expect("complete request");
        prop_assert_eq!(consumed, sent.raw.len());
        parsed_as_sent(&got, &sent)?;
    }

    #[test]
    fn pipelined_requests_parse_back_to_back(first in parts(), second in parts()) {
        let (first, second) = (build(first), build(second));
        let raw = [first.raw.as_slice(), second.raw.as_slice()].concat();
        let (got, consumed) = parse_request(&raw).unwrap().expect("first request");
        prop_assert_eq!(consumed, first.raw.len());
        parsed_as_sent(&got, &first)?;
        let (got, rest) = parse_request(&raw[consumed..]).unwrap().expect("second request");
        prop_assert_eq!(rest, second.raw.len());
        parsed_as_sent(&got, &second)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // Random bytes, and valid requests with random bytes overwritten,
    // parse to some result without panicking.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in vec(0u16..256, 0..2048),
        parts in parts(),
        flips in vec((0usize..4096, 0u16..256), 0..8),
    ) {
        let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        let _ = parse_request(&noise);
        let mut raw = build(parts).raw;
        let len = raw.len();
        for (at, b) in flips {
            raw[at % len] = b as u8;
        }
        if let Ok(Some((_, consumed))) = parse_request(&raw) {
            prop_assert!(consumed <= raw.len());
        }
    }
}
