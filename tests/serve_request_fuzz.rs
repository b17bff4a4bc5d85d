//! Fuzz test of the serve daemon's untrusted input boundary: the
//! request parser reads files any client may drop into the inbox.
//!
//! Starting from well-formed `encode_request` output, seeded mutations —
//! truncations, byte flips, dropped and duplicated lines, a retired
//! version-1 header — must never panic the parser, every failure must
//! be one of the parse-time `Reject` kinds with a one-line detail, and
//! anything that does parse must re-encode to a fixed point.

use interpreters::core::{DispatchSelection, Scale};
use interpreters::guard::Rng64;
use interpreters::runplan::serve::{
    encode_request, parse_request, RejectKind, ServeRequest, REQUEST_VERSION_LINE,
};

const SEEDS: u64 = 400;
const MUTATIONS_PER_SEED: usize = 8;

/// A seeded well-formed request covering every optional field.
fn random_request(rng: &mut Rng64) -> ServeRequest {
    const TARGETS: [&str; 6] = ["table1", "table2", "fig3", "fig4", "dispatch", "all"];
    let targets: Vec<&str> = (0..rng.index(1, 4)).map(|_| *rng.pick(&TARGETS)).collect();
    let scale = if rng.chance(1, 2) {
        Scale::Test
    } else {
        Scale::Paper
    };
    let mut request = ServeRequest::new(format!("req-{}", rng.range(0, 1000)), &targets, scale);
    if rng.chance(1, 2) {
        const DISPATCH: [&str; 3] = ["naive", "naive,threaded", "all"];
        request.dispatch = DispatchSelection::parse(*rng.pick(&DISPATCH));
    }
    if rng.chance(1, 2) {
        request.priority = rng.range(0, 20) as i64 - 10;
    }
    if rng.chance(1, 2) {
        request.deadline_unix_ms = Some(rng.range(1, u64::MAX));
    }
    request
}

/// One seeded mutation of a well-formed request body.
fn mutate(rng: &mut Rng64, encoded: &str) -> Vec<u8> {
    let bytes = encoded.as_bytes();
    let lines: Vec<&str> = encoded.lines().collect();
    let rejoin = |lines: Vec<&str>| format!("{}\n", lines.join("\n")).into_bytes();
    match rng.range(0, 4) {
        0 => bytes[..rng.index(0, bytes.len())].to_vec(),
        1 => {
            let mut flipped = bytes.to_vec();
            let at = rng.index(0, flipped.len());
            flipped[at] ^= rng.range(1, 256) as u8;
            flipped
        }
        2 => {
            let mut dropped = lines;
            dropped.remove(rng.index(0, dropped.len()));
            rejoin(dropped)
        }
        _ => {
            let mut duplicated = lines;
            let at = rng.index(0, duplicated.len());
            duplicated.insert(at, duplicated[at]);
            rejoin(duplicated)
        }
    }
}

#[test]
fn unmutated_requests_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = Rng64::new(seed);
        let request = random_request(&mut rng);
        let parsed = parse_request(encode_request(&request).as_bytes(), &request.id);
        assert_eq!(parsed.as_ref(), Ok(&request), "seed {seed}");
    }
}

#[test]
fn mutated_requests_parse_or_reject_with_a_typed_reason() {
    for seed in 0..SEEDS {
        let mut rng = Rng64::new(seed);
        let request = random_request(&mut rng);
        let encoded = encode_request(&request);
        for round in 0..MUTATIONS_PER_SEED {
            let mutated = mutate(&mut rng, &encoded);
            match parse_request(&mutated, &request.id) {
                Ok(parsed) => {
                    // A mutation that still parses is a different but
                    // valid request: its encoding is a fixed point.
                    let again = parse_request(encode_request(&parsed).as_bytes(), &request.id);
                    assert_eq!(again.as_ref(), Ok(&parsed), "seed {seed} round {round}");
                }
                Err(reject) => {
                    assert!(
                        matches!(
                            reject.kind,
                            RejectKind::Torn | RejectKind::BadVersion | RejectKind::BadField
                        ),
                        "seed {seed} round {round}: {reject}"
                    );
                    assert!(!reject.detail.contains('\n'), "seed {seed} round {round}");
                }
            }
        }
    }
}

#[test]
fn version_1_header_is_a_bad_version() {
    for seed in 0..SEEDS {
        let mut rng = Rng64::new(seed);
        let request = random_request(&mut rng);
        let encoded = encode_request(&request);
        let v1 = encoded.replacen(REQUEST_VERSION_LINE, "repro-serve-request/1", 1);
        let reject = parse_request(v1.as_bytes(), &request.id).expect_err("v1 is retired");
        assert_eq!(reject.kind, RejectKind::BadVersion, "seed {seed}: {reject}");
    }
}
