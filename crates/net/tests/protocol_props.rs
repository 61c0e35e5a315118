//! Property tests: wire frames round-trip, and arbitrary bytes never panic
//! the decoder — the server's parsing surface must be total.
//!
//! Values come from the frame table itself (`arbitrary_request` /
//! `arbitrary_response` draw a row, then each field from its wire type), so
//! a frame added to the table is covered here without touching this file.
//! The exact bytes are pinned separately by `tests/wire_golden.rs`.

use esdb_core::OBS_SNAPSHOT_VERSION;
use esdb_net::protocol::{
    arbitrary_request, arbitrary_response, decode_request, decode_response, encode_request,
    encode_response, Decoded, FrameError, Request, Response, WirePlan, MAX_PLAN_DEPTH,
};
use esdb_workload::Rng;
use proptest::prelude::*;

fn request_frame(seed: u64) -> (Request, Vec<u8>) {
    let req = arbitrary_request(&mut Rng::new(seed));
    let mut buf = Vec::new();
    encode_request(&req, &mut buf);
    (req, buf)
}

fn response_frame(seed: u64) -> (Response, Vec<u8>) {
    let resp = arbitrary_response(&mut Rng::new(seed));
    let mut buf = Vec::new();
    encode_response(&resp, &mut buf);
    (resp, buf)
}

/// The first `ObsStats` frame the table generates from `seed` on.
fn obs_frame(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    loop {
        let resp = arbitrary_response(&mut rng);
        if matches!(resp, Response::ObsStats(_)) {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            return buf;
        }
    }
}

/// Flips one bit past the length prefix.
fn flip(buf: &mut [u8], byte: u16, bit: u8) {
    let i = 4 + (byte as usize) % (buf.len() - 4);
    buf[i] ^= 1 << bit;
}

/// Whatever a decoder makes of `buf`, it consumed no more than it was given.
fn within<T>(decoded: Decoded<T>, buf: &[u8]) -> bool {
    !matches!(decoded, Ok(Some((_, used))) if used > buf.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_roundtrip(seed in any::<u64>()) {
        let (req, buf) = request_frame(seed);
        prop_assert_eq!(decode_request(&buf), Ok(Some((req, buf.len()))));
    }

    #[test]
    fn responses_roundtrip(seed in any::<u64>()) {
        let (resp, buf) = response_frame(seed);
        prop_assert_eq!(decode_response(&buf), Ok(Some((resp, buf.len()))));
    }

    #[test]
    fn truncated_valid_frames_report_incomplete(seed in any::<u64>(), cut in 0usize..10_000) {
        // Any strict prefix of a valid frame is incomplete, never malformed:
        // a reader holding a half-arrived vote, page or routing table must
        // wait for the rest, not drop a healthy connection.
        let (_, buf) = request_frame(seed);
        prop_assert_eq!(decode_request(&buf[..cut % buf.len()]), Ok(None));
        let (_, buf) = response_frame(seed);
        prop_assert_eq!(decode_response(&buf[..cut % buf.len()]), Ok(None));
    }

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // The decoders are total functions: any byte soup yields Ok or Err,
        // and whatever they decode must consume no more than the input.
        prop_assert!(within(decode_request(&bytes), &bytes));
        prop_assert!(within(decode_response(&bytes), &bytes));
    }

    #[test]
    fn foreign_snapshot_versions_decode_to_typed_error(
        seed in any::<u64>(),
        version in any::<u32>(),
    ) {
        // The vendored proptest has no prop_assume; dodge the one valid value.
        let version = if version == OBS_SNAPSHOT_VERSION { version.wrapping_add(1) } else { version };
        let mut buf = obs_frame(seed);
        // Rewrite the version field (4-byte length prefix, 1-byte tag, then
        // the little-endian version). A peer from the future must yield a
        // typed error — never a panic, never a misread layout.
        buf[5..9].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(decode_response(&buf), Err(FrameError::UnsupportedVersion(version)));
    }

    #[test]
    fn corrupted_tag_errors_cleanly(seed in any::<u64>(), evil in any::<u8>()) {
        // Smash the payload tag; decoding must not panic and must consume
        // nothing it should not.
        let (_, mut buf) = request_frame(seed);
        buf[4] = evil;
        prop_assert!(within(decode_request(&buf), &buf));
        let (_, mut buf) = response_frame(seed);
        buf[4] = evil;
        prop_assert!(within(decode_response(&buf), &buf));
    }

    #[test]
    fn bit_flipped_frames_never_panic(seed in any::<u64>(), byte in any::<u16>(), bit in 0u8..8) {
        // A corrupted frame must decode to a typed error, incomplete, or a
        // (different) frame — never a panic and never an over-read.
        let (_, mut buf) = request_frame(seed);
        flip(&mut buf, byte, bit);
        prop_assert!(within(decode_request(&buf), &buf));
        let (_, mut buf) = response_frame(seed);
        flip(&mut buf, byte, bit);
        prop_assert!(within(decode_response(&buf), &buf));
    }
}

#[test]
fn over_deep_plan_is_malformed_not_a_stack_overflow() {
    let nested = |levels: usize| {
        let mut plan = WirePlan::Scan { table: 0 };
        for _ in 0..levels {
            plan = WirePlan::Sort { input: Box::new(plan), col: 0 };
        }
        let mut buf = Vec::new();
        encode_request(&Request::Query { min_lsn: 0, plan }, &mut buf);
        buf
    };
    assert!(matches!(decode_request(&nested(MAX_PLAN_DEPTH - 1)), Ok(Some(_))));
    for levels in [MAX_PLAN_DEPTH, MAX_PLAN_DEPTH + 10] {
        assert_eq!(
            decode_request(&nested(levels)),
            Err(FrameError::Malformed("plan nested too deeply"))
        );
    }
}

#[test]
fn pipelined_frames_decode_in_sequence() {
    let sent = [Request::Ping, Request::Stats, Request::Commit];
    let mut buf = Vec::new();
    for req in &sent {
        encode_request(req, &mut buf);
    }
    let mut at = 0;
    let mut seen = Vec::new();
    while let Some((req, used)) = decode_request(&buf[at..]).unwrap() {
        seen.push(req);
        at += used;
    }
    assert_eq!(seen, sent);
    assert_eq!(at, buf.len());
}
