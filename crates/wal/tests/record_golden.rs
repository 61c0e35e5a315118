//! Golden log bytes: one pinned record per `LogBody` tag.
//!
//! The hex strings are the log format. They were captured from the
//! owned-`Vec` `record::encode` that preceded `encode_into` and must never
//! change: a log written by any earlier build has to decode, and a log
//! written by this one has to be the same bytes. `golden` is an exhaustive
//! `match` with no wildcard arm, so a new variant does not compile until it
//! has a fixture.

use esdb_storage::Rid;
use esdb_wal::record::{decode_stream_checked, encode};
use esdb_wal::{LogBody, NULL_LSN};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(txn_id, prev_lsn, body)` — one sample per tag, in tag order.
fn samples() -> Vec<(u64, u64, LogBody)> {
    vec![
        (7, NULL_LSN, LogBody::Begin),
        (
            7,
            8,
            LogBody::Insert { table: 3, key: 42, rid: Rid::new(7, 2), row: vec![1, -5, i64::MAX] },
        ),
        (
            7,
            33,
            LogBody::Update {
                table: 2,
                key: 0xDEAD_BEEF,
                rid: Rid::new(9, 1),
                before: vec![100, -1],
                after: vec![90, i64::MIN],
            },
        ),
        (8, 120, LogBody::Delete { table: 9, key: 0, rid: Rid::new(0, 0), before: vec![] }),
        (7, 160, LogBody::Commit),
        (8, 140, LogBody::Abort),
        (0, NULL_LSN, LogBody::Checkpoint { redo_lsn: 512 }),
        (3, 180, LogBody::Prepare { gtid: u64::MAX }),
        (0, NULL_LSN, LogBody::Decide { gtid: 7, commit: true }),
        (0, NULL_LSN, LogBody::GtidWatermark { next: 1024 }),
        (0, NULL_LSN, LogBody::TermChange { term: 3 }),
        (
            0,
            NULL_LSN,
            LogBody::MigrationStep { mid: 5, phase: 3, slot: 11, from: 0, to: 2, mark: u64::MAX },
        ),
    ]
}

fn golden(body: &LogBody) -> &'static str {
    match body {
        LogBody::Begin => "19000000c4215a900700000000000000000000000000000000",
        LogBody::Insert { .. } => "470000003d27f60b0700000000000000080000000000000001030000002a00000000000000020007000000000003000100000000000000fbffffffffffffffffffffffffffff7f",
        LogBody::Update { .. } => "510000001dab3450070000000000000021000000000000000202000000efbeadde00000000010009000000000002006400000000000000ffffffffffffffff02005a000000000000000000000000000080",
        LogBody::Delete { .. } => "2f000000eae14c7c080000000000000078000000000000000309000000000000000000000000000000000000000000",
        LogBody::Commit => "19000000316793730700000000000000a00000000000000004",
        LogBody::Abort => "19000000c515d3a608000000000000008c0000000000000005",
        LogBody::Checkpoint { .. } => "21000000ea68365a00000000000000000000000000000000060002000000000000",
        LogBody::Prepare { .. } => "21000000069c2f5b0300000000000000b40000000000000007ffffffffffffffff",
        LogBody::Decide { .. } => "220000000a9dac990000000000000000000000000000000008070000000000000001",
        LogBody::GtidWatermark { .. } => "2100000001925fe600000000000000000000000000000000090004000000000000",
        LogBody::TermChange { .. } => "21000000348d12a5000000000000000000000000000000000a0300000000000000",
        LogBody::MigrationStep { .. } => "36000000c0f5396a000000000000000000000000000000000b0500000000000000030b0000000000000002000000ffffffffffffffff",
    }
}

#[test]
fn every_tag_encodes_to_its_pinned_bytes() {
    for (txn, prev, body) in samples() {
        let bytes = encode(txn, prev, &body);
        assert_eq!(hex(&bytes), golden(&body), "{body:?}");
    }
}

#[test]
fn pinned_bytes_decode_to_the_sample() {
    let mut stream = Vec::new();
    for (txn, prev, body) in samples() {
        stream.extend_from_slice(&encode(txn, prev, &body));
    }
    let salvaged = decode_stream_checked(&stream, 8);
    assert_eq!(salvaged.corruption, None);
    let decoded: Vec<_> = salvaged.records.into_iter().map(|r| (r.txn_id, r.prev_lsn, r.body)).collect();
    assert_eq!(decoded, samples());
}

/// The second `Decide` polarity shares its tag with the first; pinned apart
/// from the exhaustive match because `golden` is keyed by tag.
#[test]
fn decide_abort_is_one_byte_apart() {
    let bytes = encode(0, NULL_LSN, &LogBody::Decide { gtid: 7, commit: false });
    assert_eq!(hex(&bytes), "220000009cadabee0000000000000000000000000000000008070000000000000000");
}
