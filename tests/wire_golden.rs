//! Golden wire bytes: one pinned frame per request/response variant, per
//! `WorkloadOp`, `SpecOutcome` and `WirePlan` node, and per `CmpOp`/`AggFunc`.
//!
//! The hex strings are the wire format. They were captured from the
//! hand-written codec that preceded the frame table in `net/protocol.rs` and
//! must never change: an edit to the codec that moves a single byte fails
//! here. Every `*_golden` function is an exhaustive `match` with no wildcard
//! arm over variants, so a new variant does not compile until it has a
//! fixture.

use esdb::core::spec_exec::SpecOutcome;
use esdb::core::{ObsSnapshot, StatsSnapshot, OBS_SNAPSHOT_VERSION};
use esdb::net::protocol::{
    decode_request, decode_response, encode_request, encode_response, encode_spec, FrameError,
    Request, Response, ServerStats, WirePlan, HEADER_LEN, MAX_FRAME,
};
use esdb::obs::{HistogramSnapshot, WaitProfile};
use esdb::staged::{AggFunc, CmpOp};
use esdb::workload::{TxnSpec, WorkloadOp};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex string");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

// ------------------------------------------------------------------ values

fn op_samples() -> Vec<WorkloadOp> {
    vec![
        WorkloadOp::Read { table: 1, key: 2 },
        WorkloadOp::Write { table: 1, key: 2, row: vec![-5] },
        WorkloadOp::Add { table: 2, key: 3, col: 1, delta: -7 },
        WorkloadOp::Insert { table: 3, key: 4, row: vec![1, 2] },
        WorkloadOp::Delete { table: 4, key: 5 },
    ]
}

const CMP_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const AGG_FUNCS: [AggFunc; 4] = [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max];

fn scan() -> Box<WirePlan> {
    Box::new(WirePlan::Scan { table: 1 })
}

fn plan_samples() -> Vec<WirePlan> {
    let mut plans = vec![
        WirePlan::Scan { table: 2 },
        WirePlan::IndexScan { table: 0, index: 1, lo: i64::MIN, hi: 99 },
        WirePlan::Project { input: scan(), cols: vec![2, 0] },
        WirePlan::Sort {
            input: Box::new(WirePlan::Project { input: scan(), cols: vec![] }),
            col: 3,
        },
    ];
    for op in CMP_OPS {
        plans.push(WirePlan::Filter { input: scan(), col: 2, op, value: -4 });
    }
    // `Sum`/`Min` grouped, `Count`/`Max` ungrouped.
    for (func, group_col) in AGG_FUNCS.into_iter().zip([Some(1), None, Some(u32::MAX), None]) {
        plans.push(WirePlan::Aggregate { input: scan(), group_col, agg_col: 2, func });
    }
    plans
}

fn outcome_samples() -> Vec<SpecOutcome> {
    vec![
        SpecOutcome::Committed { reads: vec![None, Some(vec![1, 2, 3]), Some(vec![])] },
        SpecOutcome::LogicalFailure,
        SpecOutcome::ConflictFailure,
    ]
}

fn request_samples() -> Vec<Request> {
    let mut reqs = vec![
        Request::Ping,
        Request::Stats,
        Request::ObsStats,
        Request::OneShot { may_fail: false, ops: vec![] },
        Request::OneShot { may_fail: true, ops: op_samples() },
        Request::Begin,
        Request::Read { table: 3, key: u64::MAX },
        Request::Update { table: 0, key: 1, row: vec![i64::MIN, 0, i64::MAX] },
        Request::Insert { table: 9, key: 2, row: vec![] },
        Request::Commit,
        Request::Abort,
        Request::ReplSnapshot,
        Request::ReplSubscribe { from: 8, term: 1 << 33 },
        Request::ReplAck { term: 3, lsn: u64::MAX },
        Request::CommitToken,
        Request::ReadAt { table: 7, key: 11, min_lsn: 1 << 40 },
        Request::ShardPrepare {
            gtid: u64::MAX,
            ops: vec![
                WorkloadOp::Add { table: 2, key: 3, col: 1, delta: -7 },
                WorkloadOp::Insert { table: 3, key: 4, row: vec![1, 2, 3] },
            ],
        },
        Request::ShardDecide { gtid: 7, commit: true },
        Request::ShardDecide { gtid: 8, commit: false },
        Request::ShardStatus { gtid: 1 << 50 },
        Request::ShardInDoubt,
        Request::RoutingSnapshot,
        Request::MigFetch { table: 7, slot: 3, slot_count: 16 },
    ];
    let one_op = |op| Request::OneShot { may_fail: false, ops: vec![op] };
    reqs.extend(op_samples().into_iter().map(one_op));
    reqs.extend(plan_samples().into_iter().map(|plan| Request::Query { min_lsn: 1 << 33, plan }));
    reqs
}

fn snapshot_sample() -> ObsSnapshot {
    let mut lock_wait = HistogramSnapshot::default();
    lock_wait.record(1);
    lock_wait.record(100);
    let mut txn_latency = HistogramSnapshot::default();
    for v in [0u64, 1, 2, 4_096, u64::MAX] {
        txn_latency.record(v);
    }
    ObsSnapshot {
        version: OBS_SNAPSHOT_VERSION,
        stats: StatsSnapshot {
            commits: 10,
            aborts: 1,
            durable_lsn: 900,
            current_lsn: 1000,
            wal_flushes: 4,
        },
        breakdown: WaitProfile {
            useful: 500,
            lock_wait: 40,
            latch_spin: 3,
            log_wait: 70,
            io_retry: 0,
            commit_flush: 120,
        },
        lock_wait,
        wal_flush: HistogramSnapshot::default(),
        pool_miss: HistogramSnapshot::default(),
        txn_latency,
    }
}

fn response_samples() -> Vec<Response> {
    let mut resps = vec![
        Response::Hello,
        Response::Busy,
        Response::Pong,
        Response::Stats(ServerStats {
            engine: StatsSnapshot {
                commits: 1,
                aborts: 2,
                durable_lsn: 3,
                current_lsn: 4,
                wal_flushes: 5,
            },
            sessions_accepted: 6,
            sessions_shed: 7,
            sessions_active: 8,
            txns_executed: 9,
            txns_committed: 10,
            batches: 11,
        }),
        Response::ObsStats(Box::new(snapshot_sample())),
        Response::Row(vec![7, -8]),
        Response::Ok,
        Response::Error("no open transaction".into()),
        Response::SnapBegin {
            start_lsn: 8192,
            catalog: vec![(0, "accounts".into(), 2, vec![3, 9, 11]), (1, "".into(), 0, vec![])],
            indexes: vec![
                (0, 0, "accounts_branch".into(), 1, 0),
                (0, 1, "accounts_balance".into(), 0, 1),
            ],
        },
        Response::SnapPage { page_id: 42, bytes: vec![0xAB; 16] },
        Response::SnapEnd { page_count: 17 },
        Response::LogChunk { term: 1, start: 1 << 30, bytes: vec![1, 2, 3] },
        Response::Token { lsn: u64::MAX },
        Response::Lagging { applied: 99 },
        Response::ShardVote {
            gtid: 42,
            outcome: SpecOutcome::Committed { reads: vec![None, Some(vec![5, -6])] },
        },
        Response::ShardDecision { gtid: 9, commit: true },
        Response::ShardDecision { gtid: 10, commit: false },
        Response::ShardGtids(vec![1, 2, u64::MAX]),
        Response::Fenced { term: u64::MAX },
        Response::QuorumTimeout { lsn: 1 << 40, acked: 1, needed: 2 },
        Response::Rows(vec![vec![1, 2], vec![], vec![i64::MIN]]),
        Response::Routing { epoch: u64::MAX, slots: vec![0, 1, 2, 1, 0, u32::MAX] },
        Response::MigRows { rows: vec![(0, vec![]), (u64::MAX, vec![i64::MIN, 0, i64::MAX])] },
        Response::WrongShard { epoch: 9, hint: 2 },
    ];
    resps.extend(outcome_samples().into_iter().map(Response::Outcome));
    resps
}

// ---------------------------------------------------------------- fixtures

/// `OneShot { may_fail: false, ops: vec![op] }`, per op tag.
fn op_golden(op: &WorkloadOp) -> &'static str {
    match op {
        WorkloadOp::Read { .. } => "110000000300010000010000000200000000000000",
        WorkloadOp::Write { .. } => "1b00000003000100010100000002000000000000000100fbffffffffffffff",
        WorkloadOp::Add { .. } => "1b00000003000100020200000003000000000000000100f9ffffffffffffff",
        WorkloadOp::Insert { .. } => {
            "230000000300010003030000000400000000000000020001000000000000000200000000000000"
        }
        WorkloadOp::Delete { .. } => "110000000300010004040000000500000000000000",
    }
}

/// `Query { min_lsn: 1 << 33, plan: Filter { op, .. } }`, per comparison.
fn cmp_golden(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "1c0000002500000000020000000200010000000200000000fcffffffffffffff",
        CmpOp::Ne => "1c0000002500000000020000000200010000000200000001fcffffffffffffff",
        CmpOp::Lt => "1c0000002500000000020000000200010000000200000002fcffffffffffffff",
        CmpOp::Le => "1c0000002500000000020000000200010000000200000003fcffffffffffffff",
        CmpOp::Gt => "1c0000002500000000020000000200010000000200000004fcffffffffffffff",
        CmpOp::Ge => "1c0000002500000000020000000200010000000200000005fcffffffffffffff",
    }
}

/// `Query { min_lsn: 1 << 33, plan: Aggregate { func, .. } }`, per function
/// (`Sum`/`Min` grouped, `Count`/`Max` ungrouped).
fn agg_golden(func: AggFunc) -> &'static str {
    match func {
        AggFunc::Sum => "1900000025000000000200000004000100000001010000000200000000",
        AggFunc::Count => "15000000250000000002000000040001000000000200000001",
        AggFunc::Min => "1900000025000000000200000004000100000001ffffffff0200000002",
        AggFunc::Max => "15000000250000000002000000040001000000000200000003",
    }
}

/// `Query { min_lsn: 1 << 33, plan }`, per plan node.
fn plan_golden(plan: &WirePlan) -> &'static str {
    match plan {
        WirePlan::Scan { .. } => "0e0000002500000000020000000002000000",
        WirePlan::IndexScan { .. } => {
            "2200000025000000000200000001000000000100000000000000000000806300000000000000"
        }
        WirePlan::Filter { op, .. } => cmp_golden(*op),
        WirePlan::Project { .. } => "1900000025000000000200000003000100000002000200000000000000",
        WirePlan::Aggregate { func, .. } => agg_golden(*func),
        WirePlan::Sort { .. } => "1600000025000000000200000005030001000000000003000000",
    }
}

/// `Outcome(outcome)`, per outcome tag.
fn outcome_golden(outcome: &SpecOutcome) -> &'static str {
    match outcome {
        SpecOutcome::Committed { .. } => {
            "230000008400030000010300010000000000000002000000000000000300000000000000010000"
        }
        SpecOutcome::LogicalFailure => "020000008401",
        SpecOutcome::ConflictFailure => "020000008402",
    }
}

fn request_golden(req: &Request) -> &'static str {
    match req {
        Request::Ping => "0100000001",
        Request::Stats => "0100000002",
        Request::ObsStats => "0100000004",
        Request::OneShot { may_fail: true, .. } => {
            "6b0000000301050000010000000200000000000000010100000002000000000000000100fbffffff\
             ffffffff020200000003000000000000000100f9ffffffffffffff03030000000400000000000000\
             02000100000000000000020000000000000004040000000500000000000000"
        }
        Request::OneShot { may_fail: false, ops } => match ops.as_slice() {
            [op] => op_golden(op),
            [..] => "0400000003000000",
        },
        Request::Begin => "0100000010",
        Request::Read { .. } => "0d0000001103000000ffffffffffffffff",
        Request::Update { .. } => {
            "2700000012000000000100000000000000030000000000000000800000000000000000ffffffffff\
             ffff7f"
        }
        Request::Insert { .. } => "0f000000130900000002000000000000000000",
        Request::Commit => "0100000014",
        Request::Abort => "0100000015",
        Request::ReplSnapshot => "0100000020",
        Request::ReplSubscribe { .. } => "110000002108000000000000000000000002000000",
        Request::ReplAck { .. } => "11000000240300000000000000ffffffffffffffff",
        Request::CommitToken => "0100000022",
        Request::ReadAt { .. } => "1500000023070000000b000000000000000000000000010000",
        Request::ShardPrepare { .. } => {
            "4900000030ffffffffffffffff0200020200000003000000000000000100f9ffffffffffffff0303\
             00000004000000000000000300010000000000000002000000000000000300000000000000"
        }
        Request::ShardDecide { commit: true, .. } => "0a00000031070000000000000001",
        Request::ShardDecide { commit: false, .. } => "0a00000031080000000000000000",
        Request::ShardStatus { .. } => "09000000320000000000000400",
        Request::ShardInDoubt => "0100000033",
        Request::Query { plan, .. } => plan_golden(plan),
        Request::RoutingSnapshot => "0100000034",
        Request::MigFetch { .. } => "0d00000035070000000300000010000000",
    }
}

fn response_golden(resp: &Response) -> &'static str {
    match resp {
        Response::Hello => "0100000080",
        Response::Busy => "0100000081",
        Response::Pong => "0100000082",
        Response::Stats(_) => {
            "59000000830100000000000000020000000000000003000000000000000400000000000000050000\
             000000000006000000000000000700000000000000080000000000000009000000000000000a0000\
             00000000000b00000000000000"
        }
        Response::ObsStats(_) => {
            "9d08000088010000000a0000000000000001000000000000008403000000000000e8030000000000\
             000400000000000000f4010000000000002800000000000000030000000000000046000000000000\
             00000000000000000078000000000000000200000000000000650000000000000000000000000000\
             00010000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000001000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             000500000000000000ffffffffffffffff0100000000000000010000000000000001000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00010000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             00000000000000000000000000000000000000000000000000000000000000000000000000000000\
             000100000000000000"
        }
        Response::Outcome(outcome) => outcome_golden(outcome),
        Response::Row(_) => "130000008502000700000000000000f8ffffffffffffff",
        Response::Ok => "0100000086",
        Response::Error(_) => "160000008713006e6f206f70656e207472616e73616374696f6e",
        Response::SnapBegin { .. } => {
            "8600000090002000000000000002000000000008006163636f756e74730200000003000000030000\
             000000000009000000000000000b0000000000000001000000000000000000000000000200000000\
             00000000000f006163636f756e74735f6272616e6368010000000000000000010000001000616363\
             6f756e74735f62616c616e63650000000001"
        }
        Response::SnapPage { .. } => {
            "1d000000912a0000000000000010000000abababababababababababababababab"
        }
        Response::SnapEnd { .. } => "09000000921100000000000000",
        Response::LogChunk { .. } => "18000000930100000000000000000000400000000003000000010203",
        Response::Token { .. } => "0900000094ffffffffffffffff",
        Response::Lagging { .. } => "09000000956300000000000000",
        Response::ShardVote { .. } => {
            "20000000962a00000000000000000200000102000500000000000000faffffffffffffff"
        }
        Response::ShardDecision { commit: true, .. } => "0a00000097090000000000000001",
        Response::ShardDecision { commit: false, .. } => "0a000000970a0000000000000000",
        Response::ShardGtids(_) => {
            "1d000000980300000001000000000000000200000000000000ffffffffffffffff"
        }
        Response::Fenced { .. } => "0900000099ffffffffffffffff",
        Response::QuorumTimeout { .. } => "110000009a00000000000100000100000002000000",
        Response::Rows(_) => {
            "230000009b03000000020001000000000000000200000000000000000001000000000000000080"
        }
        Response::Routing { .. } => {
            "250000009cffffffffffffffff060000000000000001000000020000000100000000000000ffffff\
             ff"
        }
        Response::MigRows { .. } => {
            "310000009d0200000000000000000000000000ffffffffffffffff03000000000000000080000000\
             0000000000ffffffffffffff7f"
        }
        Response::WrongShard { .. } => "0d0000009e090000000000000002000000",
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn requests_encode_to_and_decode_from_the_golden_bytes() {
    for req in request_samples() {
        let golden = unhex(request_golden(&req));
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(hex(&buf), hex(&golden), "encode {req:?}");
        assert_eq!(decode_request(&golden), Ok(Some((req, golden.len()))));
    }
}

#[test]
fn responses_encode_to_and_decode_from_the_golden_bytes() {
    for resp in response_samples() {
        let golden = unhex(response_golden(&resp));
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(hex(&buf), hex(&golden), "encode {resp:?}");
        assert_eq!(decode_response(&golden), Ok(Some((resp, golden.len()))));
    }
}

#[test]
fn encode_spec_writes_the_one_shot_golden_bytes() {
    for may_fail in [false, true] {
        let spec = TxnSpec { kind: "golden", ops: op_samples(), may_fail };
        let req = Request::OneShot { may_fail, ops: op_samples() };
        let mut by_spec = Vec::new();
        encode_spec(&spec, &mut by_spec);
        let mut by_request = Vec::new();
        encode_request(&req, &mut by_request);
        assert_eq!(hex(&by_spec), hex(&by_request));
        if may_fail {
            assert_eq!(hex(&by_spec), request_golden(&req));
        }
    }
}

/// Number of distinct values of byte `at(frame)` over `frames`.
fn distinct(frames: Vec<&'static str>, at: impl Fn(&[u8]) -> usize) -> usize {
    let tags: std::collections::BTreeSet<u8> = frames
        .iter()
        .map(|f| {
            let frame = unhex(f);
            frame[at(&frame)]
        })
        .collect();
    tags.len()
}

#[test]
fn every_tag_has_a_fixture() {
    let requests = request_samples();
    let responses = response_samples();
    let plans = plan_samples();
    assert_eq!(distinct(requests.iter().map(request_golden).collect(), |_| 4), 22, "requests");
    assert_eq!(distinct(responses.iter().map(response_golden).collect(), |_| 4), 24, "responses");
    // Nested tags: the op byte follows [len:4][tag][may_fail][count:2], the
    // outcome byte [len:4][tag], the plan byte [len:4][tag][min_lsn:8]; a
    // filter-over-scan's comparison sits at byte 23 and an aggregate's
    // function is the frame's last byte.
    assert_eq!(distinct(op_samples().iter().map(op_golden).collect(), |_| 8), 5, "ops");
    let outcomes = outcome_samples();
    assert_eq!(distinct(outcomes.iter().map(outcome_golden).collect(), |_| 5), 3, "outcomes");
    assert_eq!(distinct(plans.iter().map(plan_golden).collect(), |_| 13), 6, "plan nodes");
    assert_eq!(distinct(CMP_OPS.map(cmp_golden).to_vec(), |_| 23), 6, "comparisons");
    assert_eq!(distinct(AGG_FUNCS.map(agg_golden).to_vec(), |f| f.len() - 1), 4, "aggregates");
}

// ---------------------------------------------------------------- totality
//
// The decoders are total: whatever is done to a golden frame, decoding
// yields a value, "incomplete", or a typed error — never a panic.

/// Every golden frame, tagged with whether it is a request.
fn golden_frames() -> Vec<(bool, Vec<u8>)> {
    let requests = request_samples().into_iter().map(|r| (true, unhex(request_golden(&r))));
    let responses = response_samples().into_iter().map(|r| (false, unhex(response_golden(&r))));
    requests.chain(responses).collect()
}

/// Decodes with the matching decoder, keeping only the consumed length.
fn decode(is_request: bool, buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if is_request {
        decode_request(buf).map(|d| d.map(|(_, used)| used))
    } else {
        decode_response(buf).map(|d| d.map(|(_, used)| used))
    }
}

/// `frame` with its payload replaced and the length prefix made to match.
fn reframed(payload: &[u8]) -> Vec<u8> {
    let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(payload);
    buf
}

#[test]
fn strict_prefixes_are_incomplete_and_short_payloads_are_malformed() {
    for (is_request, frame) in golden_frames() {
        for cut in 0..frame.len() {
            assert_eq!(decode(is_request, &frame[..cut]), Ok(None), "prefix {cut}: {}", hex(&frame));
        }
        // The same cuts with an honest length prefix: the frame is complete
        // but a field is missing.
        let payload = &frame[HEADER_LEN..];
        assert_eq!(decode(is_request, &reframed(&[])), Err(FrameError::Malformed("empty payload")));
        for cut in 1..payload.len() {
            assert_eq!(
                decode(is_request, &reframed(&payload[..cut])),
                Err(FrameError::Malformed("truncated field")),
                "payload cut at {cut} of {}",
                hex(&frame)
            );
        }
    }
}

#[test]
fn a_byte_past_the_last_field_is_trailing_garbage() {
    for (is_request, frame) in golden_frames() {
        let mut payload = frame[HEADER_LEN..].to_vec();
        payload.push(0);
        assert_eq!(
            decode(is_request, &reframed(&payload)),
            Err(FrameError::Malformed("trailing bytes")),
            "{}",
            hex(&frame)
        );
    }
}

#[test]
fn bad_tags_bools_and_strings_are_typed_errors() {
    let sum = agg_golden(AggFunc::Sum);
    let ops = op_samples();
    let one_shot = request_golden(&Request::OneShot { may_fail: true, ops: ops.clone() });
    let decide = request_golden(&Request::ShardDecide { gtid: 7, commit: true });
    let decision = response_golden(&Response::ShardDecision { gtid: 9, commit: true });
    let committed = outcome_golden(&SpecOutcome::Committed { reads: vec![] });
    let error = response_golden(&Response::Error(String::new()));
    // (is_request, golden frame, byte offset, replacement, expected rejection)
    let cases = [
        (true, one_shot, 5, 2, "bad bool"),
        (true, decide, 13, 2, "bad bool"),
        (false, decision, 13, 2, "bad bool"),
        (true, request_golden(&Request::Ping), 4, 0x77, "unknown request tag"),
        (true, response_golden(&Response::Hello), 4, 0x80, "unknown request tag"),
        (false, response_golden(&Response::Hello), 4, 0x77, "unknown response tag"),
        (false, request_golden(&Request::Ping), 4, 0x01, "unknown response tag"),
        (true, op_golden(&ops[0]), 8, 5, "unknown op tag"),
        (false, outcome_golden(&SpecOutcome::LogicalFailure), 5, 3, "unknown outcome tag"),
        (true, plan_golden(&WirePlan::Scan { table: 0 }), 13, 6, "unknown plan tag"),
        (true, cmp_golden(CmpOp::Eq), 23, 6, "unknown comparison tag"),
        (true, sum, unhex(sum).len() - 1, 4, "unknown aggregate tag"),
        (true, sum, 19, 2, "bad option tag"),
        (false, committed, 8, 2, "bad option tag"),
        (false, error, 7, 0xff, "non-utf8 string"),
    ];
    for (is_request, golden, at, byte, why) in cases {
        let mut frame = unhex(golden);
        frame[at] = byte;
        assert_eq!(decode(is_request, &frame), Err(FrameError::Malformed(why)), "{golden} @ {at}");
    }
}

#[test]
fn hostile_length_prefixes_are_rejected_not_allocated() {
    for is_request in [true, false] {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.push(0x01);
        assert_eq!(decode(is_request, &buf), Err(FrameError::Oversized(u32::MAX as usize)));
        let mut buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        buf.push(0x01);
        assert_eq!(decode(is_request, &buf), Err(FrameError::Oversized(MAX_FRAME + 1)));
        // A count field that promises more elements than the payload holds
        // runs out of bytes long before it runs out of memory.
        let lying = if is_request {
            // Update { table: 1, key: 1, row: 65535 columns, none present }
            unhex("0f000000 12 01000000 0100000000000000 ffff")
        } else {
            // ShardGtids with u32::MAX gtids, none present
            unhex("05000000 98 ffffffff")
        };
        assert_eq!(decode(is_request, &lying), Err(FrameError::Malformed("truncated field")));
    }
}

#[test]
fn smashing_any_byte_of_any_frame_never_panics_or_over_reads() {
    for (is_request, frame) in golden_frames() {
        for at in 0..frame.len() {
            for byte in [0x00, 0x02, 0x7f, 0xff] {
                let mut smashed = frame.clone();
                smashed[at] = byte;
                if let Ok(Some(used)) = decode(is_request, &smashed) {
                    assert!(used <= smashed.len());
                }
            }
        }
    }
}
