//! One workload, start to finish: pin, set up, run the closed loop, check
//! the outputs, and print every metric by name with its unit — the last
//! line of standard output being the one JSON object the driver reads.

use crate::driver::{run_segment, Segment};
use crate::host;
use crate::json::Value;
use crate::stats::{self, Summary};
use crate::sut::{self, Counts};
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("tps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
];

/// The per-layer metrics of a traced run, with their units. Every workload
/// reports all of them; a layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("workload.gen_us", "us"),
    ("core.exec_us", "us"),
    ("core.abort_ratio", "ratio"),
    ("wal.flushes", "count"),
    ("wal.bytes", "B"),
    ("wal.commits_per_flush", "ratio"),
    ("wal.flush_wait_us", "us"),
    ("lock.waits", "count"),
    ("lock.wait_us", "us"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_miss_us", "us"),
    ("storage.writebacks", "count"),
    ("net.codec_us", "us"),
    ("net.wire_bytes", "B"),
    ("net.transport_us", "us"),
    ("net.txns_per_tick", "ratio"),
    ("net.reactor_tick_us", "us"),
    ("shard.route_us", "us"),
    ("shard.prepare_us", "us"),
    ("shard.decide_us", "us"),
    ("shard.backend_calls", "count"),
    ("shard.cross_frac", "ratio"),
    ("staged.ns_per_row.scan_agg", "ns/row"),
    ("staged.ns_per_row.filter_group", "ns/row"),
    ("staged.ns_per_row.filter_sort", "ns/row"),
    ("proc.cpu_us", "us"),
    ("proc.sys_frac", "ratio"),
    ("proc.ctx_switches", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

const WINDOW_NS: u64 = 1_000_000_000;
/// Discarded before an instance's first window: caches fill, the pool of
/// `engine.ycsb.spill` reaches its steady mix (it turns over ~7x a second),
/// connections are hot.
const WARMUP_NS: u64 = WINDOW_NS;
/// Before the traced windows of a traced run, which follow the reference
/// windows directly and only need the fresh client threads to get going.
const RESUME_NS: u64 = WINDOW_NS / 10;
/// Instances an untraced run sets up and measures in turn, its windows split
/// between them. Why more than one: where a set-up happens to place its
/// tables and indexes in memory moves a whole instance by +-2.5 % (four
/// `engine.tpcb` instances in one process: 117.3k, 116.9k, 122.1k, 116.4k
/// tps, each with windows within 1 % of one another), which is most of the
/// run-to-run spread. The median window over three instances sees three
/// placements; `setup_s` is the median of the three set-ups, all of them
/// real.
const INSTANCES: usize = 3;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced segment: counter deltas taken around
/// it, span totals recorded inside it, and process accounting across it.
fn layer_metrics(
    seg: &Segment,
    counts: (&Counts, &Counts),
    usage: (host::ProcUsage, host::ProcUsage),
    overhead_frac: f64,
) -> BTreeMap<&'static str, f64> {
    let ops = seg.attempted as f64;
    let count = |c: &Counts, name: &str| c.get(name).copied().unwrap_or(0);
    let d = |name: &str| (count(counts.1, name) - count(counts.0, name)) as f64;
    let span = |name: &str| seg.totals.get(name).copied().unwrap_or_default();
    let per_op_us = |ns: f64| ratio(ns, ops) / 1e3;

    // Server-side execution per transaction where the program times it (the
    // one-shot wire path); the benchmark's own span around `run_spec`
    // in-process. The 2PC participant path records neither, so on
    // `shard.tpcb.x100` execution stays inside `shard.prepare_us`.
    let exec_us = if d("core.txns_timed") > 0.0 {
        ratio(d("core.txn_ns"), d("core.txns_timed")) / 1e3
    } else {
        let t = span("core.run_spec");
        ratio(t.total_ns as f64, t.count as f64) / 1e3
    };
    let codec_us = ratio(d("net.codec_ns"), d("net.codec_txns")) / 1e3;
    let wire_call_ns = span("net.one_shot").total_ns + span("net.run_pipelined").total_ns;
    let backend_ns = span("shard.prepare").total_ns
        + span("shard.decide").total_ns
        + span("shard.one_shot").total_ns;
    let transport_us = if wire_call_ns > 0 {
        per_op_us(wire_call_ns as f64) - exec_us - codec_us
    } else if backend_ns > 0 {
        // Per backend round trip; participant execution cannot be told apart.
        ratio(
            backend_ns as f64 - d("net.codec_ns"),
            d("shard.backend_calls"),
        ) / 1e3
    } else {
        0.0
    };
    let cpu_us = (usage.1.user_us + usage.1.sys_us - usage.0.user_us - usage.0.sys_us) as f64;
    let ns_per_row = |plan: usize| {
        let t = span(sut::OLAP_SPANS[plan]);
        ratio(t.total_ns as f64, t.count as f64 * sut::OLAP_ROWS as f64)
    };

    BTreeMap::from([
        (
            "workload.gen_us",
            per_op_us(span("workload.gen").total_ns as f64),
        ),
        ("core.exec_us", exec_us),
        (
            "core.abort_ratio",
            ratio(d("core.aborts"), d("core.commits") + d("core.aborts")),
        ),
        ("wal.flushes", ratio(d("wal.flushes"), ops)),
        ("wal.bytes", ratio(d("wal.bytes"), ops)),
        (
            "wal.commits_per_flush",
            ratio(d("core.commits"), d("wal.flushes")),
        ),
        ("wal.flush_wait_us", per_op_us(d("wal.flush_wait_ns"))),
        ("lock.waits", ratio(d("lock.waits"), ops)),
        ("lock.wait_us", per_op_us(d("lock.wait_ns"))),
        (
            "storage.pool_hit_ratio",
            ratio(
                d("storage.pool_hits"),
                d("storage.pool_hits") + d("storage.pool_misses"),
            ),
        ),
        ("storage.pool_miss_us", per_op_us(d("storage.pool_miss_ns"))),
        ("storage.writebacks", ratio(d("storage.writebacks"), ops)),
        ("net.codec_us", codec_us),
        (
            "net.wire_bytes",
            ratio(d("net.wire_bytes"), d("net.codec_txns")),
        ),
        ("net.transport_us", transport_us),
        (
            "net.txns_per_tick",
            ratio(d("net.txns_executed"), d("net.batches")),
        ),
        ("net.reactor_tick_us", per_op_us(d("net.reactor_tick_ns"))),
        (
            "shard.route_us",
            per_op_us(span("shard.execute").self_ns as f64),
        ),
        (
            "shard.prepare_us",
            per_op_us(span("shard.prepare").total_ns as f64),
        ),
        (
            "shard.decide_us",
            per_op_us(span("shard.decide").total_ns as f64),
        ),
        ("shard.backend_calls", ratio(d("shard.backend_calls"), ops)),
        (
            "shard.cross_frac",
            ratio(d("shard.cross"), d("shard.single") + d("shard.cross")),
        ),
        ("staged.ns_per_row.scan_agg", ns_per_row(0)),
        ("staged.ns_per_row.filter_group", ns_per_row(1)),
        ("staged.ns_per_row.filter_sort", ns_per_row(2)),
        ("proc.cpu_us", ratio(cpu_us, ops)),
        (
            "proc.sys_frac",
            ratio((usage.1.sys_us - usage.0.sys_us) as f64, cpu_us),
        ),
        (
            "proc.ctx_switches",
            ratio((usage.1.ctx_switches - usage.0.ctx_switches) as f64, ops),
        ),
        ("proc.peak_rss_mb", usage.1.peak_rss_mb),
        (
            "trace.unattributed_us",
            per_op_us(span("client.call").self_ns as f64),
        ),
        ("trace.overhead_frac", overhead_frac),
    ])
}

/// Prints the waterfall of the mean client call: one row of self time per
/// layer span beneath `client.call`, plus `unattributed` (the call span's own
/// self time). Fails unless the rows sum to the call's wall time within 1 %.
fn print_waterfall(seg: &Segment) -> Result<(), String> {
    let call = seg.totals.get("client.call").copied().unwrap_or_default();
    if call.count == 0 {
        return Err("traced segment recorded no client call".to_string());
    }
    let per_call_us = |ns: u64| ns as f64 / call.count as f64 / 1e3;
    println!(
        "waterfall: mean client call {:.3} us over {} calls",
        per_call_us(call.total_ns),
        call.count
    );
    let mut sum_ns = call.self_ns;
    for (name, t) in seg
        .totals
        .iter()
        .filter(|(n, _)| !matches!(**n, "client.call" | "workload.gen"))
    {
        sum_ns += t.self_ns;
        println!(
            "  {name:<28} {:>10.3} us {:>6.1}%  ({:.2} spans/call)",
            per_call_us(t.self_ns),
            t.self_ns as f64 / call.total_ns as f64 * 100.0,
            t.count as f64 / call.count as f64
        );
    }
    println!(
        "  {:<28} {:>10.3} us {:>6.1}%",
        "unattributed",
        per_call_us(call.self_ns),
        call.self_ns as f64 / call.total_ns as f64 * 100.0
    );
    println!("  {:<28} {:>10.3} us", "sum of rows", per_call_us(sum_ns));
    let gap = (sum_ns as f64 - call.total_ns as f64).abs() / call.total_ns as f64;
    if gap > 0.01 {
        return Err(format!(
            "waterfall rows miss the call wall time by {:.2} %",
            gap * 100.0
        ));
    }
    Ok(())
}

fn write_trace_file(workload: &str, seed: u64, seg: &Segment) -> Result<String, String> {
    let spans = seg.spans.iter().map(|(thread, s)| {
        Value::obj([
            ("name", s.name.into()),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
            // Index into the same thread's spans, in file order; null = root.
            (
                "parent",
                if s.parent == crate::trace::ROOT {
                    Value::Null
                } else {
                    u64::from(s.parent).into()
                },
            ),
            ("request_id", u64::from(s.request_id).into()),
            ("thread", (*thread as u64).into()),
        ])
    });
    let file = Value::obj([
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("spans_recorded", (seg.spans_recorded as u64).into()),
        ("spans_written", (seg.spans.len() as u64).into()),
        ("spans", Value::Arr(spans.collect())),
    ]);
    let path = format!("{}/trace-{workload}.json", crate::OUT_DIR);
    std::fs::write(&path, format!("{file}\n")).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<32} {value:>16.4} {unit:<7} {note}");
}

/// What the measured part of a run hands to the reporting part.
struct Measured {
    summary: Summary,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// One line per oracle passed, or the first failure.
    oracles: Result<Vec<String>, String>,
}

/// An untraced run: [`INSTANCES`] set-ups, each measured for its share of
/// the windows and then checked; the end-to-end metrics are taken over all
/// windows of all instances.
fn measure_end_to_end(workload: &str, seed: u64, windows: usize) -> Result<Measured, String> {
    let mut all_windows = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut setups_s = Vec::new();
    let mut oracles = Ok(Vec::new());
    let shares = (0..INSTANCES).map(|k| windows / INSTANCES + usize::from(k < windows % INSTANCES));
    for share in shares.filter(|share| *share > 0) {
        let started = Instant::now();
        let mut system = sut::set_up(workload, seed)?;
        setups_s.push(started.elapsed().as_secs_f64());
        let seg = run_segment(system.callers(), WARMUP_NS, share, WINDOW_NS, false)?;
        all_windows.extend(seg.windows);
        attempted += seg.attempted;
        failed += seg.failed;
        match (system.check_outputs(), &mut oracles) {
            (Ok(lines), Ok(all)) => all.extend(lines),
            (Err(e), _) => {
                oracles = Err(e);
                break;
            }
            (Ok(_), Err(_)) => unreachable!("the loop stops at the first failed oracle"),
        }
    }
    let summary = stats::summarize(&mut all_windows);
    let values = [
        summary.tps,
        summary.p50_us,
        summary.p99_us,
        stats::median(&setups_s),
    ];
    let notes = [
        format!(
            "median window; second-best {:.1}, min {:.1}",
            summary.tps_best, summary.tps_min
        ),
        "median window's median latency of one client call".to_string(),
        format!(
            "median window's p{:.1}; >= {} calls per window",
            summary.tail_quantile * 100.0,
            summary.samples_min
        ),
        format!("median of {setups_s:.3?}"),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (*name, v, *unit))
        .collect();
    for ((name, value, unit), note) in metrics.iter().zip(&notes) {
        print_metric(name, *value, unit, note);
    }
    Ok(Measured {
        summary,
        attempted,
        failed,
        metrics,
        oracles,
    })
}

/// A traced run: one instance; half the windows untraced for reference,
/// split before and after the traced ones so that a rate that drifts over
/// the run (`wire.tpcb.d8` slows ~5 % as its history table grows) does not
/// read as tracing overhead; counter snapshots around the traced windows.
fn measure_layers(workload: &str, seed: u64, windows: usize) -> Result<Measured, String> {
    let mut system = sut::set_up(workload, seed)?;
    let traced_windows = windows - windows / 2;
    let before_windows = windows / 4;
    let mut before = run_segment(
        system.callers(),
        2 * WARMUP_NS,
        before_windows,
        WINDOW_NS,
        false,
    )?;
    let (counts_before, usage_before) = (system.counts(), host::proc_usage());
    let mut seg = run_segment(system.callers(), RESUME_NS, traced_windows, WINDOW_NS, true)?;
    let (counts_after, usage_after) = (system.counts(), host::proc_usage());
    let after = run_segment(
        system.callers(),
        RESUME_NS,
        windows - traced_windows - before_windows,
        WINDOW_NS,
        false,
    )?;
    before.windows.extend(after.windows);
    let untraced = stats::summarize(&mut before.windows);
    let summary = stats::summarize(&mut seg.windows);
    let values = layer_metrics(
        &seg,
        (&counts_before, &counts_after),
        (usage_before, usage_after),
        1.0 - summary.tps / untraced.tps,
    );
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, values[name], *unit))
        .collect();
    for (name, value, unit) in &metrics {
        print_metric(name, *value, unit, "");
    }
    print_metric(
        "tps (traced)",
        summary.tps,
        "1/s",
        &format!("untraced reference {:.1}", untraced.tps),
    );
    print_waterfall(&seg)?;
    println!("trace file: {}", write_trace_file(workload, seed, &seg)?);
    Ok(Measured {
        summary,
        attempted: before.attempted + seg.attempted + after.attempted,
        failed: before.failed + seg.failed + after.failed,
        metrics,
        oracles: system.check_outputs(),
    })
}

/// Runs `workload` in this process and prints its metrics; the last line of
/// standard output is the driver's JSON object. An output oracle that fails,
/// or any failed operation, prints `"correct": false` and returns an error.
pub fn run_one(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get()) as u64;
    let load_before = host::loadavg();
    let pinned_cpu = host::pin_to_one_cpu();
    if !host::fix_allocator_thresholds() {
        return Err("mallopt refused the fixed allocator thresholds".to_string());
    }
    println!(
        "== {workload}  seed {seed}  trace {}  {seconds} x 1 s windows  pinned cpu {} ==",
        u8::from(traced),
        pinned_cpu.map_or("NONE (numbers not comparable)".to_string(), |c| c
            .to_string()),
    );
    let measure = if traced {
        measure_layers
    } else {
        measure_end_to_end
    };
    let Measured {
        summary,
        attempted,
        failed,
        metrics,
        oracles,
    } = measure(workload, seed, seconds as usize)?;

    println!("{:<32} {:.1?}", "window rates (1/s)", summary.rates);
    let failed_frac = failed as f64 / attempted as f64;
    print_metric(
        "failed_frac",
        failed_frac,
        "ratio",
        &format!("{failed} of {attempted} operations"),
    );
    println!("{:<32} {:>16}", "disturbed", summary.disturbed);
    match &oracles {
        Ok(passed) => passed.iter().for_each(|line| println!("oracle ok: {line}")),
        Err(e) => println!("ORACLE FAILED: {e}"),
    }
    let correct = oracles.is_ok() && failed == 0;

    let numbers = |v: &[f64]| Value::Arr(v.iter().map(|x| (*x).into()).collect());
    let metrics_json = Value::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::obj([("value", (*value).into()), ("unit", (*unit).into())]),
                )
            })
            .collect(),
    );
    let record = Value::obj([
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("trace", u64::from(traced).into()),
        ("windows", seconds.into()),
        (
            "fingerprint",
            host::fingerprint(nproc, pinned_cpu, load_before),
        ),
        ("disturbed", summary.disturbed.into()),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("failed_frac", failed_frac.into()),
        ("tps_best", summary.tps_best.into()),
        ("tps_min", summary.tps_min.into()),
        ("tail_quantile", summary.tail_quantile.into()),
        ("samples_min", (summary.samples_min as u64).into()),
        ("window_rates", numbers(&summary.rates)),
        ("window_p50_us", numbers(&summary.p50s_us)),
        ("window_tail_us", numbers(&summary.tails_us)),
        (
            "oracles",
            Value::Arr(
                oracles
                    .iter()
                    .flatten()
                    .map(|line| line.as_str().into())
                    .collect(),
            ),
        ),
        ("metrics", metrics_json.clone()),
    ]);
    let path = crate::record_path(workload, traced);
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{path}: {e}"))?;

    let line = Value::obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json),
    ]);
    println!("{line}");
    if correct {
        Ok(())
    } else {
        Err(oracles
            .err()
            .unwrap_or_else(|| format!("{failed} of {attempted} operations failed")))
    }
}
