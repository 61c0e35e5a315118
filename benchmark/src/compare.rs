//! `compare`: two result files in, one verdict per (workload, end-to-end
//! metric) out. Bounds and directions come from `BENCHMARK.json`, the one
//! place they are written down.

use crate::json::Value;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the base value the metric may worsen by before it regressed.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// One side was disturbed or un-pinned: the pair cannot referee anything.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn metric_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(MetricSpec {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?
                    .as_f64()
                    .ok_or("BENCHMARK.json: bound is not a number")?,
            })
        })
        .collect()
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// it improved).
pub fn worsening(spec: &MetricSpec, base: f64, new: f64) -> f64 {
    if spec.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    }
}

/// A metric regressed when it worsened by *more* than its bound.
pub fn verdict(spec: &MetricSpec, base: f64, new: f64, comparable: bool) -> Verdict {
    if !comparable {
        Verdict::Unresolved
    } else if worsening(spec, base, new) > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The untraced runs of a result file, as `(workload, record)`.
fn untraced_runs(file: &Value) -> Vec<(&str, &Value)> {
    file.get("runs")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect()
}

/// A run can referee only if it was pinned and no neighbour disturbed it.
fn comparable(run: &Value) -> bool {
    let pinned = run
        .get("fingerprint")
        .and_then(|f| f.get("pinned_cpu"))
        .is_some_and(|cpu| cpu.as_f64().is_some());
    pinned && run.get("disturbed").and_then(Value::as_bool) == Some(false)
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares `new` against `base`, printing one row per (workload, metric)
/// plus a `failed_frac` row per workload (any rise regresses: it is 0 at
/// seed). Returns the number of regressed rows.
pub fn compare_files(benchmark: &Value, base: &Value, new: &Value) -> Result<usize, String> {
    let specs = metric_specs(benchmark)?;
    let new_runs = untraced_runs(new);
    let mut regressed = 0;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    for (workload, base_run) in untraced_runs(base) {
        let Some((_, new_run)) = new_runs.iter().find(|(w, _)| *w == workload) else {
            return Err(format!(
                "{workload}: in the base file but not in the new one"
            ));
        };
        let both_comparable = comparable(base_run) && comparable(new_run);
        for spec in &specs {
            let (Some(b), Some(n)) = (
                metric_value(base_run, &spec.name),
                metric_value(new_run, &spec.name),
            ) else {
                return Err(format!(
                    "{workload}: {} missing from a result file",
                    spec.name
                ));
            };
            let v = verdict(spec, b, n, both_comparable);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<18} {:<12} {b:>14.4} {n:>14.4} {:>+8.2}% {:>5.0}%  {}",
                spec.name,
                (n - b) / b * 100.0,
                spec.bound * 100.0,
                v.as_str()
            );
        }
        let frac = |run: &Value| {
            run.get("failed_frac")
                .and_then(Value::as_f64)
                .unwrap_or(1.0)
        };
        let (b, n) = (frac(base_run), frac(new_run));
        let v = if n > b {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed += usize::from(v == Verdict::Regressed);
        println!(
            "{workload:<18} {:<12} {b:>14.6} {n:>14.6} {:>9} {:>6}  {}",
            "failed_frac",
            "",
            "0",
            v.as_str()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_at_the_bound_edges() {
        let tps = spec(true, 0.25);
        assert_eq!(
            verdict(&tps, 1000.0, 750.0, true),
            Verdict::Ok,
            "exactly the bound is allowed"
        );
        assert_eq!(verdict(&tps, 1000.0, 749.9, true), Verdict::Regressed);
        assert_eq!(
            verdict(&tps, 1000.0, 2000.0, true),
            Verdict::Ok,
            "a gain never regresses"
        );
        let p50 = spec(false, 0.25);
        assert_eq!(verdict(&p50, 40.0, 50.0, true), Verdict::Ok);
        assert_eq!(verdict(&p50, 40.0, 50.01, true), Verdict::Regressed);
        assert_eq!(verdict(&p50, 40.0, 20.0, true), Verdict::Ok);
        let setup = spec(false, 0.25);
        assert_eq!(verdict(&setup, 0.4, 0.5, true), Verdict::Ok);
        assert_eq!(verdict(&setup, 0.4, 0.51, true), Verdict::Regressed);
    }

    #[test]
    fn a_disturbed_or_unpinned_side_resolves_nothing() {
        let tps = spec(true, 0.10);
        assert_eq!(verdict(&tps, 1000.0, 10.0, false), Verdict::Unresolved);
        assert_eq!(verdict(&tps, 1000.0, 1000.0, false), Verdict::Unresolved);
    }

    fn run(workload: &str, tps: f64, disturbed: bool, pinned: bool, failed_frac: f64) -> Value {
        Value::obj([
            ("workload", workload.into()),
            ("trace", 0u64.into()),
            ("disturbed", disturbed.into()),
            ("failed_frac", failed_frac.into()),
            (
                "fingerprint",
                Value::obj([("pinned_cpu", if pinned { 1u64.into() } else { Value::Null })]),
            ),
            (
                "metrics",
                Value::obj([(
                    "tps",
                    Value::obj([("value", tps.into()), ("unit", "1/s".into())]),
                )]),
            ),
        ])
    }

    fn file(runs: Vec<Value>) -> Value {
        Value::obj([("runs", Value::Arr(runs))])
    }

    #[test]
    fn files_compare_row_by_row() {
        let benchmark = Value::parse(
            r#"{"end_to_end": [{"name": "tps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let base = file(vec![
            run("a", 1000.0, false, true, 0.0),
            run("b", 1000.0, false, true, 0.0),
        ]);
        let same = compare_files(&benchmark, &base, &base).unwrap();
        assert_eq!(same, 0);
        let slower = file(vec![
            run("a", 850.0, false, true, 0.0),
            run("b", 950.0, false, true, 0.0),
        ]);
        assert_eq!(compare_files(&benchmark, &base, &slower).unwrap(), 1);
        let noisy = file(vec![
            run("a", 850.0, true, true, 0.0),
            run("b", 850.0, false, false, 0.0),
        ]);
        assert_eq!(
            compare_files(&benchmark, &base, &noisy).unwrap(),
            0,
            "unresolved is not regressed"
        );
        let failing = file(vec![
            run("a", 1000.0, false, true, 0.001),
            run("b", 1000.0, false, true, 0.0),
        ]);
        assert_eq!(
            compare_files(&benchmark, &base, &failing).unwrap(),
            1,
            "any failure is a regression"
        );
        let missing = file(vec![run("a", 1000.0, false, true, 0.0)]);
        assert!(compare_files(&benchmark, &base, &missing).is_err());
    }
}
