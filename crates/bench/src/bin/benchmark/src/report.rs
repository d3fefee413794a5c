//! Result records: the one-line result the driver reads, the run history
//! every run appends to, and `compare` over history files.

use crate::catalog::{self, Better, MetricDef};
use crate::hist::median;
use crate::json::Json;
use crate::run::{nproc, pinned_cpu, Outcome};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

/// `{"name": {"value": v, "unit": u}, …}` for the metrics of `defs`, in
/// catalog order. A per-layer metric a workload did not set is 0: that
/// layer did no work there.
fn metrics_json(out: &Outcome, defs: &[MetricDef]) -> Json {
    Json::obj(defs.iter().map(|m| {
        let value = out.metrics.get(m.name).copied().unwrap_or(0.0);
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Why a run cannot be reported as correct: an end-to-end metric that is
/// missing, zero or not finite, a per-layer metric that is not finite, any
/// failed operation, or a validity rule the workload itself raised.
pub fn problems(out: &Outcome, defs: &[MetricDef]) -> Vec<String> {
    let mut problems = out.invalid.clone();
    if out.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    for m in defs {
        match out.metrics.get(m.name) {
            Some(v) if !v.is_finite() => problems.push(format!("{} is {v}", m.name)),
            Some(v) if m.bound.is_some() && *v == 0.0 => problems.push(format!("{} is 0", m.name)),
            None if m.bound.is_some() => problems.push(format!("{} was not measured", m.name)),
            _ => {}
        }
    }
    problems
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, defs: &[MetricDef]) -> String {
    Json::obj([
        ("correct", Json::Bool(problems(out, defs).is_empty())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(out, defs)),
    ])
    .encode()
}

/// Every metric by name with its unit, one per line.
pub fn print_metrics(workload: &str, out: &Outcome, defs: &[MetricDef]) {
    for m in defs {
        let value = out.metrics.get(m.name).copied().unwrap_or(0.0);
        eprintln!("{workload:<17} {:<38} {value:>16.4} {}", m.name, m.unit);
    }
}

fn first_line(text: &str) -> Option<String> {
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

/// The checked-out commit, read from `.git` (the driver's checkout has
/// none, and no process is started for it).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").ok();
    let resolved = head
        .as_deref()
        .and_then(|h| match h.trim().strip_prefix("ref: ") {
            Some(reference) => {
                let loose = std::fs::read_to_string(Path::new(".git").join(reference)).ok();
                loose.as_deref().and_then(first_line).or_else(|| {
                    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                    let line = packed.lines().find(|l| l.ends_with(reference))?;
                    line.split_whitespace().next().map(str::to_string)
                })
            }
            None => first_line(h),
        });
    resolved.unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code: thread count, the CPU the
/// run was pinned to (null when it could not be), CPU model, the SIMD tier
/// the dispatcher picked, and the compiler.
pub fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "pinned_cpu",
            pinned_cpu().map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("cpu", Json::Str(cpu)),
        ("simd", Json::str(safebound_core::simd_tier().name())),
        ("rustc", Json::Str(rustc)),
    ])
}

/// Append this run to `<out_dir>/history.jsonl` (untracked build output).
pub fn append_history(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Outcome,
    defs: &[MetricDef],
) -> std::io::Result<()> {
    let record = Json::obj([
        ("commit", Json::Str(commit())),
        ("host", host()),
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(problems(out, defs).is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(out, defs)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("history.jsonl"))?;
    writeln!(file, "{}", record.encode())
}

/// `(workload, metric) → values`, one per usable record of a history
/// file. Lines that do not parse, or records without a workload or
/// metrics, are skipped and counted.
fn load_side(text: &str) -> (BTreeMap<(String, String), Vec<f64>>, usize) {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut skipped = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Json::parse(line);
        let fields = record
            .as_ref()
            .and_then(|r| Some((r.get("workload")?.as_str()?, r.get("metrics")?.fields())));
        let Some((workload, metrics)) = fields else {
            skipped += 1;
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    (values, skipped)
}

/// How `b` stands against base `a` for one metric.
fn verdict(def: Option<&MetricDef>, a: f64, b: f64) -> &'static str {
    let Some(def) = def else {
        return "not in catalog";
    };
    let Some(bound) = def.bound else {
        return "per-layer";
    };
    let worse_by = match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if !worse_by.is_finite() {
        "no base"
    } else if worse_by > bound {
        "REGRESSED"
    } else if worse_by < -bound {
        "improved"
    } else {
        "within bound"
    }
}

/// Compare history files: the first is the base, each other file is set
/// against it, metric by metric and workload by workload, on the medians of
/// their records. Returns the table and whether any end-to-end metric
/// regressed beyond its bound.
pub fn compare(files: &[(String, String)]) -> (String, bool) {
    let mut table = String::new();
    let mut regressed = false;
    let sides: Vec<_> = files
        .iter()
        .map(|(name, text)| (name, load_side(text)))
        .collect();
    for (name, (values, skipped)) in &sides {
        table += &format!(
            "# {name}: {} metric series, {skipped} unusable record(s) skipped\n",
            values.len()
        );
    }
    let Some(((_, (base, _)), others)) = sides.split_first() else {
        return (table, false);
    };
    for (name, (other, _)) in others {
        table += &format!(
            "\n## {name} against base {}\n{:<17} {:<38} {:>7} {:>14} {:>14} {:>8}  {}\n",
            files[0].0, "workload", "metric", "unit", "base", "this", "ratio", "verdict"
        );
        let keys: std::collections::BTreeSet<_> = base.keys().chain(other.keys()).collect();
        for key in keys {
            let (workload, metric) = key;
            let def = catalog::find(metric);
            let unit = def.map_or("?", |d| d.unit);
            match (base.get(key), other.get(key)) {
                (Some(a), Some(b)) => {
                    let (a, b) = (median(a), median(b));
                    let v = verdict(def, a, b);
                    regressed |= v == "REGRESSED";
                    table += &format!(
                        "{workload:<17} {metric:<38} {unit:>7} {a:>14.4} {b:>14.4} {:>8.4}  {v}\n",
                        b / a
                    );
                }
                (a, b) => {
                    let show = |side: Option<&Vec<f64>>| {
                        side.map_or("missing".to_string(), |v| format!("{:.4}", median(v)))
                    };
                    table += &format!(
                        "{workload:<17} {metric:<38} {unit:>7} {:>14} {:>14} {:>8}  missing on one side\n",
                        show(a),
                        show(b),
                        "-"
                    );
                }
            }
        }
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER};

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        for m in END_TO_END {
            out.set(m.name, 1.5);
        }
        out
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = outcome();
        let doc = Json::parse(&result_line(&out, END_TO_END)).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().fields();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), def) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        }
        // Per-layer: every name present, unset layers read 0 and stay correct.
        let doc = Json::parse(&result_line(&out, PER_LAYER)).unwrap();
        assert_eq!(doc.get("metrics").unwrap().fields().len(), PER_LAYER.len());
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn failures_zeros_and_gaps_make_a_run_incorrect() {
        let mut out = outcome();
        out.failed = 1;
        assert_eq!(problems(&out, END_TO_END).len(), 1);
        out.failed = 0;
        out.set("qps", 0.0);
        out.metrics.remove("setup_s");
        out.set("latency_p50_us", f64::NAN);
        out.invalid.push("ladder does not close".into());
        let p = problems(&out, END_TO_END);
        assert_eq!(p.len(), 4, "{p:?}");
        let doc = Json::parse(&result_line(&out, END_TO_END)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }

    fn record(workload: &str, qps: f64, parse_ns: f64) -> String {
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "metrics",
                Json::obj([
                    ("qps", Json::obj([("value", Json::Num(qps))])),
                    (
                        "query.parse_ns",
                        Json::obj([("value", Json::Num(parse_ns))]),
                    ),
                ]),
            ),
        ])
        .encode()
    }

    #[test]
    fn compare_uses_medians_bounds_and_tolerates_bad_records() {
        let base = [
            record("wire_single", 6000.0, 7000.0),
            record("wire_single", 6100.0, 7100.0),
            record("wire_single", 100.0, 7200.0), // outlier: the median ignores it
            "{not json".to_string(),
            "{\"workload\": \"x\"}".to_string(),
            record("plan_loop", 2000.0, 0.0),
        ]
        .join("\n");
        let slower = [record("wire_single", 4000.0, 9000.0), String::new()].join("\n");
        let (table, regressed) = compare(&[("a".into(), base.clone()), ("b".into(), slower)]);
        assert!(regressed, "{table}");
        assert!(table.contains("2 unusable record(s) skipped"), "{table}");
        let qps_row = table
            .lines()
            .find(|l| l.contains("wire_single") && l.contains(" qps "))
            .unwrap();
        assert!(
            qps_row.contains("6000.0000") && qps_row.contains("REGRESSED"),
            "{qps_row}"
        );
        let parse_row = table
            .lines()
            .find(|l| l.contains("query.parse_ns") && l.contains("wire_single"))
            .unwrap();
        assert!(parse_row.contains("per-layer"), "{parse_row}");
        assert!(table
            .lines()
            .any(|l| l.contains("plan_loop") && l.contains("missing on one side")));

        let same = compare(&[("a".into(), base.clone()), ("a2".into(), base)]);
        assert!(!same.1 && same.0.contains("within bound"));
        assert_eq!(verdict(catalog::find("qps"), 100.0, 130.0), "improved");
        assert_eq!(verdict(catalog::find("setup_s"), 1.0, 1.2), "within bound");
        assert_eq!(verdict(None, 1.0, 1.0), "not in catalog");
    }

    #[test]
    fn history_records_parse_back() {
        let dir = std::env::temp_dir().join(format!("sb_hist_test_{}", std::process::id()));
        let out = outcome();
        append_history(&dir, "lifecycle", 7, 1.0, false, &out, END_TO_END).unwrap();
        append_history(&dir, "lifecycle", 8, 1.0, false, &out, END_TO_END).unwrap();
        let text = std::fs::read_to_string(dir.join("history.jsonl")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(text.lines().count(), 2);
        let rec = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(rec.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(rec.get("host").and_then(|h| h.get("nproc")).is_some());
        assert!(rec.get("commit").and_then(Json::as_str).is_some());
        let (values, skipped) = load_side(&text);
        assert_eq!(skipped, 0);
        assert_eq!(
            values[&("lifecycle".to_string(), "qps".to_string())],
            [1.5, 1.5]
        );
    }
}
