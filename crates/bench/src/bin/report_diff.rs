//! Baseline regression differ: compare a fresh [`RunReport`] against a
//! committed baseline and fail on regressions beyond per-key tolerances.
//!
//! Usage: `report_diff <current.json> <baseline.json> [tolerances.json]`
//!
//! Both reports are flattened to `key → value` maps over a shared naming
//! scheme:
//!
//! * `figures.<name>` — accuracy/speedup figures
//! * `samples.<name>.median_s` / `.min_s` — bench samples
//! * `metrics.<name>` — counter/gauge values
//! * `metrics.<name>.count` / `.mean` / `.min` / `.max` / `.p50` / `.p90`
//!   / `.p99` — histogram summaries and quantiles
//! * `series.<name>.pushed` — flight-recorder channel activity
//!
//! The tolerance file configures which keys *gate* (fail CI) versus merely
//! report, matched longest-pattern-first (`*` suffix = prefix match):
//!
//! ```json
//! {
//!   "default": {"gate": false, "rel": 0.5},
//!   "keys": {
//!     "metrics.gmres.iters.p99": {"gate": true, "rel": 0.25, "dir": "up"},
//!     "figures.agree.*":         {"gate": true, "rel": 0.10},
//!     "samples.*":               {"gate": false}
//!   }
//! }
//! ```
//!
//! `rel` is the allowed relative change `|cur − base| / max(|base|, floor)`;
//! `dir` restricts gating to regressions in one direction (`"up"` = only
//! increases fail, `"down"` = only decreases, default both); an optional
//! `abs` passes any change with `|cur − base| ≤ abs` regardless of `rel`.
//! A gated key present in the baseline but missing from the current report
//! is itself a failure — deleted instrumentation cannot silently pass.
//! Without a tolerance file every key is report-only (exit 0).

use rlcx::obs::{Json, MetricValue, RunReport};
use std::process::ExitCode;

/// Relative changes are measured against `max(|baseline|, FLOOR)` so keys
/// whose baseline is ~0 don't gate on meaninglessly huge ratios.
const FLOOR: f64 = 1e-12;

#[derive(Debug, Clone, Copy)]
enum Dir {
    Up,
    Down,
    Both,
}

#[derive(Debug, Clone, Copy)]
struct Tolerance {
    gate: bool,
    rel: f64,
    abs: Option<f64>,
    dir: Dir,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            gate: false,
            rel: 0.5,
            abs: None,
            dir: Dir::Both,
        }
    }
}

struct Tolerances {
    default: Tolerance,
    /// `(pattern, tolerance)`; a trailing `*` makes the pattern a prefix.
    keys: Vec<(String, Tolerance)>,
}

impl Tolerances {
    fn parse(doc: &Json) -> Result<Tolerances, String> {
        let parse_one = |v: &Json, base: Tolerance| -> Result<Tolerance, String> {
            let mut t = base;
            if let Some(g) = v.get("gate") {
                t.gate = matches!(g, Json::Bool(true));
            }
            if let Some(r) = v.get("rel").and_then(Json::as_f64) {
                t.rel = r;
            }
            if let Some(a) = v.get("abs").and_then(Json::as_f64) {
                t.abs = Some(a);
            }
            if let Some(d) = v.get("dir").and_then(Json::as_str) {
                t.dir = match d {
                    "up" => Dir::Up,
                    "down" => Dir::Down,
                    "both" => Dir::Both,
                    other => return Err(format!("bad dir {other:?} (up|down|both)")),
                };
            }
            Ok(t)
        };
        let default = match doc.get("default") {
            Some(v) => parse_one(v, Tolerance::default())?,
            None => Tolerance::default(),
        };
        let mut keys = Vec::new();
        if let Some(members) = doc.get("keys").and_then(Json::as_object) {
            for (pattern, v) in members {
                keys.push((pattern.clone(), parse_one(v, default)?));
            }
        }
        Ok(Tolerances { default, keys })
    }

    /// The most specific (longest) matching pattern wins.
    fn lookup(&self, key: &str) -> Tolerance {
        self.keys
            .iter()
            .filter(|(pattern, _)| match pattern.strip_suffix('*') {
                Some(prefix) => key.starts_with(prefix),
                None => key == pattern,
            })
            .max_by_key(|(pattern, _)| pattern.len())
            .map(|(_, t)| *t)
            .unwrap_or(self.default)
    }
}

/// Flattens a report to sorted `(key, value)` pairs (scheme in module docs).
fn flatten(report: &RunReport) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (name, v) in &report.figures {
        out.push((format!("figures.{name}"), *v));
    }
    for s in &report.samples {
        out.push((format!("samples.{}.median_s", s.name), s.median_s));
        out.push((format!("samples.{}.min_s", s.name), s.min_s));
    }
    for (name, m) in &report.metrics {
        match *m {
            MetricValue::Counter(n) => out.push((format!("metrics.{name}"), n as f64)),
            MetricValue::Gauge(g) => out.push((format!("metrics.{name}"), g)),
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
            } => {
                out.push((format!("metrics.{name}.count"), count as f64));
                if count > 0 {
                    out.push((format!("metrics.{name}.mean"), sum / count as f64));
                }
                out.push((format!("metrics.{name}.min"), min));
                out.push((format!("metrics.{name}.max"), max));
                out.push((format!("metrics.{name}.p50"), p50));
                out.push((format!("metrics.{name}.p90"), p90));
                out.push((format!("metrics.{name}.p99"), p99));
            }
        }
    }
    for s in &report.series {
        out.push((format!("series.{}.pushed", s.name), s.pushed as f64));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

struct Row {
    key: String,
    baseline: Option<f64>,
    current: Option<f64>,
    rel: Option<f64>,
    tol: Tolerance,
    failed: bool,
}

fn diff(current: &RunReport, baseline: &RunReport, tol: &Tolerances) -> Vec<Row> {
    let cur = flatten(current);
    let base = flatten(baseline);
    let lookup = |set: &[(String, f64)], key: &str| -> Option<f64> {
        set.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    };
    // Walk the union of keys, baseline order first (sorted merge).
    let mut keys: Vec<&str> = base.iter().chain(&cur).map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut rows = Vec::new();
    for key in keys {
        let b = lookup(&base, key);
        let c = lookup(&cur, key);
        let t = tol.lookup(key);
        let (rel, failed) = match (b, c) {
            (Some(b), Some(c)) => {
                let delta = c - b;
                let rel = delta / b.abs().max(FLOOR);
                let within_abs = t.abs.is_some_and(|a| delta.abs() <= a);
                let direction_hit = match t.dir {
                    Dir::Up => delta > 0.0,
                    Dir::Down => delta < 0.0,
                    Dir::Both => true,
                };
                let exceeded = rel.abs() > t.rel || !rel.is_finite();
                (
                    Some(rel),
                    t.gate && direction_hit && exceeded && !within_abs,
                )
            }
            // A gated key vanishing from the fresh report is a regression;
            // a brand-new key never fails (baselines lag new telemetry).
            (Some(_), None) => (None, t.gate),
            (None, _) => (None, false),
        };
        rows.push(Row {
            key: key.to_string(),
            baseline: b,
            current: c,
            rel,
            tol: t,
            failed,
        });
    }
    rows
}

fn fmt_val(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.6e}"),
        None => "—".into(),
    }
}

fn print_table(rows: &[Row]) {
    let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(3).max(3);
    println!(
        "{:<width$}  {:>13}  {:>13}  {:>8}  {:>7}  status",
        "key", "baseline", "current", "Δ%", "tol%"
    );
    for r in rows {
        let status = if r.failed {
            "FAIL"
        } else if r.tol.gate {
            "ok(gated)"
        } else {
            "ok"
        };
        println!(
            "{:<width$}  {:>13}  {:>13}  {:>8}  {:>7}  {}",
            r.key,
            fmt_val(r.baseline),
            fmt_val(r.current),
            r.rel
                .map(|x| format!("{:+.1}", x * 100.0))
                .unwrap_or_else(|| "—".into()),
            format!("{:.0}", r.tol.rel * 100.0),
            status,
        );
    }
}

fn run(current: &str, baseline: &str, tolerances: Option<&str>) -> Result<Vec<String>, String> {
    let load = |path: &str| -> Result<RunReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunReport::from_json(&text).map_err(|e| format!("bad report {path}: {e}"))
    };
    let cur = load(current)?;
    let base = load(baseline)?;
    let tol = match tolerances {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Tolerances::parse(&Json::parse(&text).map_err(|e| format!("bad tolerances: {e}"))?)?
        }
        None => Tolerances {
            default: Tolerance::default(),
            keys: Vec::new(),
        },
    };
    let rows = diff(&cur, &base, &tol);
    print_table(&rows);
    Ok(rows
        .iter()
        .filter(|r| r.failed)
        .map(|r| {
            format!(
                "{}: baseline {} → current {} (Δ {}, tol ±{:.0}%)",
                r.key,
                fmt_val(r.baseline),
                fmt_val(r.current),
                r.rel
                    .map(|x| format!("{:+.1}%", x * 100.0))
                    .unwrap_or_else(|| "missing".into()),
                r.tol.rel * 100.0,
            )
        })
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (current, baseline, tolerances) = match args.as_slice() {
        [_, c, b] => (c.as_str(), b.as_str(), None),
        [_, c, b, t] => (c.as_str(), b.as_str(), Some(t.as_str())),
        _ => {
            eprintln!("usage: report_diff <current.json> <baseline.json> [tolerances.json]");
            return ExitCode::FAILURE;
        }
    };
    match run(current, baseline, tolerances) {
        Ok(failures) if failures.is_empty() => {
            println!("no gated regressions");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("REGRESSION: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(figures: &[(&str, f64)], hist_p99: Option<f64>) -> RunReport {
        let mut r = RunReport {
            name: "t".into(),
            ..RunReport::default()
        };
        for (k, v) in figures {
            r.figure(*k, *v);
        }
        if let Some(p99) = hist_p99 {
            r.metrics.push((
                "gmres.iters".into(),
                MetricValue::Histogram {
                    count: 10,
                    sum: 100.0,
                    min: 1.0,
                    max: p99,
                    p50: p99 / 2.0,
                    p90: p99,
                    p99,
                },
            ));
        }
        r
    }

    fn tols(text: &str) -> Tolerances {
        Tolerances::parse(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn flatten_covers_every_section() {
        let mut r = report(&[("err", 0.5)], Some(20.0));
        r.sample("lookup", 2e-6, 1e-6, 5);
        r.series.push(rlcx::obs::SeriesSnapshot {
            name: "gmres.residual".into(),
            capacity: 4096,
            pushed: 7,
            points: vec![(0.0, 1.0)],
        });
        let flat = flatten(&r);
        let get = |k: &str| flat.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("figures.err"), Some(0.5));
        assert_eq!(get("samples.lookup.median_s"), Some(2e-6));
        assert_eq!(get("metrics.gmres.iters.p99"), Some(20.0));
        assert_eq!(get("metrics.gmres.iters.mean"), Some(10.0));
        assert_eq!(get("series.gmres.residual.pushed"), Some(7.0));
    }

    #[test]
    fn gated_regression_fails_within_tolerance_passes() {
        let base = report(&[], Some(20.0));
        let tol = tols(
            r#"{"default":{"gate":false},
                "keys":{"metrics.gmres.iters.p99":{"gate":true,"rel":0.25,"dir":"up"}}}"#,
        );
        let ok = diff(&report(&[], Some(22.0)), &base, &tol);
        assert!(ok.iter().all(|r| !r.failed), "+10% within 25%");
        let bad = diff(&report(&[], Some(30.0)), &base, &tol);
        let row = bad
            .iter()
            .find(|r| r.key == "metrics.gmres.iters.p99")
            .unwrap();
        assert!(row.failed, "+50% beyond 25% must gate");
        // dir=up: a large *improvement* does not fail.
        let better = diff(&report(&[], Some(5.0)), &base, &tol);
        assert!(better.iter().all(|r| !r.failed));
    }

    #[test]
    fn missing_gated_key_fails_and_new_keys_pass() {
        let base = report(&[("err", 1.0)], None);
        let tol = tols(r#"{"keys":{"figures.err":{"gate":true,"rel":0.1}}}"#);
        let gone = diff(&report(&[], None), &base, &tol);
        assert!(gone.iter().any(|r| r.key == "figures.err" && r.failed));
        // Key only in current: reported, never failed.
        let grown = diff(&report(&[("err", 1.0), ("extra", 9.0)], None), &base, &tol);
        assert!(grown.iter().all(|r| !r.failed));
        assert!(grown.iter().any(|r| r.key == "figures.extra"));
    }

    #[test]
    fn longest_pattern_wins_and_abs_overrides() {
        let tol = tols(
            r#"{"keys":{
                "figures.*":       {"gate":true,"rel":0.5},
                "figures.noise.*": {"gate":false},
                "figures.tiny":    {"gate":true,"rel":0.1,"abs":1e-6}}}"#,
        );
        assert!(tol.lookup("figures.err").gate);
        assert!(!tol.lookup("figures.noise.a").gate);
        assert!(!tol.lookup("samples.x").gate, "default is report-only");
        // abs: |Δ| = 5e-7 ≤ 1e-6 passes although rel change is huge.
        let base = report(&[("tiny", 1e-9)], None);
        let rows = diff(&report(&[("tiny", 5e-7)], None), &base, &tol);
        assert!(rows.iter().all(|r| !r.failed));
    }

    #[test]
    fn zero_baseline_uses_floor_not_infinity() {
        let tol = tols(r#"{"keys":{"figures.z":{"gate":true,"rel":0.5}}}"#);
        let rows = diff(
            &report(&[("z", 0.0)], None),
            &report(&[("z", 0.0)], None),
            &tol,
        );
        let row = rows.iter().find(|r| r.key == "figures.z").unwrap();
        assert!(!row.failed);
        assert_eq!(row.rel, Some(0.0));
    }
}
