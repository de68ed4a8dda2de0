//! CI gate: check a run report against one experiment's committed bounds.
//!
//! Usage: `check_report <report.json> <thresholds.json>`
//!
//! The report is flattened to `key → value` over one sectioned namespace:
//!
//! * `figures.<name>` — accuracy/speedup figures
//! * `samples.<name>.median_s` / `.min_s` — bench samples
//! * `metrics.<name>` — counter/gauge values
//! * `metrics.<name>.count` / `.mean` / `.min` / `.max` / `.p50` / `.p90`
//!   / `.p99` — histogram summaries and quantiles
//! * `series.<name>.pushed` — flight-recorder channel activity
//!
//! The thresholds file (`ci/thresholds/<exp>.json`) maps keys to bounds:
//!
//! ```json
//! {
//!   "figures.self_l.max_rel_err": {"max": 0.05},
//!   "figures.lookup.speedup": {"min": 100.0},
//!   "series.gmres.residual.pushed": {"min": 59.5, "max": 178.5}
//! }
//! ```
//!
//! Every key starts with one of those sections, and every entry holds a
//! numeric `min`, `max` or both and nothing else; an unknown field, a non-numeric or missing bound, or `min > max` is a
//! config error. Every named key must exist in the report, be finite and
//! lie within its bounds; anything else fails the gate. Keys the file does
//! not name are ignored, so new instrumentation never breaks the gate.
//!
//! Deterministic work counts (iteration counts, p99s, series push counts)
//! are bounded around a value `b` measured on the committed code as
//! `b ± rel·|b|`, with only the `max` side when growth alone is a
//! regression. When such a count moves for a legitimate reason, edit its
//! bound in the same change and log the old and new value in CHANGES.md.
//!
//! The gate prints the report's host (`threads`, `available_parallelism`,
//! `cpu_model`, `profile`) before its verdicts, so a failure names the
//! machine it failed on.

use rlcx::obs::{Json, MetricValue, RunReport};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The flattened namespace's section prefixes.
const SECTIONS: [&str; 4] = ["figures.", "samples.", "metrics.", "series."];

/// One key's allowed interval; at least one side is present.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    min: Option<f64>,
    max: Option<f64>,
}

/// Parses a thresholds document into `(key, bound)` pairs, rejecting any
/// entry that would check nothing or that checks something unintended.
fn parse_thresholds(doc: &Json) -> Result<Vec<(String, Bound)>, String> {
    let members = doc.as_object().ok_or("thresholds must be a JSON object")?;
    let mut out = Vec::with_capacity(members.len());
    for (key, entry) in members {
        if !SECTIONS.iter().any(|s| key.starts_with(s)) {
            return Err(format!("{key}: key must start with one of {SECTIONS:?}"));
        }
        let fields = entry
            .as_object()
            .ok_or_else(|| format!("{key}: bound must be an object"))?;
        let mut bound = Bound {
            min: None,
            max: None,
        };
        for (field, value) in fields {
            let side = match field.as_str() {
                "min" => &mut bound.min,
                "max" => &mut bound.max,
                other => return Err(format!("{key}: unknown field {other:?} (min|max)")),
            };
            // Match the number variant directly: `Json::as_f64` would also
            // accept the writer's "NaN"/"Infinity" strings.
            match value {
                Json::Num(v) => *side = Some(*v),
                _ => return Err(format!("{key}: {field} must be a number")),
            }
        }
        match (bound.min, bound.max) {
            (None, None) => return Err(format!("{key}: needs a min or max bound")),
            (Some(lo), Some(hi)) if lo > hi => {
                return Err(format!("{key}: min {lo} exceeds max {hi}"))
            }
            _ => {}
        }
        out.push((key.clone(), bound));
    }
    Ok(out)
}

/// Flattens a report to `key → value` (scheme in the module docs).
fn flatten(report: &RunReport) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, v) in &report.figures {
        out.insert(format!("figures.{name}"), *v);
    }
    for s in &report.samples {
        out.insert(format!("samples.{}.median_s", s.name), s.median_s);
        out.insert(format!("samples.{}.min_s", s.name), s.min_s);
    }
    for (name, m) in &report.metrics {
        match *m {
            MetricValue::Counter(n) => {
                out.insert(format!("metrics.{name}"), n as f64);
            }
            MetricValue::Gauge(g) => {
                out.insert(format!("metrics.{name}"), g);
            }
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
            } => {
                out.insert(format!("metrics.{name}.count"), count as f64);
                if count > 0 {
                    out.insert(format!("metrics.{name}.mean"), sum / count as f64);
                }
                out.insert(format!("metrics.{name}.min"), min);
                out.insert(format!("metrics.{name}.max"), max);
                out.insert(format!("metrics.{name}.p50"), p50);
                out.insert(format!("metrics.{name}.p90"), p90);
                out.insert(format!("metrics.{name}.p99"), p99);
            }
        }
    }
    for s in &report.series {
        out.insert(format!("series.{}.pushed", s.name), s.pushed as f64);
    }
    out
}

/// The report's host fingerprint as one line.
fn host(report: &RunReport) -> String {
    ["threads", "available_parallelism", "cpu_model", "profile"]
        .iter()
        .map(|k| {
            let v = report.env.iter().find(|(ek, _)| ek == k);
            format!("{k}={}", v.map_or("unknown", |(_, v)| v.as_str()))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks every bound against the report; returns one message per
/// violation. A missing or non-finite value fails whatever its bound.
fn gate(report: &RunReport, thresholds: &[(String, Bound)]) -> Vec<String> {
    let flat = flatten(report);
    let mut failures = Vec::new();
    for (key, bound) in thresholds {
        let Some(&value) = flat.get(key) else {
            failures.push(format!("{key} missing from {}", report.name));
            continue;
        };
        if !value.is_finite() {
            failures.push(format!("{key} = {value} is not finite"));
            continue;
        }
        if let Some(max) = bound.max.filter(|&max| value > max) {
            failures.push(format!("{key} = {value} exceeds max {max}"));
        }
        if let Some(min) = bound.min.filter(|&min| value < min) {
            failures.push(format!("{key} = {value} below min {min}"));
        }
        println!("checked {key} = {value}");
    }
    failures
}

/// Loads both files and gates; returns the report's host line and the
/// failures.
fn check(report_path: &str, thresholds_path: &str) -> Result<(String, Vec<String>), String> {
    let report_text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read report {report_path}: {e}"))?;
    let report =
        RunReport::from_json(&report_text).map_err(|e| format!("bad report {report_path}: {e}"))?;
    let thresholds_text = std::fs::read_to_string(thresholds_path)
        .map_err(|e| format!("cannot read thresholds {thresholds_path}: {e}"))?;
    let thresholds = Json::parse(&thresholds_text)
        .and_then(|doc| parse_thresholds(&doc))
        .map_err(|e| format!("bad thresholds {thresholds_path}: {e}"))?;
    let host = host(&report);
    println!("host: {host}");
    Ok((host, gate(&report, &thresholds)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, report_path, thresholds_path] = args.as_slice() else {
        eprintln!("usage: check_report <report.json> <thresholds.json>");
        return ExitCode::FAILURE;
    };
    match check(report_path, thresholds_path) {
        Ok((_, failures)) if failures.is_empty() => {
            println!("all thresholds satisfied");
            ExitCode::SUCCESS
        }
        Ok((host, failures)) => {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            eprintln!("{} bound(s) failed on host: {host}", failures.len());
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
    use rlcx::obs::SeriesSnapshot;

    fn write_tmp(tag: &str, text: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rlcx_check_{tag}_{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    fn thresholds(text: &str) -> Result<Vec<(String, Bound)>, String> {
        parse_thresholds(&Json::parse(text).unwrap())
    }

    /// A report with the given figures, a `gmres.iters` histogram with the
    /// given p99, and a `gmres.residual` series with the given push count.
    fn report(figures: &[(&str, f64)], hist_p99: Option<f64>, pushed: Option<u64>) -> RunReport {
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
        if let Some(pushed) = pushed {
            r.series.push(SeriesSnapshot {
                name: "gmres.residual".into(),
                capacity: 4096,
                pushed,
                points: vec![(0.0, 1.0)],
            });
        }
        r
    }

    #[test]
    fn passes_and_fails_on_bounds() {
        let report = write_tmp(
            "report",
            r#"{"schema":"rlcx-report","version":2,"name":"t",
                "figures":{"err":0.02,"speedup":500.0}}"#,
        );
        let ok = write_tmp(
            "ok",
            r#"{"figures.err":{"max":0.05},"figures.speedup":{"min":100.0}}"#,
        );
        let bad = write_tmp(
            "bad",
            r#"{"figures.err":{"max":0.01},"figures.missing":{"min":0.0}}"#,
        );
        let report_s = report.to_str().unwrap();
        assert!(check(report_s, ok.to_str().unwrap()).unwrap().1.is_empty());
        let (_, failures) = check(report_s, bad.to_str().unwrap()).unwrap();
        assert_eq!(failures.len(), 2);
        for p in [report, ok, bad] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unreadable_inputs_are_errors() {
        assert!(check("/nonexistent.json", "/nonexistent.json").is_err());
    }

    #[test]
    fn flatten_covers_every_section() {
        let mut r = report(&[("err", 0.5)], Some(20.0), Some(7));
        r.sample("lookup", 2e-6, 1e-6, 5);
        r.metrics
            .push(("peec.solves".into(), MetricValue::Counter(3)));
        let flat = flatten(&r);
        assert_eq!(flat.get("figures.err"), Some(&0.5));
        assert_eq!(flat.get("samples.lookup.median_s"), Some(&2e-6));
        assert_eq!(flat.get("samples.lookup.min_s"), Some(&1e-6));
        assert_eq!(flat.get("metrics.peec.solves"), Some(&3.0));
        assert_eq!(flat.get("metrics.gmres.iters.count"), Some(&10.0));
        assert_eq!(flat.get("metrics.gmres.iters.mean"), Some(&10.0));
        assert_eq!(flat.get("metrics.gmres.iters.p99"), Some(&20.0));
        assert_eq!(flat.get("series.gmres.residual.pushed"), Some(&7.0));
    }

    #[test]
    fn histogram_p99_bound_gates_growth_only() {
        // 20 ± 50 % with the max side only: 20 → 30.
        let t = thresholds(r#"{"metrics.gmres.iters.p99":{"max":30.0}}"#).unwrap();
        assert!(gate(&report(&[], Some(22.0), None), &t).is_empty());
        assert!(gate(&report(&[], Some(30.0), None), &t).is_empty());
        assert_eq!(gate(&report(&[], Some(31.0), None), &t).len(), 1);
        assert!(gate(&report(&[], Some(5.0), None), &t).is_empty());
    }

    #[test]
    fn series_pushed_bound_gates_both_sides() {
        // 119 ± 50 %.
        let t = thresholds(r#"{"series.gmres.residual.pushed":{"min":59.5,"max":178.5}}"#).unwrap();
        assert!(gate(&report(&[], None, Some(119)), &t).is_empty());
        assert_eq!(gate(&report(&[], None, Some(59)), &t).len(), 1);
        assert_eq!(gate(&report(&[], None, Some(179)), &t).len(), 1);
    }

    #[test]
    fn missing_key_fails_and_extra_keys_pass() {
        let t = thresholds(r#"{"figures.err":{"max":1.0}}"#).unwrap();
        let gone = gate(&report(&[], None, None), &t);
        assert_eq!(gone.len(), 1);
        assert!(gone[0].contains("figures.err missing"), "{gone:?}");
        let grown = report(&[("err", 1.0), ("extra", 9.0)], Some(1e9), Some(1));
        assert!(gate(&grown, &t).is_empty());
    }

    #[test]
    fn non_finite_values_fail_any_bound() {
        let t = thresholds(r#"{"figures.speedup":{"min":1.0}}"#).unwrap();
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(gate(&report(&[("speedup", v)], None, None), &t).len(), 1);
        }
        let t = thresholds(r#"{"figures.err":{"max":1.0}}"#).unwrap();
        assert_eq!(
            gate(&report(&[("err", f64::NEG_INFINITY)], None, None), &t).len(),
            1
        );
    }

    #[test]
    fn malformed_thresholds_are_errors() {
        for (text, why) in [
            (r#"{"figures.x":{"mx":0.1}}"#, "unknown field"),
            (r#"{"figures.x":{"max":0.1,"dir":"up"}}"#, "unknown field"),
            (r#"{"figures.x":{"max":"0.1"}}"#, "must be a number"),
            (r#"{"figures.x":{"min":"Infinity"}}"#, "must be a number"),
            (r#"{"figures.x":{"max":null}}"#, "must be a number"),
            (r#"{"figures.x":{}}"#, "needs a min or max"),
            (r#"{"figures.x":0.1}"#, "must be an object"),
            (r#"{"figures.x":{"min":2.0,"max":1.0}}"#, "exceeds max"),
            (r#"{"speedup":{"min":1.0}}"#, "key must start with"),
            (r#"[{"figures.x":{"max":0.1}}]"#, "must be a JSON object"),
        ] {
            let err = thresholds(text).expect_err(text);
            assert!(err.contains(why), "{text}: {err}");
        }
        assert_eq!(
            thresholds(r#"{"figures.x":{"min":1.0,"max":1.0}}"#).unwrap()[0].1,
            Bound {
                min: Some(1.0),
                max: Some(1.0)
            }
        );
    }

    #[test]
    fn host_line_names_the_fingerprint() {
        let mut r = report(&[], None, None);
        r.env = vec![
            ("threads".into(), "4".into()),
            ("trace".into(), "summary".into()),
            ("available_parallelism".into(), "2".into()),
            ("profile".into(), "release".into()),
        ];
        assert_eq!(
            host(&r),
            "threads=4 available_parallelism=2 cpu_model=unknown profile=release"
        );
    }

    #[test]
    fn committed_thresholds_parse() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/thresholds");
        let mut parsed = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                let t = parse_thresholds(&doc).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                assert!(!t.is_empty(), "{path:?} gates nothing");
                parsed += 1;
            }
        }
        assert_eq!(parsed, 5, "one thresholds file per gated experiment");
    }
}
