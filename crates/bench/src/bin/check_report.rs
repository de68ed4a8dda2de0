//! CI gate: compare a run report's figures against checked-in thresholds.
//!
//! Usage: `check_report <report.json> <thresholds.json>`
//!
//! The threshold file is a plain JSON object mapping figure names to
//! limits:
//!
//! ```json
//! {
//!   "self_l.max_rel_err": {"max": 0.05},
//!   "lookup.speedup": {"min": 100.0}
//! }
//! ```
//!
//! Every named figure must exist in the report and satisfy its `min`/`max`
//! bounds; any violation (or a missing figure) prints a diagnostic and
//! exits nonzero, failing the CI job. Extra figures in the report are
//! ignored, so new instrumentation never breaks the gate.

use rlcx::obs::{Json, RunReport};
use std::process::ExitCode;

fn check(report_path: &str, thresholds_path: &str) -> Result<Vec<String>, String> {
    let report_text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read report {report_path}: {e}"))?;
    let report =
        RunReport::from_json(&report_text).map_err(|e| format!("bad report {report_path}: {e}"))?;
    let thresholds_text = std::fs::read_to_string(thresholds_path)
        .map_err(|e| format!("cannot read thresholds {thresholds_path}: {e}"))?;
    let thresholds = Json::parse(&thresholds_text)
        .map_err(|e| format!("bad thresholds {thresholds_path}: {e}"))?;
    let Some(members) = thresholds.as_object() else {
        return Err(format!(
            "thresholds {thresholds_path} must be a JSON object"
        ));
    };

    let mut failures = Vec::new();
    for (figure, bounds) in members {
        let Some(value) = report.figure_value(figure) else {
            failures.push(format!("figure {figure} missing from {}", report.name));
            continue;
        };
        if value.is_nan() {
            failures.push(format!("{figure} is NaN"));
            continue;
        }
        if let Some(max) = bounds.get("max").and_then(Json::as_f64) {
            if value > max {
                failures.push(format!("{figure} = {value} exceeds max {max}"));
            }
        }
        if let Some(min) = bounds.get("min").and_then(Json::as_f64) {
            if value < min {
                failures.push(format!("{figure} = {value} below min {min}"));
            }
        }
        println!("checked {figure} = {value}");
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, report_path, thresholds_path] = args.as_slice() else {
        eprintln!("usage: check_report <report.json> <thresholds.json>");
        return ExitCode::FAILURE;
    };
    match check(report_path, thresholds_path) {
        Ok(failures) if failures.is_empty() => {
            println!("all thresholds satisfied");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("FAIL: {f}");
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
    use super::check;

    fn write_tmp(tag: &str, text: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rlcx_check_{tag}_{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn passes_and_fails_on_bounds() {
        let report = write_tmp(
            "report",
            r#"{"schema":"rlcx-report","version":2,"name":"t",
                "figures":{"err":0.02,"speedup":500.0}}"#,
        );
        let ok = write_tmp("ok", r#"{"err":{"max":0.05},"speedup":{"min":100.0}}"#);
        let bad = write_tmp("bad", r#"{"err":{"max":0.01},"missing":{"min":0.0}}"#);
        let report_s = report.to_str().unwrap();
        assert!(check(report_s, ok.to_str().unwrap()).unwrap().is_empty());
        let failures = check(report_s, bad.to_str().unwrap()).unwrap();
        assert_eq!(failures.len(), 2);
        for p in [report, ok, bad] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unreadable_inputs_are_errors() {
        assert!(check("/nonexistent.json", "/nonexistent.json").is_err());
    }
}
