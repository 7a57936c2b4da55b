//! CI bench-guard: compares freshly generated `BENCH_*.json` run(s)
//! against the committed baseline and exits non-zero on any identity
//! regression.
//!
//! ```sh
//! bench_guard <committed-baseline.json> <current.json> [more-runs.json...]
//! ```
//!
//! See [`osp_bench::guard`] for the exact rules: boolean identity columns
//! must read `true` in every run, required sections (`distributed`,
//! `socket`, `kernel`, `pipeline`) must be present with rows, and the
//! machine-portable algorithmic speedups (`poly_hash_eval`, `weighted
//! sampling`, `streaming`, `kernel`; committed value ≥ 2×) must stay at
//! ≥ 0.9× their committed value in the best run. Committed ratio cells
//! that no run has are listed, not failed.

use std::process::ExitCode;

use osp_bench::guard;
use osp_bench::report::Report;

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, candidate_paths @ ..] = args.as_slice() else {
        eprintln!("usage: bench_guard <committed-baseline.json> <current.json> [more.json...]");
        return ExitCode::FAILURE;
    };
    if candidate_paths.is_empty() {
        eprintln!("usage: bench_guard <committed-baseline.json> <current.json> [more.json...]");
        return ExitCode::FAILURE;
    }
    let baseline = match load(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut candidates = Vec::new();
    for path in candidate_paths {
        match load(path) {
            Ok(r) => candidates.push(r),
            Err(e) => {
                eprintln!("bench_guard: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let guard::Verdict {
        violations,
        skipped,
    } = guard::check_all(&baseline, &candidates);
    if !skipped.is_empty() {
        println!(
            "bench_guard: {} committed ratio cell(s) absent from every run, not compared:",
            skipped.len()
        );
        for cell in &skipped {
            println!("  - {cell}");
        }
    }
    if violations.is_empty() {
        println!(
            "bench_guard: OK — {} run(s) vs {} (identity columns true; guarded speedups ≥ {}× \
             baseline)",
            candidates.len(),
            baseline_path,
            guard::SPEEDUP_FLOOR
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_guard: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}
