//! Bench-guard: regression checks over `BENCH_*.json` reports.
//!
//! CI regenerates `BENCH_replay.json` on every run and compares it against
//! the committed baseline with two rules:
//!
//! 1. **Identity booleans** — every cell under a `bit-identical` or
//!    `agree` header, in *every* candidate report, must read `true`. These
//!    encode correctness (batch replay ≡ sequential, fast hash ≡ naive,
//!    osp-worker processes ≡ threads) and must never regress, on any
//!    machine. Sections that carry such claims and could be skipped
//!    silently (`REQUIRED_TABLES`: the `distributed` section, which
//!    needs the `osp-worker` binary built, the `socket` section,
//!    which needs a loopback worker fleet, the `kernel` section,
//!    which carries the range-kernel identity claim,
//!    and the `pipeline` section, which carries the pipelined-session
//!    identity claim) must additionally be
//!    *present with rows* in every candidate once the baseline has
//!    them — an absent table would otherwise pass vacuously.
//! 2. **Algorithmic speedups** — for tables whose comparison is
//!    single-threaded and machine-portable (`poly_hash_eval`,
//!    `weighted sampling`, `streaming`, `kernel`), each `speedup` / `mem ratio`
//!    cell must stay at ≥ [`SPEEDUP_FLOOR`] × its committed value,
//!    matched by table title and row identity (the first column). The
//!    `streaming` table's `mem ratio` (materialized instance bytes over
//!    fused-source resident bytes) is the constant-memory claim of the
//!    streaming ingestion path: it is deterministic up to the seed
//!    sequence, so a regression means the source genuinely started
//!    holding more state. Two deliberate exclusions keep the check
//!    meaningful rather than noisy:
//!    * committed ratios below [`RATIO_GUARD_MIN`] are informational only —
//!      a 1.3× micro-ratio is dominated by loop overhead and alignment
//!      luck, so "regressions" there are indistinguishable from jitter;
//!    * thread-scaling tables (`engine_run`, `replay_throughput`) are
//!      exempt — their speedups measure the host's core count, which CI
//!      runners and the baseline machine don't share — but their identity
//!      booleans are still enforced by rule 1.
//!
//! When several candidate reports are supplied (CI measures twice), a
//! ratio cell passes if its **best** candidate meets the floor — the
//! standard min-noise estimator for wall-clock ratios — while rule 1 must
//! hold in every candidate.
//!
//! Rows or tables present only in the baseline are skipped (the
//! quick-scale CI grid is a subset of the committed full-scale grid, and
//! a retitled section matches no committed title until the next full
//! re-baseline). Each committed ratio cell skipped that way is named in
//! [`Verdict::skipped`], so a cell that stops being compared shows in the
//! log instead of vanishing.

use crate::report::Report;

/// A guarded speedup may regress to this fraction of its committed value
/// before the guard fails (absorbs benign machine-to-machine jitter).
pub const SPEEDUP_FLOOR: f64 = 0.9;

/// Committed ratios below this are informational, not guarded.
pub const RATIO_GUARD_MIN: f64 = 2.0;

/// Table-title prefixes whose ratio columns are machine-portable
/// (single-threaded algorithmic ratios, or deterministic memory ratios)
/// and therefore ratio-guarded. The `kernel` table's `speedup` column is
/// the single-threaded range-kernel-over-scalar ratio (guarded). Only
/// the exact `speedup` header is guarded, so the committed baseline's
/// `begin speedup` column (a thread fan-out ratio, a machine property)
/// is exempt by name, like `wall speedup`.
const RATIO_GUARDED_TABLES: [&str; 4] =
    ["poly_hash_eval", "weighted sampling", "streaming", "kernel"];

/// Table-title prefixes that must be *present with rows* in every
/// candidate whenever the committed baseline has them. The `distributed`
/// section encodes the process-boundary identity claim (osp-worker
/// outcomes ≡ threads ≡ sequential) and the `socket` section the
/// network-boundary claim (a loopback `osp-worker --listen` fleet —
/// including one killed mid-batch by its fault plan — ≡ sequential); a
/// run that silently skipped either — e.g. because the worker binary was
/// not built or the fleet failed to come up — would otherwise pass
/// rule 1 vacuously. Their wall-clock columns stay unguarded (the
/// thread/worker counts are machine properties); only presence and the
/// identity booleans are enforced. The `kernel` section is required too:
/// it carries the range ≡ scalar identity claim plus the ratio-guarded
/// range-kernel speedup, so a run that dropped the table would quietly
/// un-guard both. The
/// `pipeline` section is required for the same reason: its rows claim
/// the pipelined session is bit-identical to the serial replay loop
/// (walls stay unguarded — the core count is a machine property).
const REQUIRED_TABLES: [&str; 4] = ["distributed", "socket", "kernel", "pipeline"];

/// Headers holding boolean identity verdicts.
const IDENTITY_HEADERS: [&str; 2] = ["bit-identical", "agree"];

/// Headers holding guarded ratios. (The streaming table's `wall speedup`
/// is deliberately unguarded by name: it mixes allocator behavior into
/// the ratio, so only the deterministic `mem ratio` cell carries the
/// streaming guarantee.)
const RATIO_HEADERS: [&str; 2] = ["speedup", "mem ratio"];

/// Parses a `"1.36×"` (or plain `"1.36"`) speedup cell.
fn parse_ratio(cell: &str) -> Option<f64> {
    cell.trim().trim_end_matches('×').trim().parse::<f64>().ok()
}

/// What [`check_all`] found.
#[derive(Debug)]
pub struct Verdict {
    /// Every rule violation (empty = pass).
    pub violations: Vec<String>,
    /// Each guarded committed ratio cell that no candidate has, as
    /// `[table title] row 'row': 'header'`. Informational, never a
    /// failure.
    pub skipped: Vec<String>,
}

/// Checks the candidate reports against `baseline`.
pub fn check_all(baseline: &Report, candidates: &[Report]) -> Verdict {
    let mut violations = Vec::new();
    let mut skipped = Vec::new();

    // Rule 1: identity booleans, in every candidate.
    for (i, current) in candidates.iter().enumerate() {
        for table in &current.tables {
            for (col, header) in table.headers.iter().enumerate() {
                if !IDENTITY_HEADERS.contains(&header.as_str()) {
                    continue;
                }
                for row in &table.rows {
                    if row[col] != "true" {
                        violations.push(format!(
                            "[candidate {i}] [{}] row '{}': identity column '{}' is '{}', \
                             expected 'true'",
                            table.title, row[0], header, row[col]
                        ));
                    }
                }
            }
        }
    }

    // Rule 1b: sections whose *absence* would make rule 1 vacuous must be
    // present (with rows) in every candidate once the baseline has them.
    for prefix in REQUIRED_TABLES {
        let required = baseline
            .tables
            .iter()
            .any(|t| t.title.starts_with(prefix) && !t.rows.is_empty());
        if !required {
            continue;
        }
        for (i, current) in candidates.iter().enumerate() {
            let present = current
                .tables
                .iter()
                .any(|t| t.title.starts_with(prefix) && !t.rows.is_empty());
            if !present {
                violations.push(format!(
                    "[candidate {i}] required section '{prefix}' is missing or empty \
                     (the baseline has it; was osp-worker built?)"
                ));
            }
        }
    }

    // Rule 2: machine-portable speedups vs the committed baseline, taking
    // the best candidate per cell.
    for base_table in &baseline.tables {
        if !RATIO_GUARDED_TABLES
            .iter()
            .any(|p| base_table.title.starts_with(p))
        {
            continue;
        }
        for (base_col, header) in base_table.headers.iter().enumerate() {
            if !RATIO_HEADERS.contains(&header.as_str()) {
                continue;
            }
            for base_row in &base_table.rows {
                let Some(base) = parse_ratio(&base_row[base_col]) else {
                    continue;
                };
                if base < RATIO_GUARD_MIN {
                    continue;
                }
                // Collect this cell from every candidate that has it.
                let measured: Vec<f64> = candidates
                    .iter()
                    .filter_map(|current| {
                        let table = current
                            .tables
                            .iter()
                            .find(|t| t.title == base_table.title)?;
                        let col = table.headers.iter().position(|h| h == header)?;
                        let row = table.rows.iter().find(|r| r[0] == base_row[0])?;
                        parse_ratio(&row[col])
                    })
                    .collect();
                let Some(best) = measured.iter().copied().fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                }) else {
                    skipped.push(format!(
                        "[{}] row '{}': '{header}'",
                        base_table.title, base_row[0]
                    ));
                    continue;
                };
                if best < SPEEDUP_FLOOR * base {
                    violations.push(format!(
                        "[{}] row '{}': '{}' regressed to {best:.2}× \
                         (best of {} run(s); < {SPEEDUP_FLOOR} × committed {base:.2}×)",
                        base_table.title,
                        base_row[0],
                        header,
                        measured.len(),
                    ));
                }
            }
        }
    }

    Verdict {
        violations,
        skipped,
    }
}

/// Single-candidate convenience wrapper around [`check_all`]: the
/// violations only.
pub fn check(baseline: &Report, current: &Report) -> Vec<String> {
    check_all(baseline, std::slice::from_ref(current)).violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::NamedTable;

    fn report_with(title: &str, headers: &[&str], rows: Vec<Vec<&str>>) -> Report {
        let mut r = Report::new("replay", "t", "c");
        let mut t = NamedTable::new(title, headers);
        for row in rows {
            t.row(row.into_iter().map(String::from).collect());
        }
        r.table(t);
        r
    }

    #[test]
    fn passes_when_identical() {
        let base = report_with(
            "poly_hash_eval: x",
            &["independence", "speedup", "agree"],
            vec![vec!["8-wise", "3.44×", "true"]],
        );
        assert!(check(&base, &base.clone()).is_empty());
    }

    #[test]
    fn false_identity_fails_in_any_candidate() {
        let good = report_with(
            "engine_run: x",
            &["workload", "bit-identical"],
            vec![vec!["w", "true"]],
        );
        let bad = report_with(
            "engine_run: x",
            &["workload", "bit-identical"],
            vec![vec!["w", "false"]],
        );
        let v = check_all(&good, &[good.clone(), bad]).violations;
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit-identical"));
    }

    #[test]
    fn speedup_regression_fails_only_in_ratio_guarded_tables() {
        let mk = |title: &str, speedup: &str| {
            report_with(title, &["id", "speedup"], vec![vec!["row", speedup]])
        };
        // 3.0× committed, 1.0× now: fails in a hash table...
        let v = check(
            &mk("poly_hash_eval: x", "3.00×"),
            &mk("poly_hash_eval: x", "1.00×"),
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("regressed"));
        // ...but within the floor passes.
        assert!(check(
            &mk("poly_hash_eval: x", "3.00×"),
            &mk("poly_hash_eval: x", "2.75×"),
        )
        .is_empty());
        // Thread-scaling tables are exempt from the ratio rule.
        assert!(check(&mk("engine_run: x", "8.00×"), &mk("engine_run: x", "0.90×"),).is_empty());
        // Small committed ratios are informational, not guarded.
        assert!(check(
            &mk("poly_hash_eval: x", "1.40×"),
            &mk("poly_hash_eval: x", "0.80×"),
        )
        .is_empty());
    }

    #[test]
    fn streaming_mem_ratio_is_guarded_and_identity_enforced() {
        let mk = |ratio: &str, identical: &str| {
            report_with(
                "streaming: fused UniformSource vs materialize-then-replay",
                &["workload", "wall speedup", "mem ratio", "bit-identical"],
                vec![vec!["m=100 n=1000 σ=4", "9.40×", ratio, identical]],
            )
        };
        // A mem-ratio collapse (the source started holding O(n) state)
        // fails the guard...
        let v = check(&mk("10.50×", "true"), &mk("1.20×", "true"));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("mem ratio"));
        // ...jitter within the floor passes...
        assert!(check(&mk("10.50×", "true"), &mk("10.10×", "true")).is_empty());
        // ...and a streaming-vs-materialized outcome divergence is an
        // identity violation regardless of the ratios.
        let v = check(&mk("10.50×", "true"), &mk("10.50×", "false"));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit-identical"));
        // The `wall speedup` column is informational by name even when the
        // committed value clears RATIO_GUARD_MIN: the candidate above
        // keeps the same 9.40× committed wall speedup cell-for-cell, so a
        // guarded reading of it would also have passed — pin the exemption
        // with a collapsed candidate instead.
        let slow = report_with(
            "streaming: fused UniformSource vs materialize-then-replay",
            &["workload", "wall speedup", "mem ratio", "bit-identical"],
            vec![vec!["m=100 n=1000 σ=4", "0.50×", "10.50×", "true"]],
        );
        assert!(check(&mk("10.50×", "true"), &slow).is_empty());
    }

    #[test]
    fn distributed_identity_is_enforced_and_presence_required() {
        let mk = |identical: &str| {
            report_with(
                "distributed: JobSpec fan-out — sequential vs threads vs osp-worker processes",
                &["workload × algorithm", "speedup", "bit-identical"],
                vec![vec!["m=200 n=2000 σ=6 × randPr", "0.80×", identical]],
            )
        };
        // Identity booleans of the distributed section are rule-1 checked…
        let v = check(&mk("true"), &mk("false"));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit-identical"));
        // …its speedup is machine-bound and deliberately unguarded…
        let base = mk("true");
        let slower = report_with(
            "distributed: JobSpec fan-out — sequential vs threads vs osp-worker processes",
            &["workload × algorithm", "speedup", "bit-identical"],
            vec![vec!["m=200 n=2000 σ=6 × randPr", "0.10×", "true"]],
        );
        assert!(check(&base, &slower).is_empty());
        // …and a candidate missing the section entirely (or with zero
        // rows) fails, because the identity claim would pass vacuously.
        let absent = report_with("engine_run: x", &["workload", "bit-identical"], vec![]);
        let v = check(&base, &absent);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("required section 'distributed'"));
        let empty = report_with(
            "distributed: JobSpec fan-out — sequential vs threads vs osp-worker processes",
            &["workload × algorithm", "speedup", "bit-identical"],
            vec![],
        );
        let v = check(&base, &empty);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing or empty"));
        // Baselines without the section (pre-PR-5 reports, other
        // experiment ids) require nothing.
        assert!(check(&absent, &absent.clone()).is_empty());
    }

    #[test]
    fn socket_section_is_required_once_the_baseline_has_it() {
        let mk = |identical: &str| {
            report_with(
                "socket: JobSpec fan-out — sequential vs a loopback osp-worker fleet",
                &["workload × algorithm", "fleet", "bit-identical"],
                vec![vec!["m=200 n=2000 σ=6 × randPr", "3", identical]],
            )
        };
        // Identity booleans are rule-1 checked like every other section…
        let v = check(&mk("true"), &mk("false"));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit-identical"));
        // …and a candidate that silently dropped the section (fleet never
        // came up) fails the presence rule rather than passing vacuously.
        let absent = report_with("engine_run: x", &["workload", "bit-identical"], vec![]);
        let v = check(&mk("true"), &absent);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("required section 'socket'"));
        // Baselines without the section require nothing.
        assert!(check(&absent, &absent.clone()).is_empty());
    }

    #[test]
    fn kernel_speedup_guarded_but_begin_speedup_exempt() {
        let mk = |speedup: &str, begin: &str, identical: &str| {
            report_with(
                "kernel: hashPr's hash — eval_range vs scalar eval per key; sharded vs serial begin",
                &["m", "speedup", "begin speedup", "bit-identical"],
                vec![vec!["1000000", speedup, begin, identical]],
            )
        };
        // The range-over-scalar ratio is single-threaded and guarded:
        // a collapse below the floor fails…
        let v = check(&mk("2.20×", "1.00×", "true"), &mk("1.10×", "1.00×", "true"));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("speedup"));
        // …jitter within the floor passes…
        assert!(check(&mk("2.20×", "1.00×", "true"), &mk("2.05×", "1.00×", "true")).is_empty());
        // …a thread fan-out ratio is machine-bound: even a committed
        // multi-core 4.00× may read ~0.9× on a 1-core runner without
        // failing (exempt by the `begin speedup` header name)…
        assert!(check(&mk("2.20×", "4.00×", "true"), &mk("2.20×", "0.90×", "true")).is_empty());
        // …and the identity cell is rule-1 enforced regardless of the
        // ratios.
        let v = check(
            &mk("2.20×", "1.00×", "true"),
            &mk("2.20×", "1.00×", "false"),
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit-identical"));
    }

    #[test]
    fn kernel_section_is_required_once_the_baseline_has_it() {
        let base = report_with(
            "kernel: hashPr's hash — eval_range vs scalar eval per key; sharded vs serial begin",
            &["m", "speedup", "bit-identical"],
            vec![vec!["10000", "2.50×", "true"]],
        );
        // A candidate that dropped the section would silently un-guard
        // the kernel identity and speedup claims — presence is required.
        let absent = report_with("engine_run: x", &["workload", "bit-identical"], vec![]);
        let v = check(&base, &absent);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("required section 'kernel'"));
        // Baselines without the section require nothing.
        assert!(check(&absent, &absent.clone()).is_empty());
    }

    #[test]
    fn pipeline_section_identity_enforced_presence_required_walls_unguarded() {
        let mk = |speedup: &str, identical: &str| {
            report_with(
                "pipeline: one streamed replay — serial loop vs pipelined session",
                &[
                    "workload × algorithm",
                    "serial s",
                    "pipelined s",
                    "speedup",
                    "nproc",
                    "bit-identical",
                ],
                vec![vec![
                    "m=500000 n=1000000 σ=4 × randPr",
                    "1.10",
                    "0.45",
                    speedup,
                    "2",
                    identical,
                ]],
            )
        };
        // A pipelined outcome diverging from the serial loop is a rule-1
        // violation…
        let v = check(&mk("2.40×", "true"), &mk("2.40×", "false"));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bit-identical"));
        // …the wall speedup is machine-bound (a 1-core runner reads ~1×)
        // and deliberately unguarded, even above RATIO_GUARD_MIN…
        assert!(check(&mk("2.40×", "true"), &mk("0.40×", "true")).is_empty());
        // …and a candidate that silently dropped the section fails the
        // presence rule rather than passing vacuously.
        let absent = report_with("engine_run: x", &["workload", "bit-identical"], vec![]);
        let v = check(&mk("2.40×", "true"), &absent);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("required section 'pipeline'"));
        // Baselines without the section require nothing.
        assert!(check(&absent, &absent.clone()).is_empty());
    }

    #[test]
    fn best_of_candidates_wins() {
        let base = report_with(
            "poly_hash_eval: x",
            &["id", "speedup"],
            vec![vec!["8-wise", "3.60×"]],
        );
        let noisy = report_with(
            "poly_hash_eval: x",
            &["id", "speedup"],
            vec![vec!["8-wise", "3.00×"]],
        );
        let quiet = report_with(
            "poly_hash_eval: x",
            &["id", "speedup"],
            vec![vec!["8-wise", "3.55×"]],
        );
        // The noisy run alone fails; paired with the quiet run it passes.
        assert_eq!(check(&base, &noisy).len(), 1);
        assert!(check_all(&base, &[noisy, quiet]).violations.is_empty());
    }

    #[test]
    fn missing_rows_and_tables_are_skipped() {
        let base = report_with(
            "poly_hash_eval: x",
            &["id", "speedup"],
            vec![vec!["64-wise", "2.72×"]],
        );
        let cur = report_with(
            "poly_hash_eval: x",
            &["id", "speedup"],
            vec![vec!["128-wise", "0.10×"]],
        );
        assert!(check(&base, &cur).is_empty());
        let other = report_with("weighted sampling: y", &["id", "speedup"], vec![]);
        assert!(check(&other, &base).is_empty());
    }

    #[test]
    fn unmatched_committed_ratio_cells_are_named_not_failed() {
        let base = report_with(
            "kernel: old title",
            &["m", "speedup", "begin speedup", "bit-identical"],
            vec![
                vec!["10000", "4.37×", "1.80×", "true"],
                vec!["10", "1.20×", "1.00×", "true"],
            ],
        );
        let retitled = report_with(
            "kernel: new title",
            &["m", "speedup", "begin speedup", "bit-identical"],
            vec![vec!["10000", "1.10×", "1.00×", "true"]],
        );
        let verdict = check_all(&base, &[retitled.clone(), retitled]);
        // The retitled section still satisfies the presence rule, and its
        // guarded cell is named once, not failed. The informational cells
        // (below RATIO_GUARD_MIN, or an unguarded header) are not listed.
        assert!(verdict.violations.is_empty(), "{:?}", verdict.violations);
        assert_eq!(
            verdict.skipped,
            vec!["[kernel: old title] row '10000': 'speedup'".to_string()]
        );
        // A cell some candidate has is compared, not listed.
        assert!(check_all(&base, std::slice::from_ref(&base))
            .skipped
            .is_empty());
    }

    #[test]
    fn ratio_parsing() {
        assert_eq!(parse_ratio("1.36×"), Some(1.36));
        assert_eq!(parse_ratio(" 2.0 "), Some(2.0));
        assert_eq!(parse_ratio("n/a"), None);
    }
}
