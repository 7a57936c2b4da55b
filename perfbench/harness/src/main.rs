//! `osp-perfbench` — the measuring half of the repository benchmark
//! (`perfbench/run.py` builds it and drives it, one process per run).
//!
//! ```text
//! osp-perfbench reference --workload <w> --seed <n>
//! osp-perfbench measure --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!               --bin-dir <dir> --work-dir <dir> [--expect <completed>:<digest>,...]
//! ```
//!
//! `reference` replays the workload's job through the materialized
//! instance path and prints its outcome summary, in a process of its own
//! so that its memory never shows in the measured run's peak RSS.
//! `measure` runs the workload and prints one JSON object on its last
//! line: correctness, attempted/failed counts, metrics, a per-layer
//! self-time table and run facts. The workloads see only `JobSpec`s.

mod fleet;
mod replay;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use osp_core::{wire, Outcome, SetId};

/// What one run reports; serialized by hand as one JSON line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in the order printed.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run facts (sizes, regime, sample counts), as raw JSON values.
    pub info: BTreeMap<&'static str, String>,
    /// Self time per layer, seconds, over the traced wall time.
    pub layers: BTreeMap<&'static str, f64>,
    /// Problems found, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.insert(key, value.to_string());
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("osp-perfbench: {what}");
        self.problems.push(what);
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("},\"layers\":{");
        for (i, (layer, secs)) in self.layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{layer}\":{}", json_number(*secs));
        }
        out.push_str("},\"info\":{");
        for (i, (key, value)) in self.info.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{key}\":{value}");
        }
        out.push_str("},\"problems\":[");
        for (i, p) in self.problems.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\"", p.replace(['"', '\\'], "'"));
        }
        out.push_str("]}");
        out
    }
}

/// A finite JSON number (a non-finite value would make the line invalid
/// and is reported as a problem by the caller's checks instead).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of the samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Percentile by linear interpolation between closest ranks.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The parts of an outcome the benchmark checks: completed sets, benefit
/// and every set's `died_at`, folded into one FNV-1a digest. Decisions
/// are left out on purpose, so the decision log can change form without
/// a benchmark edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub completed: u64,
    pub digest: u64,
}

impl Summary {
    pub fn of(outcome: &Outcome, num_sets: usize) -> Summary {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(outcome.completed().len() as u64);
        for s in outcome.completed() {
            eat(u64::from(s.0));
        }
        eat(outcome.benefit().to_bits());
        for i in 0..num_sets {
            eat(outcome
                .died_at(SetId(i as u32))
                .map_or(u64::MAX, |e| u64::from(e.0)));
        }
        Summary {
            completed: outcome.completed().len() as u64,
            digest: h,
        }
    }

    pub fn render(&self) -> String {
        format!("{}:{:016x}", self.completed, self.digest)
    }

    pub fn parse(text: &str) -> Option<Summary> {
        let (completed, digest) = text.split_once(':')?;
        Some(Summary {
            completed: completed.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
        })
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parsed command line.
pub struct Args {
    pub command: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
    /// Reference summaries, one per job of the workload.
    pub expect: Vec<Summary>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = raw.first().cloned().ok_or("missing command")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        work_dir: PathBuf::new(),
        expect: Vec::new(),
    };
    let mut it = raw.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--expect" => {
                args.expect = value
                    .split(',')
                    .map(Summary::parse)
                    .collect::<Option<_>>()
                    .ok_or(bad(&"want <completed>:<hex>[,...]"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("osp-perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let line = match (args.command.as_str(), args.workload.as_str()) {
        ("reference", w) => replay::reference(w, args.seed),
        ("measure", "serve-fleet") => fleet::measure(&args).map(|r| r.to_json()),
        ("measure", w) => replay::measure(w, &args).map(|r| r.to_json()),
        (other, _) => Err(format!("unknown command {other}")),
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("osp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end metrics, printed by an untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("arrivals_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("fresh_batch_ms_p50", "ms"),
    ("cached_batch_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Measured by every untraced run and kept in its report, but not
/// printed as metrics: run to run they move with the machine's slow
/// periods by more than any bound the benchmark could hold them to.
const TAILS: [&str; 2] = ["fresh_batch_ms_p90", "cached_batch_ms_p90"];

/// The per-layer metrics, printed by a traced run. A layer a workload
/// does not pass through reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("spec.resolve_s", "s"),
    ("gen.next_s", "s"),
    ("gen.arrivals", "count"),
    ("gen.members_per_arrival", "count"),
    ("gen.set_size_mean", "count"),
    ("algorithms.begin_s", "s"),
    ("algorithms.decide_s", "s"),
    ("algorithms.candidates", "count"),
    ("algorithms.chosen_per_candidate", "frac"),
    ("engine.apply_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.completed_frac", "frac"),
    ("wire.outcome_bytes", "bytes"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("dispatch.batch_ms", "ms"),
    ("dispatch.excluded", "count"),
    ("dispatch.probes", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.cached_wait_ms", "ms"),
    ("serve.cached_fetch_ms", "ms"),
    ("serve.status_polls", "count"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.inprocess_job_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.journal_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
    ("self.spec", "frac"),
    ("self.gen", "frac"),
    ("self.algorithms", "frac"),
    ("self.engine", "frac"),
    ("self.wire", "frac"),
    ("self.dispatch", "frac"),
    ("self.serve", "frac"),
    ("self.store", "frac"),
    ("self.other", "frac"),
];

/// The `self.<layer>` metric: the layer's share of the traced wall time.
pub fn self_share_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix("self.") == Some(layer))
        .expect("every layer has a self-share metric")
}

/// Pushes the run's metric set (end-to-end when untraced, per-layer when
/// traced) from `values`, in the fixed order.
pub fn push_metrics(report: &mut Report, traced: bool, values: &BTreeMap<&'static str, f64>) {
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let names: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for tail in TAILS {
        if let Some(v) = values.get(tail) {
            report.info(tail, *v);
        }
    }
    for &(name, unit) in names {
        let value = match name {
            "failed_frac" => failed_frac,
            _ => values.get(name).copied().unwrap_or(0.0),
        };
        if !value.is_finite() {
            report.problem(format!("metric {name} is not finite"));
        }
        report.metric(name, value, unit);
    }
}

/// Sums the self times of the spans under `roots` into the report's
/// layer table and sets the `self.<layer>` shares of their wall time.
/// Returns how many spans had splits scaled down to fit.
pub fn account(
    report: &mut Report,
    spans: &trace::Spans,
    roots: &[usize],
    values: &mut BTreeMap<&'static str, f64>,
) -> u64 {
    let mut wall = 0.0;
    let mut clamped = 0;
    for &root in roots {
        let (layers, c) = spans.self_times(root);
        clamped += c;
        for (layer, secs) in layers {
            *report.layers.entry(layer).or_default() += secs;
        }
        wall += spans.duration(root).as_secs_f64();
    }
    for layer in trace::LAYERS {
        let secs = report.layers.get(layer).copied().unwrap_or(0.0);
        values.insert(self_share_name(layer), secs / wall);
    }
    report.info("traced_wall_s", wall);
    clamped
}

/// A call's start and end.
pub type Window = (Instant, Instant);

/// Encodes `outcome` as one frame and decodes it back, counting a failed
/// or changing round trip. Returns the encode and decode windows and the
/// frame's size.
pub fn frame_round_trip(
    report: &mut Report,
    outcome: &Outcome,
    num_sets: usize,
) -> (Window, Window, usize) {
    let t0 = Instant::now();
    let mut frame = Vec::new();
    let encoded = wire::write_message(&mut frame, outcome);
    let t1 = Instant::now();
    let decoded: Result<Option<Outcome>, _> = wire::read_message(&mut frame.as_slice());
    let t2 = Instant::now();
    report.attempted += 1;
    let want = Some(Summary::of(outcome, num_sets));
    match (encoded, decoded) {
        (Ok(()), Ok(back)) if back.as_ref().map(|o| Summary::of(o, num_sets)) == want => {}
        (Err(e), _) | (_, Err(e)) => {
            report.failed += 1;
            report.problem(format!("frame round trip failed: {e}"));
        }
        _ => {
            report.failed += 1;
            report.problem("frame round trip changed an outcome".into());
        }
    }
    ((t0, t1), (t1, t2), frame.len())
}

/// Writes the run's spans to `spans.json` in the work directory.
pub fn write_spans(args: &Args, spans: &trace::Spans) -> Result<(), String> {
    let path = args.work_dir.join("spans.json");
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
}
