//! The two streamed-replay workloads: `run_spec` calls timed in-process,
//! each run cycling over a few jobs drawn from its seed.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use osp_core::engine::batch::ReplayScratch;
use osp_core::gen::{biregular_instance, random_instance, RandomInstanceConfig};
use osp_core::spec::{
    run_spec_with_scratch, AlgorithmSpec, CoreResolver, ScenarioSpec, SpecResolver,
};
use osp_core::store::{JournalStore, ResultStore, StoreLimits};
use osp_core::{
    derive_seed, job_digest, run, run_spec, Instance, InstanceBuilder, JobSpec, Outcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{Probe, Spans, TracedResolver};
use crate::{median, percentile, secs_ms, Args, Report, Summary};

/// One replay workload: its jobs, and the floor on the share of sets a
/// replay must complete (the regime guard: below it nearly every set is
/// dead early and the run no longer times the paper's regime).
pub struct ReplayWorkload {
    pub jobs: Vec<JobSpec>,
    pub num_sets: usize,
    pub completed_floor: f64,
}

pub fn workload(name: &str, seed: u64) -> Result<ReplayWorkload, String> {
    let (scenario, algorithm, count, num_sets, completed_floor) = match name {
        // randPr over σ=4 uniform elements with m = n/2, so k ≈ 8 and a
        // few percent of the sets still complete.
        "replay-uniform" => (
            ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(50_000, 100_000, 4)),
            AlgorithmSpec::RandPr,
            4,
            50_000,
            0.02,
        ),
        // 64-wise hashed randPr over exactly-k=4 sets and σ=16 elements:
        // source construction and the hash table dominate. The source's
        // conflict repair costs a seed-dependent amount, so each run
        // cycles over sixteen jobs to average it out.
        "replay-biregular" => (
            ScenarioSpec::Biregular {
                num_sets: 50_000,
                set_size: 4,
                load: 16,
            },
            AlgorithmSpec::HashRandPr { independence: 64 },
            16,
            50_000,
            0.008,
        ),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let jobs = (0..count)
        .map(|j| JobSpec {
            scenario: scenario.clone(),
            algorithm: algorithm.clone(),
            seed: derive_seed(seed, j),
        })
        .collect();
    Ok(ReplayWorkload {
        jobs,
        num_sets,
        completed_floor,
    })
}

/// Replays each of the workload's jobs through the materialized-instance
/// path (an `Instance` replayed with `run`), a different route from the
/// streamed `run_spec` the measured samples take, and prints their
/// summaries and the regime as one JSON line.
///
/// The biregular instances come from the materializing generator. The
/// uniform one cannot at this size (that generator allocates O(m) per
/// element), so the streamed source is drained into an `Instance`, and a
/// twin job at a hundredth of the size checks the streamed generator
/// against the materializing one.
pub fn reference(name: &str, seed: u64) -> Result<String, String> {
    let wl = workload(name, seed)?;
    let mut expects = Vec::new();
    let (mut sizes, mut sets, mut arrivals, mut completed) = (0u64, 0usize, 0usize, 0u64);
    for job in &wl.jobs {
        let instance = materialize(job)?;
        let outcome = run_materialized(job, &instance)?;
        let summary = Summary::of(&outcome, wl.num_sets);
        expects.push(summary.render());
        sizes += instance
            .sets()
            .iter()
            .map(|s| u64::from(s.size()))
            .sum::<u64>();
        sets += instance.num_sets();
        arrivals += instance.num_elements();
        completed += summary.completed;
    }
    Ok(format!(
        "{{\"expect\":\"{}\",\"k\":{},\"sigma\":{},\"completed_frac\":{}}}",
        expects.join(","),
        sizes as f64 / sets as f64,
        sizes as f64 / arrivals as f64,
        completed as f64 / sets as f64
    ))
}

fn materialize(job: &JobSpec) -> Result<Instance, String> {
    match &job.scenario {
        ScenarioSpec::Uniform(cfg) => {
            let small = RandomInstanceConfig {
                num_sets: cfg.num_sets / 100,
                num_elements: cfg.num_elements / 100,
                ..*cfg
            };
            let twin = JobSpec {
                scenario: ScenarioSpec::Uniform(small),
                ..job.clone()
            };
            let twin_instance = random_instance(&small, &mut StdRng::seed_from_u64(job.seed))
                .map_err(|e| e.to_string())?;
            let streamed = run_spec(&twin, &CoreResolver).map_err(|e| e.to_string())?;
            let materialized = run_materialized(job, &twin_instance)?;
            if Summary::of(&streamed, small.num_sets) != Summary::of(&materialized, small.num_sets)
            {
                return Err(
                    "the streamed uniform generator disagrees with the materializing one".into(),
                );
            }
            let mut source = CoreResolver
                .scenario(&job.scenario, job.seed)
                .map_err(|e| e.to_string())?;
            let mut b = InstanceBuilder::new();
            for set in source.sets() {
                b.add_set(set.weight(), set.size());
            }
            while let Some(a) = source.next_arrival() {
                b.add_element(a.capacity(), a.members());
            }
            b.build().map_err(|e| e.to_string())
        }
        ScenarioSpec::Biregular {
            num_sets,
            set_size,
            load,
        } => biregular_instance(
            *num_sets,
            *set_size,
            *load,
            &mut StdRng::seed_from_u64(job.seed),
        )
        .map_err(|e| e.to_string()),
        _ => unreachable!("replay workloads use uniform or biregular scenarios"),
    }
}

fn run_materialized(job: &JobSpec, instance: &Instance) -> Result<Outcome, String> {
    let mut algorithm = CoreResolver
        .algorithm(&job.algorithm, job.seed)
        .map_err(|e| e.to_string())?;
    run(instance, algorithm.as_mut()).map_err(|e| e.to_string())
}

/// Checks each sample against its job's reference summary and keeps the
/// share of sets completed, for the regime guard.
struct Checker {
    expect: Vec<Summary>,
    num_sets: usize,
    sets: usize,
    completed: Vec<f64>,
}

impl Checker {
    fn check(
        &mut self,
        report: &mut Report,
        job: usize,
        result: Result<Outcome, osp_core::Error>,
    ) -> Option<Outcome> {
        report.attempted += 1;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("job {job}: replay failed: {e}"));
                return None;
            }
        };
        let summary = Summary::of(&outcome, self.num_sets);
        if self.expect.get(job) != Some(&summary) {
            report.failed += 1;
            report.problem(format!(
                "job {job}: outcome {} differs from the reference {:?}",
                summary.render(),
                self.expect.get(job).map(Summary::render)
            ));
        }
        self.completed
            .push(summary.completed as f64 / self.sets.max(1) as f64);
        Some(outcome)
    }
}

pub fn measure(name: &str, args: &Args) -> Result<Report, String> {
    let wl = workload(name, args.seed)?;
    let mut report = Report::default();
    if args.expect.len() != wl.jobs.len() {
        return Err(format!(
            "--expect names {} summaries for {} jobs",
            args.expect.len(),
            wl.jobs.len()
        ));
    }

    // Set-up: what `run_spec` resolves before the first arrival (source
    // construction and the algorithm object), three times per job.
    let mut setup = Vec::new();
    let (mut sets, mut sizes, mut arrivals) = (0usize, 0u64, 0u64);
    for job in wl.jobs.iter().cycle().take(3 * wl.jobs.len()) {
        let start = Instant::now();
        let source = CoreResolver
            .scenario(&job.scenario, job.seed)
            .map_err(|e| e.to_string())?;
        let algorithm = CoreResolver
            .algorithm(&job.algorithm, job.seed)
            .map_err(|e| e.to_string())?;
        setup.push(start.elapsed().as_secs_f64());
        sets = source.sets().len();
        sizes = source.sets().iter().map(|s| u64::from(s.size())).sum();
        arrivals = source.remaining_hint().unwrap_or(0) as u64;
        drop((source, algorithm));
    }
    let job = &wl.jobs[0];
    report.info("jobs", wl.jobs.len());
    report.info("sets", sets);
    report.info("arrivals", arrivals);
    report.info("k", sizes as f64 / sets.max(1) as f64);
    report.info("sigma", sizes as f64 / arrivals.max(1) as f64);
    report.info("scenario", format!("\"{}\"", job.scenario.label()));
    report.info("algorithm", format!("\"{}\"", job.algorithm.label()));
    report.info("setup_s", format!("{setup:?}"));

    let mut checker = Checker {
        expect: args.expect.clone(),
        num_sets: wl.num_sets,
        sets,
        completed: Vec::new(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut values = if args.trace {
        traced(&wl, args, &mut report, &mut checker, budget)?
    } else {
        untraced(&wl, &mut report, &mut checker, budget, arrivals)
    };
    values.insert("setup_s", median(&setup));

    let completed_frac = median(&checker.completed);
    values.insert("engine.completed_frac", completed_frac);
    report.info("completed_frac", completed_frac);
    report.info("completed_floor", wl.completed_floor);
    if completed_frac < wl.completed_floor {
        report.problem(format!(
            "regime guard: {completed_frac:.4} of the sets completed, below the floor {}",
            wl.completed_floor
        ));
    }
    report.correct = report.failed == 0 && report.problems.is_empty();
    crate::push_metrics(&mut report, args.trace, &values);
    Ok(report)
}

/// Samples cycle over the jobs, each replayed fresh (`run_spec`, new
/// engine buffers) and then cached (`run_spec_with_scratch` on the
/// buffers the previous replay left warm, as a worker reuses them), until
/// the budget is spent at the end of a cycle.
fn untraced(
    wl: &ReplayWorkload,
    report: &mut Report,
    checker: &mut Checker,
    budget: Duration,
    arrivals: u64,
) -> BTreeMap<&'static str, f64> {
    // The warm-up replay fills the scratch the first cached sample reuses.
    let mut scratch = ReplayScratch::new();
    checker.check(
        report,
        0,
        run_spec_with_scratch(&wl.jobs[0], &CoreResolver, &mut scratch),
    );

    let (mut fresh, mut cached) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget || fresh.len() < 3 {
        for (j, job) in wl.jobs.iter().enumerate() {
            let t = Instant::now();
            let result = run_spec(job, &CoreResolver);
            fresh.push(secs_ms(t.elapsed()));
            checker.check(report, j, result);

            let t = Instant::now();
            let result = run_spec_with_scratch(job, &CoreResolver, &mut scratch);
            cached.push(secs_ms(t.elapsed()));
            checker.check(report, j, result);
        }
    }
    // Throughput from each job's median replay time, so that a replay
    // slowed by a noisy neighbour does not move it.
    let count = wl.jobs.len();
    let cycle_s: f64 = (0..count)
        .map(|j| {
            let times: Vec<f64> = fresh
                .iter()
                .chain(&cached)
                .skip(j)
                .step_by(count)
                .copied()
                .collect();
            median(&times) / 1e3
        })
        .sum();
    report.info("fresh_ms", format!("{fresh:?}"));
    report.info("cached_ms", format!("{cached:?}"));
    BTreeMap::from([
        ("arrivals_per_s", arrivals as f64 * count as f64 / cycle_s),
        ("jobs_per_s", count as f64 / cycle_s),
        ("fresh_batch_ms_p50", median(&fresh)),
        ("fresh_batch_ms_p90", percentile(&fresh, 0.9)),
        ("cached_batch_ms_p50", median(&cached)),
        ("cached_batch_ms_p90", percentile(&cached, 0.9)),
        ("peak_rss_mb", crate::peak_rss_mb(None).unwrap_or(0.0)),
    ])
}

/// Per-sample values of one traced replay, read off the probe.
pub fn sample_values(probe: &Probe, start: Instant, end: Instant) -> BTreeMap<&'static str, f64> {
    let span = |c: &std::cell::Cell<Option<(Instant, Instant)>>| {
        c.get().map_or(0.0, |(a, b)| (b - a).as_secs_f64())
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let arrivals = probe.arrivals.get() as f64;
    let members = probe.members.get() as f64;
    let finish = probe
        .drain_end
        .get()
        .map_or(0.0, |d| end.saturating_duration_since(d).as_secs_f64());
    BTreeMap::from([
        ("replay_s", (end - start).as_secs_f64()),
        (
            "spec.resolve_s",
            span(&probe.scenario) + span(&probe.algorithm),
        ),
        ("gen.next_s", secs(probe.gen_ns.get())),
        ("gen.arrivals", arrivals),
        ("gen.members_per_arrival", members / arrivals.max(1.0)),
        (
            "gen.set_size_mean",
            probe.set_size_sum.get() as f64 / (probe.sets.get() as f64).max(1.0),
        ),
        ("algorithms.begin_s", span(&probe.begin)),
        ("algorithms.decide_s", secs(probe.decide_ns.get())),
        ("algorithms.candidates", members),
        (
            "algorithms.chosen_per_candidate",
            probe.chosen.get() as f64 / members.max(1.0),
        ),
        (
            "engine.apply_s",
            secs(probe.gap_ns.get().saturating_sub(probe.decide_ns.get())),
        ),
        ("engine.finish_s", finish),
    ])
}

/// Records one traced replay as spans under a `sample` root.
pub fn record_sample(spans: &mut Spans, probe: &Probe, start: Instant, end: Instant) -> usize {
    let root = spans.record("sample", "other", start, end, None);
    let replay = spans.record("replay", "engine", start, end, Some(root));
    for (name, layer, cell) in [
        ("spec.scenario", "spec", &probe.scenario),
        ("spec.algorithm", "spec", &probe.algorithm),
        ("algorithms.begin", "algorithms", &probe.begin),
    ] {
        if let Some((a, b)) = cell.get() {
            spans.record(name, layer, a, b, Some(replay));
        }
    }
    if let (Some(a), Some(b)) = (probe.drain_start.get(), probe.drain_end.get()) {
        let drain = spans.record("engine.drain", "engine", a, b, Some(replay));
        spans.split(drain, "gen", Duration::from_nanos(probe.gen_ns.get()));
        spans.split(
            drain,
            "algorithms",
            Duration::from_nanos(probe.decide_ns.get()),
        );
        spans.record("engine.finish", "engine", b, end, Some(replay));
    }
    root
}

/// Untraced and traced replays alternate over the jobs, so the overhead
/// compares runs made under the same conditions; the per-layer values
/// are medians over the traced replays.
fn traced(
    wl: &ReplayWorkload,
    args: &Args,
    report: &mut Report,
    checker: &mut Checker,
    budget: Duration,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let resolver = TracedResolver {
        probe: Rc::new(Probe::default()),
    };
    let mut spans = Spans::new();
    let mut roots = Vec::new();
    let mut untraced_s = Vec::new();
    let mut per_sample: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    let start = Instant::now();
    while start.elapsed() < budget || roots.len() < 2 {
        for (j, job) in wl.jobs.iter().enumerate() {
            let t = Instant::now();
            let result = run_spec(job, &CoreResolver);
            untraced_s.push(t.elapsed().as_secs_f64());
            checker.check(report, j, result);

            resolver.probe.reset();
            let t0 = Instant::now();
            let result = run_spec(job, &resolver);
            let t1 = Instant::now();
            let root = record_sample(&mut spans, &resolver.probe, t0, t1);
            for (k, v) in sample_values(&resolver.probe, t0, t1) {
                per_sample.entry(k).or_default().push(v);
            }
            if let Some(outcome) = checker.check(report, j, result) {
                last = Some((j, outcome));
            }
            spans.close(root);
            roots.push(root);
        }
    }

    let mut values: BTreeMap<&'static str, f64> =
        per_sample.iter().map(|(k, v)| (*k, median(v))).collect();
    values.insert(
        "trace.overhead_frac",
        values["replay_s"] / median(&untraced_s) - 1.0,
    );
    report.info("traced_samples", roots.len());
    report.info("untraced_samples", untraced_s.len());

    // Wire and store, once, on a replay's outcome: what shipping this
    // job's answer across a frame or into the journal would cost. Kept
    // out of the layer table, which covers the replays alone.
    if let Some((j, outcome)) = last {
        let extras = spans.open("extras", "other", None);
        outcome_extras(
            &wl.jobs[j],
            &outcome,
            wl.num_sets,
            args,
            report,
            &mut spans,
            extras,
            &mut values,
        )?;
        spans.close(extras);
    }
    crate::account(report, &spans, &roots, &mut values);
    crate::write_spans(args, &spans)?;
    Ok(values)
}

/// Times one frame encode/decode and one journal put/flush/get of
/// `outcome`, checking that each round trip gives the outcome back.
#[allow(clippy::too_many_arguments)]
pub fn outcome_extras(
    job: &JobSpec,
    outcome: &Outcome,
    num_sets: usize,
    args: &Args,
    report: &mut Report,
    spans: &mut Spans,
    parent: usize,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let want = Summary::of(outcome, num_sets);
    let (enc, dec, bytes) = crate::frame_round_trip(report, outcome, num_sets);
    spans.record("wire.encode", "wire", enc.0, enc.1, Some(parent));
    spans.record("wire.decode", "wire", dec.0, dec.1, Some(parent));
    values.insert("wire.outcome_bytes", bytes as f64);
    values.insert("wire.encode_s", (enc.1 - enc.0).as_secs_f64());
    values.insert("wire.decode_s", (dec.1 - dec.0).as_secs_f64());

    let dir = args.work_dir.join("extras-store");
    let mut store = JournalStore::open(&dir, StoreLimits::DEFAULT).map_err(|e| e.to_string())?;
    let digest = job_digest(job).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    store.put(digest, outcome);
    let t1 = Instant::now();
    store.flush();
    let t2 = Instant::now();
    let back = store.get(digest);
    let t3 = Instant::now();
    spans.record("store.put", "store", t0, t1, Some(parent));
    spans.record("store.flush", "store", t1, t2, Some(parent));
    spans.record("store.get", "store", t2, t3, Some(parent));
    report.attempted += 1;
    if back.map(|o| Summary::of(&o, num_sets)) != Some(want) {
        report.failed += 1;
        report.problem("journal store did not give the outcome back".into());
    }
    values.insert("store.put_ms", secs_ms(t1 - t0));
    values.insert("store.flush_ms", secs_ms(t2 - t1));
    values.insert("store.get_ms", secs_ms(t3 - t2));
    values.insert("store.journal_bytes", store.journal_bytes() as f64);
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(())
}
