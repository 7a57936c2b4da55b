//! Property tests for the wire layer: every message type round-trips
//! encode→decode to identity, and the frame protocol answers truncation
//! and garbage with a clean [`Error`], never a panic.

use std::io::Cursor;

use proptest::prelude::*;

use osp::core::gen::{CapacityModel, LoadModel, RandomInstanceConfig, WeightModel};
use osp::core::prelude::*;
use osp::core::wire::{read_frame, read_message, write_frame, write_message};
use osp::core::ElementId;

// --- Strategies -----------------------------------------------------------

fn algorithm_spec() -> impl Strategy<Value = AlgorithmSpec> {
    (
        0usize..6,
        1usize..64,
        proptest::any::<u8>(),
        proptest::collection::vec(0u32..512, 0..8),
    )
        .prop_map(|(pick, independence, tie, target)| match pick {
            0 => AlgorithmSpec::RandPr,
            1 => AlgorithmSpec::HashRandPr { independence },
            2 => {
                let all = TieBreak::all();
                AlgorithmSpec::Greedy {
                    tie_break: all[tie as usize % all.len()],
                }
            }
            3 => AlgorithmSpec::RandomAssign,
            4 => {
                let mut ids: Vec<SetId> = target.into_iter().map(SetId).collect();
                ids.sort_unstable();
                ids.dedup();
                AlgorithmSpec::Oracle { target: ids }
            }
            5 => AlgorithmSpec::TailDrop,
            _ => AlgorithmSpec::RandomDrop,
        })
}

fn scenario_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0usize..4,
        1usize..500,
        1usize..2000,
        1u32..8,
        0.1f64..3.0,
        1u32..16,
    )
        .prop_map(|(pick, m, n, k, skew, interval)| match pick {
            0 => ScenarioSpec::Uniform(RandomInstanceConfig {
                num_sets: m,
                num_elements: n,
                load: LoadModel::Uniform { lo: 1, hi: k },
                weights: WeightModel::Zipf { exponent: skew },
                capacities: CapacityModel::Uniform { lo: 1, hi: k },
            }),
            1 => ScenarioSpec::Biregular {
                num_sets: m,
                set_size: k,
                load: interval,
            },
            2 => ScenarioSpec::FixedSize {
                num_sets: m,
                set_size: k,
                num_elements: n,
                skew,
            },
            _ => ScenarioSpec::VideoTrace {
                sources: m,
                frames_per_source: n,
                frame_interval: interval,
                capacity: k,
                jitter: interval - 1,
            },
        })
}

fn job_spec() -> impl Strategy<Value = JobSpec> {
    (scenario_spec(), algorithm_spec(), proptest::any::<u64>()).prop_map(
        |(scenario, algorithm, seed)| JobSpec {
            scenario,
            algorithm,
            seed,
        },
    )
}

/// A structurally valid decision log built from per-arrival slices.
fn decision_log() -> impl Strategy<Value = DecisionLog> {
    proptest::collection::vec(proptest::collection::vec(0u32..256, 0..5), 0..32).prop_map(
        |decisions| {
            let mut offsets = vec![0u32];
            let mut data: Vec<SetId> = Vec::new();
            for d in &decisions {
                data.extend(d.iter().copied().map(SetId));
                offsets.push(data.len() as u32);
            }
            DecisionLog::from_parts(offsets, data).expect("constructed valid")
        },
    )
}

fn outcome() -> impl Strategy<Value = Outcome> {
    (
        proptest::collection::vec(0u32..1024, 0..24),
        -1e12f64..1e12,
        decision_log(),
        proptest::collection::vec(proptest::arbitrary::any::<bool>(), 0..64),
    )
        .prop_map(|(completed, benefit, log, deaths)| {
            let mut ids: Vec<SetId> = completed.into_iter().map(SetId).collect();
            ids.sort_unstable();
            ids.dedup();
            let died_at: Vec<Option<ElementId>> = deaths
                .into_iter()
                .enumerate()
                .map(|(i, dead)| dead.then_some(ElementId(i as u32)))
                .collect();
            Outcome::from_parts(
                ids,
                benefit,
                log.digest(),
                log.len() as u64,
                log.total_assignments() as u64,
                died_at,
            )
            .expect("constructed valid")
        })
}

// --- Properties -----------------------------------------------------------

proptest! {
    #[test]
    fn job_specs_round_trip(job in job_spec()) {
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, job);
    }

    #[test]
    fn outcomes_round_trip_bit_for_bit(want in outcome()) {
        let json = serde_json::to_string(&want).unwrap();
        let back: Outcome = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.completed(), want.completed());
        prop_assert_eq!(back.benefit().to_bits(), want.benefit().to_bits());
        prop_assert_eq!(back.digest(), want.digest());
        prop_assert_eq!(back.arrivals(), want.arrivals());
        prop_assert_eq!(back.assignments(), want.assignments());
        prop_assert_eq!(&back, &want);
    }

    #[test]
    fn pre_digest_outcomes_decode_by_folding_their_log(log in decision_log(), benefit in -1e3f64..1e3) {
        // The outcome shape of wire v3 and earlier: the full log, no digest.
        let legacy = format!(
            r#"{{"completed":[],"benefit":{},"decisions":{},"died_at":[]}}"#,
            serde_json::to_string(&benefit).unwrap(),
            serde_json::to_string(&log).unwrap(),
        );
        let back: Outcome = serde_json::from_str(&legacy).unwrap();
        prop_assert_eq!(back.digest(), log.digest());
        prop_assert_eq!(back.arrivals(), log.len() as u64);
        prop_assert_eq!(back.assignments(), log.total_assignments() as u64);
        prop_assert_eq!(back.benefit().to_bits(), benefit.to_bits());
    }

    #[test]
    fn decision_logs_round_trip(want in decision_log()) {
        let json = serde_json::to_string(&want).unwrap();
        let back: DecisionLog = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &want);
        // The CSR views agree slice by slice.
        for (a, b) in want.iter().zip(back.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn framed_messages_round_trip_through_a_stream(jobs in proptest::collection::vec(job_spec(), 0..8)) {
        let mut buf = Vec::new();
        for job in &jobs {
            write_message(&mut buf, job).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for want in &jobs {
            let got: JobSpec = read_message(&mut cursor).unwrap().expect("frame per job");
            prop_assert_eq!(&got, want);
        }
        prop_assert!(read_message::<_, JobSpec>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_error_cleanly(job in job_spec(), cut in 0usize..2048) {
        let mut buf = Vec::new();
        write_message(&mut buf, &job).unwrap();
        let cut = cut % buf.len().max(1);
        buf.truncate(cut);
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor) {
            // Nothing left at a frame boundary: clean end of stream.
            Ok(None) => prop_assert_eq!(cut, 0),
            // Any partial frame must be a protocol error, never a panic.
            Err(Error::Protocol(_)) => {}
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_reader(bytes in proptest::collection::vec(proptest::any::<u8>(), 0..512)) {
        // Whatever the bytes, the read path must answer with Ok or a
        // clean protocol error — and must not read past a declared
        // frame into unbounded memory (the length cap).
        let mut cursor = Cursor::new(bytes);
        loop {
            match read_message::<_, JobSpec>(&mut cursor) {
                Ok(Some(_)) => continue, // astronomically unlikely, but legal
                Ok(None) => break,
                Err(Error::Protocol(_)) => break,
                Err(other) => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn malformed_decision_log_parts_are_rejected(
        offsets in proptest::collection::vec(0u32..64, 0..8),
        data_len in 0usize..64,
    ) {
        let data: Vec<SetId> = (0..data_len as u32).map(SetId).collect();
        let valid = offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last() == Some(&(data_len as u32));
        let result = DecisionLog::from_parts(offsets, data);
        prop_assert_eq!(result.is_ok(), valid);
        if let Err(e) = result {
            prop_assert!(matches!(e, Error::Protocol(_)));
        }
    }
}

#[test]
fn outcome_frame_size_does_not_depend_on_the_stream_length() {
    // Same set system (m), four times the arrivals: the outcome frame is
    // O(m), so only the death records' element ids may grow a few digits.
    let frame = |n: usize| {
        let job = JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(400, n, 2)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 5,
        };
        let outcome = run_spec(&job, &CoreResolver).unwrap();
        assert_eq!(outcome.arrivals(), n as u64);
        let mut buf = Vec::new();
        write_message(&mut buf, &outcome).unwrap();
        buf.len()
    };
    let (short, long) = (frame(2_000), frame(8_000));
    assert!(
        long < short + short / 4,
        "outcome frame grew with n: {short} B at n=2000, {long} B at n=8000"
    );
}

/// A fixed outcome and its canonical JSON, captured from the codec
/// before its hot paths were rewritten.
fn pinned_outcome() -> (Outcome, &'static str) {
    let log = DecisionLog::from_parts(vec![0, 2, 2, 3], vec![SetId(0), SetId(2), SetId(1)])
        .expect("valid log");
    let outcome = Outcome::from_parts(
        vec![SetId(0), SetId(2)],
        0.1 + 0.2,
        log.digest(),
        log.len() as u64,
        log.total_assignments() as u64,
        vec![None, Some(ElementId(1)), None],
    )
    .expect("valid outcome");
    let outcome_json = concat!(
        r#"{"completed":[0,2],"benefit":0.30000000000000004,"#,
        r#""digest":"5119084f5912a3174deacdbdf83b1046","#,
        r#""arrivals":3,"assignments":3,"died_at":[null,1,null]}"#,
    );
    (outcome, outcome_json)
}

/// The pinned reply's error slot: quotes, control characters and
/// non-ASCII text, all of which the codec escapes or copies.
const PINNED_ERR: &str = "spec \"x\"\n\tfailed: σ≥1 \u{1}";

/// The exact `Fetch` reply bytes for pending, ok (the pinned outcome)
/// and err ([`PINNED_ERR`]) slots.
fn pinned_reply_json(outcome_json: &str) -> String {
    format!(
        r#"{{"results":[{{"pending":true}},{{"ok":{outcome_json}}},{{"err":"spec \"x\"\n\tfailed: σ≥1 \u0001"}}]}}"#
    )
}

/// Known answers from the codec as it was before its hot paths were
/// rewritten. The cache key (`job_digest` hashes the spec's JSON), the
/// journal record and the served bytes must not move by one byte.
#[test]
fn cache_keys_and_served_bytes_are_pinned() {
    use osp::core::serve::ServeReply;
    use osp::core::{derive_seed, job_digest, JobResult};

    let served = JobSpec {
        scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(8_000, 16_000, 4)),
        algorithm: AlgorithmSpec::RandPr,
        seed: derive_seed(1, 0),
    };
    let skewed = JobSpec {
        scenario: ScenarioSpec::FixedSize {
            num_sets: 50,
            set_size: 4,
            num_elements: 120,
            skew: 1.2,
        },
        algorithm: AlgorithmSpec::HashRandPr { independence: 16 },
        seed: u64::MAX,
    };
    assert_eq!(
        job_digest(&served).unwrap(),
        (0x46f3_d323_b2b9_de02, 0x84d5_107b_e0c4_7173)
    );
    assert_eq!(
        job_digest(&skewed).unwrap(),
        (0xad0d_9d85_c4a6_1bae, 0x2670_746f_819a_81fb)
    );

    let (outcome, outcome_json) = pinned_outcome();
    assert_eq!(serde_json::to_string(&outcome).unwrap(), outcome_json);
    let reply = ServeReply::Results(vec![
        JobResult::Pending,
        JobResult::Ok(outcome),
        JobResult::Err(PINNED_ERR.to_string()),
    ]);
    let reply_json = pinned_reply_json(outcome_json);
    assert_eq!(serde_json::to_string(&reply).unwrap(), reply_json);
    // A frame is the length prefix, then exactly those bytes.
    let mut frame = Vec::new();
    write_message(&mut frame, &reply).unwrap();
    assert_eq!(frame[..4], (reply_json.len() as u32).to_le_bytes());
    assert_eq!(&frame[4..], reply_json.as_bytes());
}

/// `osp-serve` answers `Fetch` by splicing each outcome's stored bytes
/// into the reply frame. That frame must be exactly the pinned reply.
#[test]
fn spliced_fetch_frames_match_the_pinned_reply_bytes() {
    use osp::core::{write_results, JobResult, OutcomeJson};

    let (outcome, outcome_json) = pinned_outcome();
    let stored = OutcomeJson::encode(&outcome).unwrap();
    assert_eq!(stored.as_bytes(), outcome_json.as_bytes());
    let mut frame = Vec::new();
    write_results(
        &mut frame,
        &[
            JobResult::Pending,
            JobResult::Ok(stored),
            JobResult::Err(PINNED_ERR.to_string()),
        ],
    )
    .unwrap();
    let reply_json = pinned_reply_json(outcome_json);
    assert_eq!(frame[..4], (reply_json.len() as u32).to_le_bytes());
    assert_eq!(&frame[4..], reply_json.as_bytes());
    // An empty batch is an empty list.
    let mut frame = Vec::new();
    write_results(&mut frame, &[]).unwrap();
    assert_eq!(&frame[4..], br#"{"results":[]}"#);
}

#[test]
fn oversized_frame_declaration_is_rejected_without_allocating() {
    // A garbage length prefix claiming 4 GiB must fail fast.
    let mut bytes = 0xFFFF_FF00u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(b"tiny");
    assert!(matches!(
        read_frame(&mut Cursor::new(bytes)),
        Err(Error::Protocol(_))
    ));
    // And the writer refuses to produce such a frame in the first place.
    let huge = vec![0u8; osp::core::wire::MAX_FRAME_LEN + 1];
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &huge),
        Err(Error::Protocol(_))
    ));
    assert!(sink.is_empty());
}
