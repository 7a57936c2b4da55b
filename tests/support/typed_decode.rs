//! Differential check of the two decode paths, shared by the test
//! binaries that include this file via `#[path]`.
//!
//! `serde_json::from_slice::<T>` reads `T` straight from the bytes
//! (`Deserialize::read_json`). The tree path parses a `serde::Value` and
//! converts it with `T::from_value`. On any input both must give the same
//! value, or both must fail. [`perturb`] makes inputs that probe the
//! rules the typed readers re-implement: key order, whitespace, unknown
//! and duplicate keys, variant precedence, the legacy outcome shape, out
//! of range numbers and cut-off input.

use std::fmt::Debug;

use osp::core::engine::{DecisionDigest, DecisionLog};
use osp::core::serve::{BatchStatus, ServeReply};
use osp::core::wire::{reply, Hello, Pong, ServerFrame};
use osp::core::{ElementId, JobResult, Outcome, SetId};
use serde::{Deserialize, Value};

/// `Ok` if the typed and the tree path agree on `bytes` for `T`.
fn agree<T: Deserialize + PartialEq + Debug>(bytes: &[u8]) -> Result<(), String> {
    let typed = serde_json::from_slice::<T>(bytes);
    let tree = serde_json::from_slice::<Value>(bytes).and_then(|v| T::from_value(&v));
    match (typed, tree) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (typed, tree) => Err(format!(
            "{} on {:?}: typed {typed:?}, tree {tree:?}",
            std::any::type_name::<T>(),
            String::from_utf8_lossy(bytes)
        )),
    }
}

/// Checks every type an outcome is decoded as on its way between
/// processes, plus the scalars and containers they are built from.
pub fn typed_matches_tree(bytes: &[u8]) -> Result<(), String> {
    agree::<Outcome>(bytes)?;
    agree::<ServeReply>(bytes)?;
    agree::<JobResult>(bytes)?;
    agree::<Vec<JobResult>>(bytes)?;
    agree::<reply::Reply>(bytes)?;
    agree::<ServerFrame>(bytes)?;
    agree::<DecisionDigest>(bytes)?;
    agree::<DecisionLog>(bytes)?;
    agree::<BatchStatus>(bytes)?;
    agree::<Hello>(bytes)?;
    agree::<Pong>(bytes)?;
    agree::<Vec<Option<ElementId>>>(bytes)?;
    agree::<Vec<SetId>>(bytes)?;
    agree::<Option<u64>>(bytes)?;
    agree::<Vec<u8>>(bytes)?;
    agree::<i32>(bytes)?;
    agree::<f64>(bytes)?;
    agree::<bool>(bytes)?;
    agree::<String>(bytes)?;
    agree::<Value>(bytes)
}

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

/// Keys that are, or nearly are, the ones the readers look for.
const KEYS: &[&str] = &[
    "completed",
    "benefit",
    "digest",
    "arrivals",
    "assignments",
    "decisions",
    "died_at",
    "ok",
    "err",
    "pending",
    "results",
    "batch",
    "bye",
    "busy",
    "pong",
    "offsets",
    "data",
    "Completed",
    "died",
    "",
];

/// A value to put where a field's value was or to add under a key.
fn junk(rng: &mut Rng, depth: u32) -> Value {
    match rng.below(if depth >= 2 { 9 } else { 11 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(2)),
        2 => Value::U64(rng.pick(&[0, 1, 255, 256, 4_294_967_295, 4_294_967_296, u64::MAX])),
        3 => Value::I64(rng.pick(&[-1, -129, i64::MIN])),
        4 => Value::F64(rng.pick(&[0.5, -0.0, 1e300, 3.0])),
        5 => Value::Str(
            rng.pick(&["", "x", "5119084f5912a3174deacdbdf83b1046", "é\n"])
                .into(),
        ),
        6 => Value::Seq(vec![]),
        7 => Value::Seq(vec![Value::Null, Value::U64(rng.below(9) as u64)]),
        8 => Value::Map(vec![]),
        9 => Value::Seq((0..rng.below(4)).map(|_| junk(rng, depth + 1)).collect()),
        _ => Value::Map(
            (0..rng.below(3))
                .map(|_| (rng.pick(KEYS).to_string(), junk(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// Rewrites a tree in place: shuffles, adds, duplicates and replaces
/// object entries and array items, each with a small chance per node.
fn mutate(rng: &mut Rng, value: &mut Value, depth: u32) {
    match value {
        Value::Map(fields) => {
            for (_, v) in fields.iter_mut() {
                mutate(rng, v, depth + 1);
            }
            if rng.chance(3) {
                for i in (1..fields.len()).rev() {
                    fields.swap(i, rng.below(i + 1));
                }
            }
            if rng.chance(4) {
                let at = rng.below(fields.len() + 1);
                let key = rng.pick(KEYS).to_string();
                let v = junk(rng, depth);
                fields.insert(at, (key, v));
            }
            if !fields.is_empty() && rng.chance(4) {
                // A duplicate before or after the original: the first wins.
                let (key, _) = fields[rng.below(fields.len())].clone();
                let v = if rng.chance(2) {
                    junk(rng, depth)
                } else {
                    fields.iter().find(|(k, _)| *k == key).unwrap().1.clone()
                };
                let at = rng.below(fields.len() + 1);
                fields.insert(at, (key, v));
            }
            if !fields.is_empty() && rng.chance(8) {
                let i = rng.below(fields.len());
                fields[i].1 = junk(rng, depth);
            }
            if !fields.is_empty() && rng.chance(12) {
                fields.remove(rng.below(fields.len()));
            }
        }
        Value::Seq(items) => {
            for item in items.iter_mut() {
                if rng.chance(64) {
                    *item = junk(rng, depth);
                } else {
                    mutate(rng, item, depth + 1);
                }
            }
        }
        _ => {}
    }
}

/// Inserts `(key, value)` at a random place among an object's entries.
fn insert_anywhere(rng: &mut Rng, value: &mut Value, key: &str, v: Value) {
    if let Value::Map(fields) = value {
        let at = rng.below(fields.len() + 1);
        fields.insert(at, (key.to_string(), v));
    }
}

/// Reshapes an outcome's optional fields, which the tree path reads only
/// in one shape each: the pre-v4 shape (a log instead of the digest, with
/// or without stray counts), or a stray log beside the digest.
fn reshape_outcome(rng: &mut Rng, outcome: &mut Value) {
    let log = DecisionLog::from_parts(vec![0, 1, 1], vec![SetId(rng.below(3) as u32)])
        .expect("valid log");
    let log = if rng.chance(4) {
        junk(rng, 0)
    } else {
        serde::Serialize::to_value(&log)
    };
    let Value::Map(fields) = outcome else { return };
    if rng.chance(2) {
        fields.retain(|(k, _)| k != "digest");
        for (k, v) in fields.iter_mut() {
            if matches!(k.as_str(), "arrivals" | "assignments") && rng.chance(2) {
                *v = junk(rng, 0);
            }
        }
        if rng.chance(3) {
            fields.retain(|(k, _)| !matches!(k.as_str(), "arrivals" | "assignments"));
        }
    }
    insert_anywhere(rng, outcome, "decisions", log);
}

/// Adds a second variant key with a well-formed value, so which key wins
/// (the earlier one in each reader's precedence list, wherever it sits)
/// decides the value.
fn add_rival_tag(rng: &mut Rng, frame: &mut Value, outcome: Option<&Value>) {
    let (key, v) = match rng.below(10) {
        0 => ("batch", Value::U64(3)),
        1 => ("results", Value::Seq(vec![])),
        2 => ("pending", Value::Bool(true)),
        3 => ("err", Value::Str("rival".into())),
        4 => ("pong", Value::U64(7)),
        5 => ("bye", Value::Bool(true)),
        6 => ("cancelled", Value::Bool(false)),
        7 => ("busy", Value::Str("full".into())),
        8 => ("error", Value::Str("no".into())),
        _ => ("ok", outcome.cloned().unwrap_or(Value::Null)),
    };
    insert_anywhere(rng, frame, key, v);
}

/// Inserts JSON whitespace between every pair of bytes with a small
/// chance. Inside a token this usually breaks the input, which both
/// paths must then reject.
fn sprinkle(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        if rng.chance(6) {
            out.push(rng.pick(b" \t\n\r"));
        }
        out.push(b);
    }
    out
}

/// One frame around `outcomes`, perturbed as `seed` decides.
pub fn perturb(outcomes: &[Outcome], seed: u64) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut slots: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            let mut v = serde::Serialize::to_value(o);
            if rng.chance(3) {
                reshape_outcome(&mut rng, &mut v);
            }
            v
        })
        .collect();
    let first = slots.first().cloned();
    let slot = |key: &str, v: Value| Value::Map(vec![(key.to_string(), v)]);
    let mut frame = match rng.below(6) {
        0 => slots.pop().unwrap_or(Value::Null),
        1 => slot("ok", slots.pop().unwrap_or(Value::Null)),
        2 => slot("pong", Value::U64(rng.next() >> rng.below(64))),
        3 => slot("err", Value::Str("job failed: \"σ\"".into())),
        _ => slot(
            "results",
            Value::Seq(
                slots
                    .into_iter()
                    .map(|v| {
                        let mut item = match rng.below(5) {
                            0 => slot("pending", Value::Bool(true)),
                            1 => slot("err", Value::Str("x".into())),
                            _ => slot("ok", v.clone()),
                        };
                        if rng.chance(4) {
                            add_rival_tag(&mut rng, &mut item, Some(&v));
                        }
                        item
                    })
                    .collect(),
            ),
        ),
    };
    if rng.chance(3) {
        add_rival_tag(&mut rng, &mut frame, first.as_ref());
    }
    if rng.chance(3) {
        mutate(&mut rng, &mut frame, 0);
    }
    let mut bytes = if rng.chance(4) {
        serde_json::to_string_pretty(&frame)
    } else {
        serde_json::to_string(&frame)
    }
    .expect("a tree renders")
    .into_bytes();
    if rng.chance(6) {
        // An escaped key: the typed readers must match it as `ok`.
        if let Some(at) = bytes.windows(4).position(|w| w == b"\"ok\"") {
            bytes.splice(at + 2..at + 3, *b"\\u006b");
        }
    }
    if rng.chance(4) {
        bytes = sprinkle(&mut rng, &bytes);
    }
    if rng.chance(6) {
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    if !bytes.is_empty() && rng.chance(8) {
        let at = rng.below(bytes.len());
        bytes[at] = rng.pick(b"{}[],:\"-0n");
    }
    bytes
}
