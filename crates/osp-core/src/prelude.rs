//! Convenience re-exports of the most frequently used items.
//!
//! ```
//! use osp_core::prelude::*;
//! let _ = InstanceBuilder::new();
//! ```

pub use crate::algorithm::{EngineView, OnlineAlgorithm};
pub use crate::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
pub use crate::engine::batch::{derive_seed, ReplayPool, ReplayScratch};
pub use crate::engine::dispatch::{derived_jobs, Dispatcher, ProcessPool, SpecPool};
pub use crate::engine::{
    run, run_source, run_source_logged, run_source_pipelined, run_source_with_scratch,
    DecisionDigest, DecisionLog, Outcome, Session,
};
pub use crate::error::Error;
pub use crate::ids::{ElementId, SetId};
pub use crate::instance::{Arrival, Arrivals, Instance, InstanceBuilder, SetMeta};
pub use crate::source::{ArrivalSource, InstanceSource};
pub use crate::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec, SpecResolver};
pub use crate::stats::InstanceStats;
