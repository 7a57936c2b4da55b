//! # osp-core — the online set packing problem, engine and algorithms
//!
//! This crate implements the model of *"Online Set Packing and Competitive
//! Scheduling of Multi-Part Tasks"* (Emek, Halldórsson, Mansour, Patt-Shamir,
//! Radhakrishnan, Rawitz — PODC 2010):
//!
//! * the **problem model** — a weighted set system whose elements arrive
//!   online, each announcing its capacity and the sets containing it
//!   ([`Instance`], [`InstanceBuilder`]);
//! * the **online engine** — drives an [`OnlineAlgorithm`] over an instance,
//!   enforcing the capacity constraint and tracking which sets survive
//!   ([`engine::run`], [`Outcome`]);
//! * the paper's **algorithm `randPr`** ([`algorithms::RandPr`]) with its
//!   priority distribution `R_w` ([`priority::Rw`], Eq. (2) of the paper),
//!   the **distributed hash-priority variant** ([`algorithms::HashRandPr`],
//!   §3.1), deterministic greedy baselines and a naive randomized baseline;
//! * **instance statistics** ([`stats::InstanceStats`]) and the
//!   **theoretical bounds** of every theorem ([`bounds`]);
//! * seeded **random instance generators** ([`gen`]) for the upper-bound
//!   experiments.
//!
//! # Example
//!
//! ```
//! use osp_core::prelude::*;
//!
//! // Two frames of two packets each, colliding in the middle slot.
//! let mut b = InstanceBuilder::new();
//! let s0 = b.add_set(1.0, 2);
//! let s1 = b.add_set(1.0, 2);
//! b.add_element(1, &[s0]);
//! b.add_element(1, &[s0, s1]); // burst: only one can be served
//! b.add_element(1, &[s1]);
//! let instance = b.build()?;
//!
//! let mut alg = RandPr::from_seed(1);
//! let outcome = run(&instance, &mut alg)?;
//! assert_eq!(outcome.completed().len(), 1); // exactly one frame survives
//! # Ok::<(), osp_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod algorithms;
pub mod bounds;
pub mod engine;
mod error;
pub mod gen;
mod ids;
mod instance;
pub mod prelude;
pub mod priority;
pub mod serve;
pub mod source;
pub mod spec;
pub mod stats;
pub mod store;
pub mod wire;

pub use algorithm::{EngineView, OnlineAlgorithm};
pub use engine::batch::{
    derive_seed, env_parallelism, ReplayJob, ReplayPool, ReplayScratch, SourceJob,
};
pub use engine::dispatch::{
    derived_jobs, spawn_listening, worker_binary, DispatchChoice, DispatchEvent, Dispatcher,
    EventSink, FleetHandle, FleetReport, LaneReport, ProcessPool, RejoinPolicy, RetryPolicy,
    SocketConfig, SocketPool, SpecPool, StderrSink,
};
pub use engine::{
    run, run_parallel, run_source, run_source_logged, run_source_parallel, run_source_pipelined,
    run_source_with_scratch, run_with_scratch, DecisionDigest, DecisionLog, Outcome, Session,
};
pub use error::{Error, WorkerError};
pub use ids::{ElementId, SetId};
pub use instance::{Arrival, Arrivals, Instance, InstanceBuilder, SetMeta};
pub use serve::{
    job_digest, BatchStatus, FleetCommand, JobResult, ReplayService, ServeClient, ServeServer,
    ServiceConfig,
};
pub use source::{ArrivalSource, FramedSource, InstanceSource, OwnedInstanceSource, SocketSource};
pub use spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec, SpecResolver};
pub use store::{JournalStore, MemStore, ResultStore, StoreLimits};
pub use wire::socket::{SocketServer, WorkerAddr};
pub use wire::FaultPlan;
