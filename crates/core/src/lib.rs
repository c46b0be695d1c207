//! # bb-core — the Booting Booster
//!
//! Reproduction of the paper's contribution: the three BB engines that
//! cut a Samsung Tizen TV's cold boot from 8.1 s to 3.5 s (EuroSys 2016).
//!
//! * [`core_engine`] — kernel space: On-demand Modularizer, deferred
//!   memory initialization, RCU Booster installation.
//! * [`bootup_engine`] — init-scheme initialization: the Deferred
//!   Executor's task tables and RCU Booster Control.
//! * [`service_engine`] — BB Group Isolator, Booting Booster Manager
//!   (priorities + dispatch order), Pre-parser, Service Analyzer.
//! * [`pipeline`] — the spine: every mechanism as a [`pipeline::PlanPass`]
//!   over one [`pipeline::BootPlanIr`], with a [`pipeline::PassDelta`]
//!   provenance record per pass.
//! * [`plan_cache`] — sweep-wide sharing of compiled plans: a
//!   [`plan_cache::PlanCache`] hands the same `Arc`'d plan to every
//!   boot of a (scenario, config) pair.
//! * [`booster`] — the single-entry facade: boot a
//!   [`booster::Scenario`] through a [`booster::BootRequest`] and get a
//!   [`booster::Boot`] (report + machine).
//! * [`fallback`] — the boot supervisor's policy: a
//!   [`fallback::FallbackPolicy`] on a `BootRequest` judges the BB
//!   attempt (under an injected [`bb_sim::FaultPlan`]) and falls back to
//!   the conventional shape when the deadline or a start limit trips
//!   (§3.4 deployment safety).
//! * [`recovery`] — artifact integrity & recovery: a
//!   [`recovery::ArtifactRead`] on a `BootRequest` is validated as the
//!   checksummed pre-parse blob, transient reads are retried with
//!   bounded backoff, and the boot goes on without a damaged blob,
//!   pricing every recovery as a [`recovery::RecoveryEvent`].
//! * [`telemetry`] — spans, the metrics snapshot, and the critical-path
//!   profiler over a finished boot.
//! * [`error`] — [`Error`], why a boot plan could not be assembled.
//! * [`report`] — Figure-6-style comparison tables.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for an end-to-end
//! conventional-vs-BB comparison on a small TV scenario.

pub mod booster;
pub mod bootup_engine;
pub mod config;
pub mod core_engine;
pub mod error;
pub mod fallback;
pub mod miner;
pub mod pipeline;
pub mod plan_cache;
pub mod recovery;
pub mod report;
pub mod service_engine;
pub mod telemetry;

pub use booster::{Boot, BootRequest, FullBootReport, Scenario};
pub use config::BbConfig;
pub use error::Error;
pub use fallback::{fault_targets, with_supervision, DegradedBoot, FallbackPolicy, FallbackReason};
pub use miner::{mine, EdgeSlack, MiningReport};
pub use pipeline::{BootPlanIr, PassDelta, Pipeline, PlanPass, UnitPlan, UnitPlanSlot};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use recovery::{
    ArtifactRead, RecoveryAction, RecoveryEvent, RecoveryReason, MAX_ARTIFACT_RETRIES,
};
pub use report::{attribution_table, Comparison, Row};
pub use service_engine::{
    analyze, analyze_directives, identify_bb_group, Finding, ParseCostParams, PreParser,
};
pub use telemetry::{
    boot_spans, critical_path, metrics_snapshot, ordering_edge_slacks, pass_spans, profile,
    BootProfile, CriticalPath, CriticalStep, HistogramSummary, MetricsSnapshot,
};
