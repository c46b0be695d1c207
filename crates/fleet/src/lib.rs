//! # bb-fleet — boot-simulation sweep engine and fleet service
//!
//! The evaluation sections of the paper (and this repo's EXPERIMENTS.md)
//! are built from *sweeps*: thousands of independent boot simulations
//! across seeds, workload parameters, machine profiles, and
//! [`bb_core::BbConfig`] feature sets. Serially those dominate
//! experiment turnaround; bb-fleet executes them on a persistent
//! work-queue service while keeping the one property the experiments
//! depend on — **deterministic output**.
//!
//! * [`spec`] — [`SweepSpec`]: a grid of cells, each a scenario source
//!   × seed list × config list, with optional fault-plan, corruption,
//!   [`Supervision`], and fallback axes. One job boots every config of
//!   one `(cell, plan, corruption, seed)` instance, sharing one
//!   generated scenario and one [`bb_core::PreParser`] measurement
//!   across the config axis.
//! * [`service`] — [`FleetService`]: the persistent executor. Long-lived
//!   workers, a central bounded work queue with per-client round-robin
//!   fairness, `submit`/`poll`/`wait`/`cancel` tickets, per-client
//!   quotas, and one service-wide [`FleetCache`] every ticket shares.
//!   This is what `bbsim serve` runs.
//! * [`pool`] — the one-shot entry point [`run_sweep`] (a thin client
//!   that runs a single ticket on a private service), the one job
//!   runner (every config one [`bb_core::BootRequest`]; supervised
//!   cells add the job's fault plan, staged artifact read, and fallback
//!   supervisor), plus the shared [`FleetCache`] plain cells use —
//!   deduplicated boot outcomes ([`SweepSpec::dedup`]), compiled boot
//!   plans ([`bb_core::PlanCache`]), and service-wide kernel
//!   checkpoints ([`SweepSpec::fork`]); scenarios are memoized per
//!   ticket. Per-job
//!   panic isolation, per-job wall-clock deadlines, a failed-job report
//!   path, and observability counters ([`PoolStats`]).
//! * [`aggregate`] — the streaming [`Aggregator`]: consumes results in
//!   arrival order into `(cell, plan, corruption, seed)`-addressed
//!   slots, finalizes in slot order.
//!   Count/mean/stddev/min/max and nearest-rank p50/p95/p99 per
//!   (cell, config), savings vs the cell's `"conventional"` config,
//!   baseline-comparison mode against a saved report (schema
//!   `bb-fleet-v1`), and — when [`SweepSpec::with_metrics`] is on —
//!   per-span telemetry percentiles as a [`MetricsReport`]
//!   (`bb-metrics-v1`).
//! * [`json`] — the hand-rolled JSON codec (same auditable-codec policy
//!   as `bb-init::preparse`; DESIGN.md §4 keeps serde out) plus the
//!   schema constants every emitter stamps its document with via
//!   [`json::open_document`].
//! * [`chaos`] — [`run_chaos`] and the chaos view of a grid's slots:
//!   recovery rate, restart counts, degraded-boot rate, artifact
//!   rejection rates, recovery-cost percentiles, and
//!   boot-time-under-fault percentiles per `(cell, plan, corruption,
//!   config)` (schema `bb-fleet-chaos-v2`). A chaos grid is an ordinary
//!   [`SweepSpec`] submitted as [`WorkItem::Chaos`]; the variant only
//!   picks the report view.
//!
//! The aggregated report — including its JSON serialization — is
//! byte-identical for any worker count, any cache state, and any
//! interleaving of concurrent clients: results land in slots addressed
//! by `(cell, plan, corruption, seed)`, statistics are computed in slot order at
//! finalize, and nothing host-time-dependent (worker timings, queue
//! depths) enters the report. Pool observability lives separately in
//! [`PoolStats`] and [`ServiceStats`].
//!
//! ```
//! use bb_fleet::{CellSpec, FleetCache, PoolConfig, SweepSpec, run_sweep};
//! use bb_workloads::{profiles, TizenParams};
//!
//! let spec = SweepSpec::new().cell(
//!     CellSpec::tizen(
//!         "open-source",
//!         profiles::ue48h6200(),
//!         TizenParams { services: 24, ..TizenParams::open_source() },
//!     )
//!     .seeds(0..4)
//!     .conventional_vs_bb(),
//! );
//! let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
//! assert_eq!(outcome.report.total_boots, 8);
//! println!("{}", outcome.report.summary());
//! println!("{}", outcome.stats.summary());
//! ```

pub mod aggregate;
pub mod chaos;
pub mod json;
pub mod pool;
pub mod service;
pub mod spec;

pub use aggregate::{
    diff_baseline_json, Aggregator, CellMetrics, CellReport, ConfigMetrics, ConfigStats, DiffEntry,
    DiffVerdict, FailureReport, MetricsReport, SpanStats, SweepReport,
};
pub use chaos::{run_chaos, ChaosConfigStats, ChaosEvent, ChaosOutcome, ChaosReport};
pub use json::{parse as parse_json, Json, JsonError};
pub use pool::{
    run_sweep, BootSample, FailureKind, FleetCache, JobFailure, JobOutput, PoolConfig, PoolStats,
    SweepOutcome, WorkerStats,
};
pub use service::{
    ClientId, FleetService, ServiceConfig, ServiceReport, ServiceStats, SubmitError, TicketId,
    TicketStatus, WaitError, WorkItem,
};
pub use spec::{CellSpec, Job, ScenarioSource, Supervision, SweepSpec};
