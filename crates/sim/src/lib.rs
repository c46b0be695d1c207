//! # bb-sim — discrete-event machine simulator
//!
//! The substrate underneath the Booting Booster reproduction: a
//! deterministic discrete-event simulation of a multi-core consumer
//! electronics board — CPU cores with a priority scheduler, storage
//! devices with sequential/random bandwidth models, one-shot
//! synchronization flags, and an RCU engine with the paper's two
//! `synchronize_rcu` waiter strategies (spin vs. block).
//!
//! Everything above this crate (the simulated kernel, the init scheme,
//! the Booting Booster itself) expresses work as [`process::Op`] lists
//! executed by a [`machine::Machine`].
//!
//! # Examples
//!
//! ```
//! use bb_sim::machine::{Machine, MachineConfig};
//! use bb_sim::process::{OpsBuilder, ProcessSpec};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let ready = m.flag("db-ready");
//! m.spawn(ProcessSpec::new(
//!     "database",
//!     OpsBuilder::new().compute_ms(5).set_flag(ready).build(),
//! ));
//! m.spawn(ProcessSpec::new(
//!     "webapp",
//!     OpsBuilder::new().wait_flag(ready).compute_ms(2).build(),
//! ));
//! let outcome = m.run();
//! assert_eq!(outcome.end_time.as_millis(), 7);
//! ```

pub mod chrome;
pub mod corrupt;
pub mod event;
pub mod fault;
pub mod ids;
pub mod io;
pub mod machine;
pub mod process;
pub mod rcu;
pub mod snapshot;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use chrome::chrome_trace;
pub use corrupt::{Corruption, CorruptionPlan};
pub use event::{EventKind, EventQueue, EventQueueStats};
pub use fault::{Fault, FaultPlan, FaultTargets};
pub use ids::{CoreId, DeviceId, FlagId, Pid};
pub use io::{Device, DeviceProfile, IoPriority, MIB};
pub use machine::{Machine, MachineBuilder, MachineConfig, RunOutcome, SchedStats};
pub use process::{AccessPattern, Op, OpsBuilder, ProcessSpec};
pub use rcu::{RcuMode, RcuParams, RcuStats};
pub use snapshot::{fnv1a, SnapshotError, SnapshotHeader, FNV1A_OFFSET};
pub use telemetry::{Histogram, MetricsRegistry, Span, Telemetry};
pub use time::{SimDuration, SimTime};
pub use trace::{CoreSpan, ProcessTimeline, Trace, TraceEvent, TraceKind};
