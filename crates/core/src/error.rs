//! The workspace error hierarchy: one type for every way a boot (or a
//! fleet of boots) can fail.
//!
//! [`Error`] covers plan assembly and fleet jobs, with
//! [`std::error::Error`] `source()` chains; [`JobError`] is the
//! per-job failure of a fleet sweep, re-exported as
//! `bb_fleet::FailureKind`. A supervised boot that falls back is not an
//! error: the rescue lands on [`crate::Boot::degraded`].

use std::time::Duration;

use bb_init::{GraphError, TransactionError};

/// Any failure from assembling, booting, supervising, or sweeping a
/// scenario.
#[derive(Debug)]
pub enum Error {
    /// The unit set is malformed.
    Graph(GraphError),
    /// The transaction could not be built.
    Transaction(TransactionError),
    /// A fleet job failed (see `bb_fleet`).
    Job(JobError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Graph(e) => write!(f, "unit graph error: {e}"),
            Error::Transaction(e) => write!(f, "transaction error: {e}"),
            Error::Job(e) => write!(f, "job failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            Error::Transaction(e) => Some(e),
            Error::Job(e) => Some(e),
        }
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<TransactionError> for Error {
    fn from(e: TransactionError) -> Self {
        Error::Transaction(e)
    }
}

impl From<JobError> for Error {
    fn from(e: JobError) -> Self {
        Error::Job(e)
    }
}

/// Why a fleet job produced no samples (re-exported by `bb_fleet` as
/// `FailureKind`).
#[derive(Debug, Clone)]
pub enum JobError {
    /// The job panicked; the payload message is attached.
    Panic(String),
    /// The scenario failed to assemble (graph/transaction error).
    Boost(String),
    /// A boot ran to machine quiescence without ever meeting the
    /// completion definition (a hung boot). Carries the config label
    /// that hung.
    Incomplete {
        /// Label of the config whose boot never completed.
        config: String,
    },
    /// The job finished but blew its wall-clock deadline.
    DeadlineExceeded {
        /// How long the job actually took.
        elapsed: Duration,
    },
    /// A chaos boot fell back to the conventional shape (the boot
    /// supervisor tripped). Reported as a notable event, not a lost
    /// sample: the degraded boot time still aggregates.
    Degraded {
        /// Label of the config whose boot degraded.
        config: String,
    },
    /// A chaos boot crashed but supervision respawned the unit(s) and
    /// the fast path still completed. Also a notable event.
    FaultRecovered {
        /// Label of the config that recovered.
        config: String,
        /// Supervised respawns the recovery took.
        restarts: u32,
    },
    /// A chaos boot's pre-parse blob was rejected by the integrity
    /// chain and the boot recovered without it (see
    /// [`crate::recovery`]). A notable event, not a lost sample.
    ArtifactRejected {
        /// Label of the config whose artifact was rejected.
        config: String,
        /// The recovery's stable one-line description.
        detail: String,
    },
}

impl JobError {
    /// Stable one-line form for reports. Deliberately excludes
    /// wall-clock durations so failure output stays deterministic.
    pub fn reason(&self) -> String {
        match self {
            JobError::Panic(msg) => format!("panic: {msg}"),
            JobError::Boost(msg) => format!("boost: {msg}"),
            JobError::Incomplete { config } => format!("incomplete boot: {config}"),
            JobError::DeadlineExceeded { .. } => "deadline exceeded".to_owned(),
            JobError::Degraded { config } => format!("degraded boot: {config}"),
            JobError::FaultRecovered { config, restarts } => {
                format!("recovered after {restarts} restart(s): {config}")
            }
            JobError::ArtifactRejected { config, detail } => {
                format!("artifact rejected ({detail}): {config}")
            }
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason())
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_init::UnitName;
    use std::error::Error as _;

    #[test]
    fn display_is_layered_and_sources_chain() {
        let e = Error::Graph(GraphError::DuplicateUnit(UnitName::new("a.service")));
        assert_eq!(e.to_string(), "unit graph error: duplicate unit a.service");
        assert_eq!(
            e.source().expect("chained").to_string(),
            "duplicate unit a.service"
        );

        let e = Error::from(JobError::Incomplete {
            config: "bb".into(),
        });
        assert_eq!(e.to_string(), "job failed: incomplete boot: bb");
        assert_eq!(
            e.source().expect("chained").to_string(),
            "incomplete boot: bb"
        );
    }

    #[test]
    fn job_error_reasons_are_stable() {
        assert_eq!(JobError::Panic("boom".into()).reason(), "panic: boom");
        assert_eq!(
            JobError::DeadlineExceeded {
                elapsed: Duration::from_secs(9)
            }
            .reason(),
            "deadline exceeded"
        );
        assert_eq!(
            JobError::FaultRecovered {
                config: "bb".into(),
                restarts: 2
            }
            .reason(),
            "recovered after 2 restart(s): bb"
        );
    }
}
