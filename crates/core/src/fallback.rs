//! BB→conventional fallback boot: the deployment safety net.
//!
//! The paper's §3.4 deployment discussion is blunt about the risk of an
//! aggressive boot path: a consumer-electronics device that fails to
//! boot is a brick in a living room. The mitigation shipped on the TVs
//! is a *supervised* fast path — if the BB-shaped boot misses its
//! deadline or a supervised unit exhausts its start limit, the firmware
//! falls back to the conventional boot shape, which trades speed for
//! the battle-tested plan. [`BootRequest::fallback`] reproduces that
//! supervisor:
//!
//! 1. run the pass-transformed (BB) plan with an optional
//!    [`bb_sim::FaultPlan`] installed;
//! 2. judge the attempt against a [`FallbackPolicy`];
//! 3. on failure, re-plan the *same* scenario in conventional shape
//!    (no BB pass applied) and boot again, fault-free — the transient
//!    faults the plan models (crash-on-start, flaky I/O) do not
//!    survive the implicit reboot, which is exactly why the fallback
//!    is trusted;
//! 4. record a [`DegradedBoot`] next to the abandoned attempt, so a
//!    chaos sweep can price the degraded path rather than just count
//!    it.
//!
//! [`BootRequest::fallback`]: crate::booster::BootRequest::fallback

use std::sync::Arc;

use bb_sim::{FaultTargets, SimDuration, SimTime};

use crate::booster::{FullBootReport, Scenario};

/// When the boot supervisor declares the fast path failed.
#[derive(Debug, Clone, Copy)]
pub struct FallbackPolicy {
    /// Hard deadline for the BB-shaped boot. If the completion
    /// definition is not met by this time (or at all), the supervisor
    /// reboots into the conventional shape.
    pub deadline: SimDuration,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        // Generous relative to the paper's 8.1 s conventional boot: the
        // fallback should fire on genuinely wedged boots, not slow ones.
        FallbackPolicy::with_deadline_ms(15_000)
    }
}

impl FallbackPolicy {
    /// A policy whose deadline is `ms` simulated milliseconds.
    pub fn with_deadline_ms(ms: u64) -> Self {
        FallbackPolicy {
            deadline: SimDuration::from_millis(ms),
        }
    }

    /// Judges a finished attempt: `None` if it met the policy, else why
    /// the supervisor trips and how long it took to notice. A
    /// completed-but-bad boot is noticed at completion (capped at the
    /// deadline), a wedged one only when the deadline expires.
    pub(crate) fn judge(&self, attempt: &FullBootReport) -> Option<(FallbackReason, SimDuration)> {
        let completed = attempt.try_boot_time();
        let limit_hit = attempt
            .boot
            .services
            .iter()
            .find(|(_, r)| r.start_limit_hit);
        let reason = match (limit_hit, completed) {
            (Some((unit, _)), _) => FallbackReason::StartLimitHit {
                unit: unit.as_str().to_string(),
            },
            (None, None) => FallbackReason::Incomplete,
            (None, Some(t)) if t.since(SimTime::ZERO) > self.deadline => {
                FallbackReason::DeadlineExceeded { completed_at: t }
            }
            (None, Some(_)) => return None,
        };
        let detected_after = match completed {
            Some(t) => t.since(SimTime::ZERO).min(self.deadline),
            None => self.deadline,
        };
        Some((reason, detected_after))
    }
}

/// Why the supervisor abandoned the BB-shaped boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// The completion definition was never met (hung dependency chain,
    /// crashed unsupervised unit, …).
    Incomplete,
    /// Completion arrived, but after the policy deadline.
    DeadlineExceeded {
        /// When the BB boot actually completed.
        completed_at: SimTime,
    },
    /// A supervised unit exhausted its `StartLimitBurst=` respawns.
    StartLimitHit {
        /// The unit that hit its start limit.
        unit: String,
    },
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::Incomplete => write!(f, "boot never completed"),
            FallbackReason::DeadlineExceeded { completed_at } => {
                write!(f, "completion at {completed_at} missed the deadline")
            }
            FallbackReason::StartLimitHit { unit } => {
                write!(f, "{unit} exhausted its start limit")
            }
        }
    }
}

/// The conventional rescue of a boot the supervisor abandoned; the
/// abandoned attempt itself stays on [`crate::Boot::report`].
#[derive(Debug)]
pub struct DegradedBoot {
    /// The fault-free conventional re-boot that rescued the device.
    pub rescue: FullBootReport,
    /// What tripped the supervisor.
    pub reason: FallbackReason,
    /// Time the failed attempt burned before the supervisor noticed
    /// (capped at the deadline); the user waits this plus the rescue.
    pub detected_after: SimDuration,
}

/// Overlays supervision settings on every service unit of a scenario:
/// the chaos sweep's way of arming `Restart=` without hand-editing unit
/// sets. Units without an `ExecStart=` (targets, synthetic anchors) are
/// left alone.
pub fn with_supervision(
    scenario: &Scenario,
    restart: bb_init::RestartPolicy,
    restart_sec_ms: u64,
    start_limit_burst: u32,
) -> Scenario {
    let mut s = scenario.clone();
    // The clone shares its units with `scenario`, so this copies them
    // once; the copy no longer matches `scenario`'s unit plan.
    for u in Arc::make_mut(&mut s.units) {
        if u.exec.exec_start.is_some() {
            u.exec.restart = restart;
            u.exec.restart_sec_ms = restart_sec_ms;
            u.exec.start_limit_burst = start_limit_burst;
        }
    }
    s
}

/// The fault targets a scenario exposes: every unit that actually runs
/// a process, plus the boot storage device.
pub fn fault_targets(scenario: &Scenario) -> FaultTargets {
    FaultTargets {
        processes: scenario
            .units
            .iter()
            .filter(|u| u.exec.exec_start.is_some())
            .map(|u| u.name.as_str().to_string())
            .collect(),
        devices: vec!["boot-storage".to_string()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use crate::booster::{Boot, BootRequest};
    use bb_init::RestartPolicy;
    use bb_sim::{Fault, FaultPlan};

    fn crash(process: &str, hits: u32) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::CrashAtReadiness {
                process: process.into(),
                hits,
            }],
            seed: 0,
        }
    }

    fn supervised(s: &Scenario, faults: &FaultPlan, policy: FallbackPolicy) -> Boot {
        BootRequest::new(s)
            .faults(faults)
            .fallback(policy)
            .run()
            .unwrap()
    }

    #[test]
    fn fault_free_boot_is_not_degraded() {
        let s = mini_tv();
        let out = supervised(&s, &FaultPlan::none(), FallbackPolicy::default());
        assert!(out.degraded.is_none());
        assert_eq!(out.restarts(), 0);
    }

    #[test]
    fn supervised_crash_recovers_without_fallback() {
        // dbus (a BB-group member) crashes once; Restart= respawns it
        // and the boost still completes on the fast path.
        let s = with_supervision(&mini_tv(), RestartPolicy::OnFailure, 50, 3);
        let out = supervised(&s, &crash("dbus.service", 1), FallbackPolicy::default());
        if let Some(d) = &out.degraded {
            panic!("unexpected fallback: {}", d.reason);
        }
        let r = &out.report;
        assert_eq!(r.boot.service("dbus.service").restarts, 1);
        assert_eq!(
            r.boot.service("dbus.service").outcome(),
            bb_init::UnitOutcome::Restarted(1)
        );
    }

    #[test]
    fn persistent_bb_group_crash_falls_back_to_conventional() {
        // The demo of the tentpole: a BB-group service that crashes on
        // every attempt bricks the fast path; the supervisor reboots
        // into the conventional shape and the TV still comes up.
        let s = with_supervision(&mini_tv(), RestartPolicy::OnFailure, 50, 2);
        let out = supervised(&s, &crash("dbus.service", 10), FallbackPolicy::default());
        let total_boot = out.user_boot_time().expect("the rescue completes");
        let Some(d) = out.degraded else {
            panic!("persistent crash should degrade the boot");
        };
        assert_eq!(
            d.reason,
            FallbackReason::StartLimitHit {
                unit: "dbus.service".into()
            }
        );
        // Both timelines are present: the abandoned attempt shows the
        // exhausted unit, the fallback completed cleanly.
        assert!(out.report.boot.service("dbus.service").start_limit_hit);
        assert!(out.report.boot.completion_time.is_none());
        assert!(d.rescue.boot.completion_time.is_some());
        assert!(total_boot > d.rescue.boot_time());
    }

    #[test]
    fn unsupervised_crash_on_completion_path_degrades_at_deadline() {
        let s = mini_tv(); // Restart=no everywhere
        let policy = FallbackPolicy {
            deadline: SimDuration::from_millis(12_000),
        };
        let out = supervised(&s, &crash("tuner.service", 1), policy);
        let total_boot = out.user_boot_time().expect("the rescue completes");
        let Some(d) = out.degraded else {
            panic!("crashed completion dependency should degrade");
        };
        assert_eq!(d.reason, FallbackReason::Incomplete);
        // Wedged boots are only detected at the deadline.
        assert_eq!(
            total_boot,
            d.rescue.boot_time() + policy.deadline,
            "detection should cost the full deadline"
        );
    }

    #[test]
    fn fault_targets_cover_running_units_and_storage() {
        let t = fault_targets(&mini_tv());
        assert!(t.processes.contains(&"dbus.service".to_string()));
        assert!(!t.processes.contains(&"tv-boot.target".to_string()));
        assert_eq!(t.devices, ["boot-storage"]);
    }
}
