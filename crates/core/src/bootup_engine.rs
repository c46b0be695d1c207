//! Boot-up Engine: fast init-scheme initialization and RCU Booster
//! Control (§3.2).
//!
//! Provides the init-phase task table of Figure 6(b) — the six systemd
//! setup tasks BB defers (logging 28 ms, kernel-module setup 28 ms,
//! hostname 13 ms, machine ID 9 ms, loopback 17 ms, test directories
//! 29 ms; 124 ms total) plus residual non-deferrable init work — the
//! service-phase housekeeping the Deferred Executor postpones
//! (Figure 6(c): 496 ms), and the RCU Booster Control process.

use bb_init::ManagerTask;
use bb_sim::{FlagId, Machine, Op, ProcessSpec, RcuMode, SimDuration};

use crate::config::BbConfig;

/// The six Figure 6(b) setup tasks the Deferred Executor may postpone,
/// with their costs in milliseconds.
const DEFERRABLE_INIT_TASKS: [(&str, u64); 6] = [
    ("enable-logging-scheme", 28),
    ("setup-kernel-module", 28),
    ("setup-hostname", 13),
    ("setup-machine-id", 9),
    ("setup-loopback-device", 17),
    ("test-directory", 29),
];

/// Whether `name` is one of the init-phase tasks the Deferred Executor
/// is allowed to postpone (the paper's six; the `init-core` residual
/// and scenario extras are not).
pub fn is_deferrable_init_task(name: &str) -> bool {
    DEFERRABLE_INIT_TASKS.iter().any(|&(n, _)| n == name)
}

/// The Figure 6(b) init-phase tasks. With the Deferred Executor active,
/// the six named setup tasks are deferred past boot completion; the
/// residual (71 ms of work systemd must do either way) always runs.
pub fn init_tasks(cfg: &BbConfig) -> Vec<ManagerTask> {
    let mut tasks = vec![ManagerTask::new("init-core", SimDuration::from_millis(71))];
    for (name, ms) in DEFERRABLE_INIT_TASKS {
        let t = ManagerTask::new(name, SimDuration::from_millis(ms));
        tasks.push(if cfg.deferred_executor {
            t.deferred()
        } else {
            t
        });
    }
    tasks
}

/// Total init-phase time (serial) implied by [`init_tasks`].
#[cfg(test)]
fn init_phase_cost(cfg: &BbConfig) -> SimDuration {
    init_tasks(cfg)
        .iter()
        .filter(|t| !t.deferred)
        .map(|t| t.cost)
        .sum()
}

/// Service-phase housekeeping the Deferred Executor postpones
/// (Figure 6(c)): journal flushing, udev settle bookkeeping, tmpfiles,
/// sysctl application, session bookkeeping — ~496 ms of CPU that
/// conventionally competes with service launching.
pub fn service_phase_tasks(cfg: &BbConfig) -> Vec<ManagerTask> {
    let items = [
        ("journal-flush", 118u64),
        ("udev-settle-bookkeeping", 96),
        ("tmpfiles-setup", 88),
        ("sysctl-apply", 64),
        ("session-bookkeeping", 74),
        ("update-done-check", 56),
    ];
    items
        .iter()
        .map(|&(name, ms)| {
            let t = ManagerTask::new(name, SimDuration::from_millis(ms));
            if cfg.deferred_executor {
                t.deferred()
            } else {
                t
            }
        })
        .collect()
}

/// Installs RCU Booster Control: with `boost` (the
/// [`crate::pipeline::RcuBoosterInstall`] pass's knob), switch the
/// machine to the boosted mode now (systemd's first task) and spawn the
/// control process that reverts to the classic mode at boot completion —
/// after boot there are rarely concurrent synchronizers, where the spin
/// path is cheaper (§4.3).
pub fn install_rcu_booster_control(machine: &mut Machine, boost: bool, boot_complete: FlagId) {
    if !boost {
        machine.set_rcu_mode(RcuMode::ClassicSpin);
        return;
    }
    machine.set_rcu_mode(RcuMode::Boosted);
    machine.spawn(
        ProcessSpec::new(
            "rcu-booster-control",
            vec![
                Op::WaitFlag(boot_complete),
                Op::SetRcuMode(RcuMode::ClassicSpin),
            ],
        )
        .with_nice(-20),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::MachineConfig;

    #[test]
    fn conventional_init_phase_matches_paper_195ms() {
        let cost = init_phase_cost(&BbConfig::conventional());
        assert_eq!(cost.as_millis(), 195);
    }

    #[test]
    fn deferred_init_phase_matches_paper_71ms() {
        let cost = init_phase_cost(&BbConfig::full());
        assert_eq!(cost.as_millis(), 71);
    }

    #[test]
    fn deferred_task_budget_is_124ms() {
        let deferred: SimDuration = init_tasks(&BbConfig::full())
            .iter()
            .filter(|t| t.deferred)
            .map(|t| t.cost)
            .sum();
        assert_eq!(deferred.as_millis(), 124);
    }

    #[test]
    fn service_phase_tasks_sum_to_496ms() {
        let total: SimDuration = service_phase_tasks(&BbConfig::conventional())
            .iter()
            .map(|t| t.cost)
            .sum();
        assert_eq!(total.as_millis(), 496);
        assert!(service_phase_tasks(&BbConfig::conventional())
            .iter()
            .all(|t| !t.deferred));
        assert!(service_phase_tasks(&BbConfig::full())
            .iter()
            .all(|t| t.deferred));
    }

    #[test]
    fn booster_control_toggles_mode() {
        let mut m = Machine::new(MachineConfig::default());
        let gate = m.flag("boot-complete");
        install_rcu_booster_control(&mut m, true, gate);
        assert_eq!(m.rcu_mode(), RcuMode::Boosted);
        m.set_flag_external(gate);
        m.run();
        assert_eq!(m.rcu_mode(), RcuMode::ClassicSpin);
    }

    #[test]
    fn no_booster_means_classic_mode() {
        let mut m = Machine::new(MachineConfig::default());
        let gate = m.flag("boot-complete");
        install_rcu_booster_control(&mut m, false, gate);
        assert_eq!(m.rcu_mode(), RcuMode::ClassicSpin);
        assert_eq!(m.process_count(), 0);
    }
}
