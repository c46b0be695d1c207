//! The Booting Booster's feature switches.
//!
//! Every mechanism of the paper's three engines is independently
//! toggleable, which is what the ablation experiments (and Figure 6's
//! per-feature attribution) are built on.

/// Which BB mechanisms are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbConfig {
    /// Core Engine: RCU Booster — boosted `synchronize_rcu` during boot,
    /// switched back at boot completion by RCU Booster Control (§3.1).
    pub rcu_booster: bool,
    /// Core Engine: initialize only the required memory eagerly, the
    /// rest in the background after boot (§3.1).
    pub defer_memory: bool,
    /// Core Engine: On-demand Modularizer — defer non-critical built-in
    /// kernel component initialization instead of loading external
    /// `.ko` modules during the service phase (§3.1).
    pub ondemand_modularizer: bool,
    /// Boot-up Engine: mount the rootfs read-only and enable the EXT4
    /// journal after boot completion (§3.2).
    pub defer_journal: bool,
    /// Boot-up Engine: Deferred Executor — postpone init-scheme internal
    /// tasks (logging, hostname, machine ID, loopback, test dirs, and
    /// service-phase housekeeping) past boot completion (§3.2).
    pub deferred_executor: bool,
    /// Service Engine: Pre-parser — load a binary unit cache instead of
    /// reading and parsing unit-file text at boot (§3.3).
    pub preparser: bool,
    /// Service Engine: BB Group Isolator + Booting Booster Manager —
    /// identify, isolate, and prioritize booting-critical services
    /// (§3.3).
    pub bb_group: bool,
}

impl BbConfig {
    /// Everything off: the conventional boot.
    pub const fn conventional() -> Self {
        BbConfig {
            rcu_booster: false,
            defer_memory: false,
            ondemand_modularizer: false,
            defer_journal: false,
            deferred_executor: false,
            preparser: false,
            bb_group: false,
        }
    }

    /// Everything on: the full Booting Booster.
    pub const fn full() -> Self {
        BbConfig {
            rcu_booster: true,
            defer_memory: true,
            ondemand_modularizer: true,
            defer_journal: true,
            deferred_executor: true,
            preparser: true,
            bb_group: true,
        }
    }

    /// Number of active features (for ablation reports).
    pub fn active_features(&self) -> usize {
        [
            self.rcu_booster,
            self.defer_memory,
            self.ondemand_modularizer,
            self.defer_journal,
            self.deferred_executor,
            self.preparser,
            self.bb_group,
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }

    /// The full configuration packed into one byte, one bit per
    /// feature — the compact hash [`crate::PlanCache`] and the fleet's
    /// dedup keys use. Two configs are equal iff their bits are equal.
    pub fn bits(&self) -> u8 {
        (self.rcu_booster as u8)
            | (self.defer_memory as u8) << 1
            | (self.ondemand_modularizer as u8) << 2
            | (self.defer_journal as u8) << 3
            | (self.deferred_executor as u8) << 4
            | (self.preparser as u8) << 5
            | (self.bb_group as u8) << 6
    }

    /// The features that shape the boot *prefix* — everything simulated
    /// before the kernel→init handoff (kernel boot, RCU Booster Control
    /// installation, module loading setup). Two configurations with
    /// equal prefix keys produce bit-identical machines at the handoff,
    /// so a checkpoint taken under one can be resumed under the other;
    /// this is what lets a forked fleet sweep simulate the shared
    /// kernel phase once per key instead of once per configuration.
    ///
    /// `deferred_executor`, `preparser`, and `bb_group` act entirely in
    /// the init/service phase and are deliberately excluded.
    pub fn prefix_key(&self) -> (bool, bool, bool, bool) {
        (
            self.rcu_booster,
            self.defer_memory,
            self.ondemand_modularizer,
            self.defer_journal,
        )
    }

    /// The CLI/wire feature names, in `bits()` order. `"all"`, `"full"`,
    /// `"none"`, `"conventional"`, and comma-separated subsets of these
    /// are what [`BbConfig::from_feature_list`] accepts.
    pub const FEATURE_NAMES: [&'static str; 7] = [
        "rcu-booster",
        "defer-memory",
        "modularizer",
        "defer-journal",
        "deferred-executor",
        "preparser",
        "bb-group",
    ];

    /// Parses a feature-list string — the `--features` CLI value and the
    /// fleet wire format's `"features"` field: `"all"`/`"full"` for the
    /// full Booting Booster, `"none"`/`"conventional"` for everything
    /// off, or a comma-separated subset of [`BbConfig::FEATURE_NAMES`].
    pub fn from_feature_list(spec: &str) -> Result<Self, String> {
        match spec {
            "all" | "full" => return Ok(BbConfig::full()),
            "none" | "conventional" => return Ok(BbConfig::conventional()),
            _ => {}
        }
        let mut cfg = BbConfig::conventional();
        for feature in spec.split(',') {
            match feature.trim() {
                "rcu-booster" => cfg.rcu_booster = true,
                "defer-memory" => cfg.defer_memory = true,
                "modularizer" => cfg.ondemand_modularizer = true,
                "defer-journal" => cfg.defer_journal = true,
                "deferred-executor" => cfg.deferred_executor = true,
                "preparser" => cfg.preparser = true,
                "bb-group" => cfg.bb_group = true,
                other => {
                    return Err(format!(
                        "unknown feature {other:?} (expected all, none, or a comma-separated \
                         subset of {})",
                        Self::FEATURE_NAMES.join(",")
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Renders this configuration as a canonical feature-list string
    /// that [`BbConfig::from_feature_list`] round-trips: `"all"`,
    /// `"none"`, or the active subset of [`BbConfig::FEATURE_NAMES`] in
    /// `bits()` order.
    #[cfg(test)]
    fn feature_list(&self) -> String {
        if *self == BbConfig::full() {
            return "all".to_owned();
        }
        if *self == BbConfig::conventional() {
            return "none".to_owned();
        }
        let bits = self.bits();
        let active: Vec<&str> = Self::FEATURE_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, name)| *name)
            .collect();
        active.join(",")
    }

    /// All single-feature configurations, as `(feature name, config)` —
    /// the conventional boot with exactly one mechanism enabled.
    pub fn single_feature_configs() -> Vec<(&'static str, BbConfig)> {
        let base = BbConfig::conventional();
        vec![
            (
                "rcu_booster",
                BbConfig {
                    rcu_booster: true,
                    ..base
                },
            ),
            (
                "defer_memory",
                BbConfig {
                    defer_memory: true,
                    ..base
                },
            ),
            (
                "ondemand_modularizer",
                BbConfig {
                    ondemand_modularizer: true,
                    ..base
                },
            ),
            (
                "defer_journal",
                BbConfig {
                    defer_journal: true,
                    ..base
                },
            ),
            (
                "deferred_executor",
                BbConfig {
                    deferred_executor: true,
                    ..base
                },
            ),
            (
                "preparser",
                BbConfig {
                    preparser: true,
                    ..base
                },
            ),
            (
                "bb_group",
                BbConfig {
                    bb_group: true,
                    ..base
                },
            ),
        ]
    }

    /// All leave-one-out configurations, as `(dropped feature, config)` —
    /// the full BB with exactly one mechanism disabled.
    pub fn leave_one_out_configs() -> Vec<(&'static str, BbConfig)> {
        let full = BbConfig::full();
        vec![
            (
                "rcu_booster",
                BbConfig {
                    rcu_booster: false,
                    ..full
                },
            ),
            (
                "defer_memory",
                BbConfig {
                    defer_memory: false,
                    ..full
                },
            ),
            (
                "ondemand_modularizer",
                BbConfig {
                    ondemand_modularizer: false,
                    ..full
                },
            ),
            (
                "defer_journal",
                BbConfig {
                    defer_journal: false,
                    ..full
                },
            ),
            (
                "deferred_executor",
                BbConfig {
                    deferred_executor: false,
                    ..full
                },
            ),
            (
                "preparser",
                BbConfig {
                    preparser: false,
                    ..full
                },
            ),
            (
                "bb_group",
                BbConfig {
                    bb_group: false,
                    ..full
                },
            ),
        ]
    }
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_has_nothing_full_has_everything() {
        assert_eq!(BbConfig::conventional().active_features(), 0);
        assert_eq!(BbConfig::full().active_features(), 7);
    }

    #[test]
    fn bits_are_a_faithful_config_hash() {
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        let mut all: Vec<BbConfig> = vec![BbConfig::conventional(), BbConfig::full()];
        all.extend(
            BbConfig::single_feature_configs()
                .into_iter()
                .map(|(_, c)| c),
        );
        all.extend(
            BbConfig::leave_one_out_configs()
                .into_iter()
                .map(|(_, c)| c),
        );
        for c in &all {
            assert_eq!(c.bits().count_ones() as usize, c.active_features());
            seen.insert(c.bits());
        }
        // conventional + full + 7 singles + 7 leave-one-outs are all
        // distinct configs, so their bit patterns must be too.
        assert_eq!(seen.len(), all.len());
    }

    #[test]
    fn ablation_sets_cover_every_feature_once() {
        let singles = BbConfig::single_feature_configs();
        assert_eq!(singles.len(), 7);
        assert!(singles.iter().all(|(_, c)| c.active_features() == 1));
        let loo = BbConfig::leave_one_out_configs();
        assert_eq!(loo.len(), 7);
        assert!(loo.iter().all(|(_, c)| c.active_features() == 6));
        // Names are distinct.
        let names: std::collections::BTreeSet<_> = singles.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn feature_lists_round_trip_through_the_wire_rendering() {
        let mut all: Vec<BbConfig> = vec![BbConfig::conventional(), BbConfig::full()];
        all.extend(
            BbConfig::single_feature_configs()
                .into_iter()
                .map(|(_, c)| c),
        );
        all.extend(
            BbConfig::leave_one_out_configs()
                .into_iter()
                .map(|(_, c)| c),
        );
        for c in all {
            let rendered = c.feature_list();
            assert_eq!(
                BbConfig::from_feature_list(&rendered),
                Ok(c),
                "{rendered} must round-trip"
            );
        }
        assert_eq!(BbConfig::full().feature_list(), "all");
        assert_eq!(BbConfig::conventional().feature_list(), "none");
        assert_eq!(
            BbConfig::from_feature_list("full"),
            Ok(BbConfig::full()),
            "historic spelling stays accepted"
        );
        assert!(BbConfig::from_feature_list("warp-drive").is_err());
    }
}
