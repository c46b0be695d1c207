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
        BbConfig::from_bits(0)
    }

    /// Everything on: the full Booting Booster.
    pub const fn full() -> Self {
        BbConfig::from_bits(0x7f)
    }

    /// Number of active features (for ablation reports).
    pub fn active_features(&self) -> usize {
        self.bits().count_ones() as usize
    }

    /// The full configuration packed into one byte, one bit per
    /// feature, bit `i` for [`BbConfig::FEATURE_NAMES`]`[i]` — the
    /// compact hash [`crate::PlanCache`] and the fleet's dedup keys
    /// use. Two configs are equal iff their bits are equal.
    pub fn bits(&self) -> u8 {
        (self.rcu_booster as u8)
            | (self.defer_memory as u8) << 1
            | (self.ondemand_modularizer as u8) << 2
            | (self.defer_journal as u8) << 3
            | (self.deferred_executor as u8) << 4
            | (self.preparser as u8) << 5
            | (self.bb_group as u8) << 6
    }

    /// The configuration whose [`BbConfig::bits`] are `bits`: the
    /// inverse of `bits()`. Bit 7 names no feature and is ignored.
    pub const fn from_bits(bits: u8) -> Self {
        BbConfig {
            rcu_booster: bits & 1 != 0,
            defer_memory: bits & (1 << 1) != 0,
            ondemand_modularizer: bits & (1 << 2) != 0,
            defer_journal: bits & (1 << 3) != 0,
            deferred_executor: bits & (1 << 4) != 0,
            preparser: bits & (1 << 5) != 0,
            bb_group: bits & (1 << 6) != 0,
        }
    }

    /// Whether a [`crate::BootRequest::run`] under this config reads
    /// the staged [`crate::BootRequest::artifact`]. Only the Pre-parser
    /// loads the build-time unit blob (§3.3); any other boot parses the
    /// unit files, so what the read returns, damaged or not, cannot
    /// change it, and the fleet shares its outcome across a ticket's
    /// corruption slots.
    pub fn reads_artifact(&self) -> bool {
        self.preparser
    }

    /// The BB features' CLI/wire names, in `bits()` order: the one
    /// list of them, from which every other feature list is derived.
    /// `"all"`, `"full"`, `"none"`, `"conventional"`, and
    /// comma-separated subsets of these are what
    /// [`BbConfig::from_feature_list`] accepts.
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
        let mut bits = 0;
        for feature in spec.split(',') {
            let feature = feature.trim();
            let Some(i) = Self::FEATURE_NAMES.iter().position(|&n| n == feature) else {
                return Err(format!(
                    "unknown feature {feature:?} (expected all, none, or a comma-separated \
                     subset of {})",
                    Self::FEATURE_NAMES.join(",")
                ));
            };
            bits |= 1 << i;
        }
        Ok(BbConfig::from_bits(bits))
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
        BbConfig::conventional().each_feature_flipped()
    }

    /// All leave-one-out configurations, as `(dropped feature, config)` —
    /// the full BB with exactly one mechanism disabled.
    pub fn leave_one_out_configs() -> Vec<(&'static str, BbConfig)> {
        BbConfig::full().each_feature_flipped()
    }

    /// This configuration with one feature flipped, for each feature
    /// in `bits()` order, named by its [`BbConfig::FEATURE_NAMES`] entry.
    fn each_feature_flipped(self) -> Vec<(&'static str, BbConfig)> {
        let bits = self.bits();
        (0..)
            .zip(Self::FEATURE_NAMES)
            .map(|(i, name)| (name, BbConfig::from_bits(bits ^ (1 << i))))
            .collect()
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
        // `from_bits` inverts `bits` on all 128 patterns, so two configs
        // are equal iff their bits are.
        for bits in 0..=0x7f {
            assert_eq!(BbConfig::from_bits(bits).bits(), bits);
            assert_eq!(
                BbConfig::from_bits(bits | 0x80),
                BbConfig::from_bits(bits),
                "bit 7 is ignored"
            );
        }
        assert_eq!(BbConfig::full().bits(), 0x7f);
    }

    #[test]
    fn ablation_sets_cover_every_feature_once() {
        let singles = BbConfig::single_feature_configs();
        let loo = BbConfig::leave_one_out_configs();
        assert!(singles.iter().map(|(n, _)| *n).eq(BbConfig::FEATURE_NAMES));
        assert!(loo.iter().map(|(n, _)| *n).eq(BbConfig::FEATURE_NAMES));
        for ((name, single), (_, dropped)) in singles.iter().zip(&loo) {
            assert_eq!(BbConfig::from_feature_list(name), Ok(*single));
            assert_eq!(single.active_features(), 1, "{name}");
            assert_eq!(single.bits() ^ dropped.bits(), 0x7f, "{name} is dropped");
        }
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
