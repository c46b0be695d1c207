//! Service Engine: BB Group Isolator, Booting Booster Manager,
//! Pre-parser, and Service Analyzer (§3.3).

use std::collections::BTreeSet;

use bb_init::{encode_units, EdgeKind, LoadModel, Unit, UnitGraph, UnitName};
use bb_sim::{AccessPattern, SimDuration};

// ---------------------------------------------------------------------
// BB Group Isolator + Booting Booster Manager
// ---------------------------------------------------------------------

/// Identifies the BB Group: the boot-critical services spanning from the
/// boot-completion definition (§3.3). Follows strong requirements and
/// self-declared `After=` orderings; foreign declarations are excluded
/// by construction, so developers cannot "play games with the critical
/// path by creating false dependencies".
pub fn identify_bb_group(graph: &UnitGraph, completion: &[UnitName]) -> BTreeSet<usize> {
    let seeds: Vec<usize> = completion
        .iter()
        .map(|n| {
            graph
                .idx(n)
                .unwrap_or_else(|| panic!("completion unit {n} not defined"))
        })
        .collect();
    graph.strong_closure(seeds)
}

/// Nice value the Booting Booster Manager gives BB Group processes.
pub const BB_GROUP_NICE: i8 = -15;

// ---------------------------------------------------------------------
// Pre-parser
// ---------------------------------------------------------------------

/// Cost parameters of configuration loading at boot.
#[derive(Debug, Clone, Copy)]
pub struct ParseCostParams {
    /// CPU per unit *file* opened conventionally (open/fstat/mmap and
    /// directory scanning amortized).
    pub open_cost_per_file: SimDuration,
    /// CPU per byte of unit-file text parsed.
    pub parse_cost_per_byte: SimDuration,
    /// CPU per unit for dependency resolution while parsing.
    pub parse_cost_per_unit: SimDuration,
    /// CPU per unit decoded from the binary cache.
    pub decode_cost_per_unit: SimDuration,
}

impl Default for ParseCostParams {
    /// Calibrated for the UE48H6200's Cortex-A9 so that a ~250-unit
    /// commercial set costs ≈150 ms of loading and ≈231 ms of parsing
    /// conventionally (Figure 6(d)), while the cache loads in
    /// single-digit milliseconds.
    fn default() -> Self {
        ParseCostParams {
            open_cost_per_file: SimDuration::from_micros(520),
            parse_cost_per_byte: SimDuration::from_nanos(650),
            parse_cost_per_unit: SimDuration::from_micros(850),
            decode_cost_per_unit: SimDuration::from_micros(22),
        }
    }
}

/// Pre-computed Pre-parser measurements for a unit set: the byte sizes
/// that drive the boot-time [`LoadModel`], captured once so thousands
/// of boots of the same scenario (a bb-fleet sweep) do not re-render
/// the unit-file text or re-encode the binary cache per boot.
///
/// Built from *real* byte counts: the rendered unit-file text for the
/// conventional path and the actual [`encode_units`] blob for the
/// cached path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreParser {
    /// Number of units in the set.
    pub unit_count: usize,
    /// Total rendered unit-file text size (conventional path).
    pub text_bytes: u64,
    /// Binary unit-cache blob size (pre-parsed path).
    pub blob_bytes: u64,
}

impl PreParser {
    /// Measures `units` once. This is the expensive step a sweep
    /// amortizes across boots.
    ///
    /// The blob's constant integrity envelope (content hash + CRC,
    /// [`bb_init::INTEGRITY_OVERHEAD`]) is excluded from the modelled
    /// cache-load I/O: 12 bytes is below the cost model's resolution,
    /// and excluding it keeps the calibration pins independent of the
    /// envelope's size.
    pub fn build(units: &[Unit]) -> PreParser {
        PreParser {
            unit_count: units.len(),
            text_bytes: units.iter().map(|u| u.to_unit_file().len() as u64).sum(),
            blob_bytes: (encode_units(units).len() - bb_init::INTEGRITY_OVERHEAD) as u64,
        }
    }

    /// Computes the boot-time [`LoadModel`] from the captured sizes.
    pub fn load_model(&self, params: &ParseCostParams, preparsed: bool) -> LoadModel {
        if preparsed {
            LoadModel {
                io_bytes: self.blob_bytes,
                pattern: AccessPattern::Sequential,
                cpu: params.decode_cost_per_unit * self.unit_count as u64,
            }
        } else {
            LoadModel {
                io_bytes: self.text_bytes,
                pattern: AccessPattern::Random,
                cpu: params.open_cost_per_file * self.unit_count as u64
                    + params.parse_cost_per_unit * self.unit_count as u64
                    + params.parse_cost_per_byte * self.text_bytes,
            }
        }
    }
}

/// Computes the boot-time [`LoadModel`] for a unit set (one-shot form
/// of [`PreParser::build`] + [`PreParser::load_model`]).
pub fn load_model(units: &[Unit], params: &ParseCostParams, preparsed: bool) -> LoadModel {
    PreParser::build(units).load_model(params, preparsed)
}

// ---------------------------------------------------------------------
// Service Analyzer
// ---------------------------------------------------------------------

/// One Service Analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// An ordering cycle among the named units.
    OrderingCycle(Vec<UnitName>),
    /// `a` is ordered both before and after `b` (contradiction).
    Contradiction(UnitName, UnitName),
    /// The same edge is declared more than once.
    DuplicateEdge {
        /// Prerequisite unit.
        src: UnitName,
        /// Dependent unit.
        dst: UnitName,
        /// How many declarations.
        count: usize,
    },
    /// A unit references an undefined unit.
    DanglingReference(UnitName),
    /// A unit orders or requires itself.
    SelfDependency(UnitName),
    /// A unit file used a directive that was parsed but not applied
    /// (real-systemd directives this model does not support, or unknown
    /// keys). Surfaced so dropped behavior is visible, not silent.
    UnsupportedDirective {
        /// Unit file the directive appeared in.
        file: String,
        /// 1-based line number.
        line: usize,
        /// The directive as `Section::Key`.
        directive: String,
        /// Whether the directive is real systemd (unsupported here) or
        /// entirely unknown.
        known_directive: bool,
    },
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::OrderingCycle(units) => {
                write!(f, "ordering cycle:")?;
                for u in units {
                    write!(f, " {u}")?;
                }
                Ok(())
            }
            Finding::Contradiction(a, b) => {
                write!(f, "contradiction: {a} ordered both before and after {b}")
            }
            Finding::DuplicateEdge { src, dst, count } => {
                write!(f, "duplicate: {dst} after {src} declared {count} times")
            }
            Finding::DanglingReference(n) => write!(f, "dangling reference to {n}"),
            Finding::SelfDependency(n) => write!(f, "{n} depends on itself"),
            Finding::UnsupportedDirective {
                file,
                line,
                directive,
                known_directive,
            } => {
                let why = if *known_directive {
                    "not supported by this model"
                } else {
                    "unknown"
                };
                write!(
                    f,
                    "{file} line {line}: directive {directive} dropped ({why})"
                )
            }
        }
    }
}

/// Converts the unit-file parser's per-file lint warnings into analyzer
/// findings, so `analyze` results and parse-time lint share one report
/// format. Pair with [`bb_init::parse_unit_dir_with_warnings`].
pub fn analyze_directives(warnings: &[(String, bb_init::DirectiveWarning)]) -> Vec<Finding> {
    warnings
        .iter()
        .map(|(file, w)| Finding::UnsupportedDirective {
            file: file.clone(),
            line: w.line,
            directive: w.directive.clone(),
            known_directive: w.kind == bb_init::DirectiveWarningKind::Unsupported,
        })
        .collect()
}

/// The Service Analyzer: investigates relations between services and
/// reports incorrect relations (circular dependencies and contradicting
/// requirements), as the paper's call-graph-based tool does offline.
pub fn analyze(graph: &UnitGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for cycle in graph.ordering_cycles() {
        findings.push(Finding::OrderingCycle(
            cycle.iter().map(|&i| graph.unit(i).name.clone()).collect(),
        ));
    }
    // Contradictions and duplicates from the raw edge list.
    let mut ordering_pairs: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for e in graph.edges() {
        if e.kind == EdgeKind::Ordering {
            if e.src == e.dst {
                findings.push(Finding::SelfDependency(graph.unit(e.src).name.clone()));
                continue;
            }
            *ordering_pairs.entry((e.src, e.dst)).or_default() += 1;
        }
    }
    for (&(src, dst), &count) in &ordering_pairs {
        if count > 1 {
            findings.push(Finding::DuplicateEdge {
                src: graph.unit(src).name.clone(),
                dst: graph.unit(dst).name.clone(),
                count,
            });
        }
        if src < dst && ordering_pairs.contains_key(&(dst, src)) {
            findings.push(Finding::Contradiction(
                graph.unit(src).name.clone(),
                graph.unit(dst).name.clone(),
            ));
        }
    }
    for name in graph.missing() {
        findings.push(Finding::DanglingReference(name.clone()));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_init::ServiceType;

    fn svc(name: &str) -> Unit {
        Unit::new(UnitName::new(name))
    }

    fn tv_units() -> Vec<Unit> {
        vec![
            svc("tv-boot.target")
                .requires("fasttv.service")
                .requires("messenger.service"),
            svc("var.mount").with_type(ServiceType::Oneshot),
            svc("dbus.service").needs("var.mount"),
            svc("tuner.service").needs("dbus.service"),
            svc("fasttv.service")
                .needs("tuner.service")
                .needs("dbus.service"),
            // Not boot-critical; abusively orders itself before var.mount
            // (so it cannot also depend on anything after the mount).
            svc("messenger.service").before("var.mount"),
        ]
    }

    #[test]
    fn bb_group_is_the_strong_closure_of_completion() {
        let g = UnitGraph::build(tv_units()).unwrap();
        let group = identify_bb_group(&g, &[UnitName::new("fasttv.service")]);
        let names: Vec<&str> = group.iter().map(|&i| g.unit(i).name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "var.mount",
                "dbus.service",
                "tuner.service",
                "fasttv.service"
            ]
        );
    }

    #[test]
    fn preparsed_load_model_is_much_cheaper() {
        let units = tv_units();
        let params = ParseCostParams::default();
        let conv = load_model(&units, &params, false);
        let cached = load_model(&units, &params, true);
        assert!(conv.cpu > cached.cpu * 5, "{} vs {}", conv.cpu, cached.cpu);
        assert_eq!(cached.pattern, AccessPattern::Sequential);
        assert_eq!(conv.pattern, AccessPattern::Random);
        assert!(cached.io_bytes > 0);
    }

    #[test]
    fn analyzer_finds_cycles_contradictions_duplicates() {
        let mut units = vec![
            svc("a.service").after("b.service").before("b.service"),
            svc("b.service"),
            svc("c.service").after("ghost.service"),
            svc("d.service").after("d.service"),
        ];
        // Duplicate edge: e after b declared twice.
        units.push(svc("e.service").after("b.service").after("b.service"));
        let g = UnitGraph::build(units).unwrap();
        let findings = analyze(&g);
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::OrderingCycle(_))));
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::Contradiction(..))));
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::DuplicateEdge { count: 2, .. })));
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::DanglingReference(_))));
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::SelfDependency(_))));
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let g = UnitGraph::build(tv_units()).unwrap();
        assert!(analyze(&g).is_empty());
    }

    #[test]
    fn findings_render() {
        let g = UnitGraph::build(vec![
            svc("a.service").after("b.service"),
            svc("b.service").after("a.service"),
        ])
        .unwrap();
        let text = analyze(&g)
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("ordering cycle"));
        assert!(text.contains("a.service"));
    }
}
