//! The unit dependency graph.
//!
//! Builds a typed graph from a set of parsed units:
//!
//! * **Ordering edges** (`After=`/`Before=`): `dst` may start only after
//!   `src` is started — the paper's Figure 2 edges (red when paired with
//!   a requirement, green when ordering-only).
//! * **Requirement edges** (`Requires=`/`Wants=` and the `[Install]`
//!   reverses): `dst` pulls `src` into the boot transaction.
//!
//! Every edge records *which unit's file declared it*. That provenance is
//! what the BB Group Isolator exploits: a foreign `Before=var.mount`
//! declared by some messenger service is visible as an edge whose
//! `declared_by` is outside the group, and can be ignored without
//! touching the group members' own files (§3.3, §4.2).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::unit::{Unit, UnitName};

/// Edge classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `dst` starts only after `src` is started (`After=`/`Before=`).
    Ordering,
    /// `dst` requires `src` pulled into the transaction (`Requires=`).
    RequiresStrong,
    /// `dst` wants `src` pulled in, failure tolerated (`Wants=`).
    RequiresWeak,
    /// `src` and `dst` cannot run together (`Conflicts=`).
    Conflict,
}

/// One dependency edge between unit indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source unit index (the prerequisite / needed unit).
    pub src: usize,
    /// Destination unit index (the constrained / needing unit).
    pub dst: usize,
    /// Edge kind.
    pub kind: EdgeKind,
    /// Index of the unit whose file declared this edge.
    pub declared_by: usize,
}

/// Errors building a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two units share a name.
    DuplicateUnit(UnitName),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DuplicateUnit(n) => write!(f, "duplicate unit {n}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Aggregate statistics (the Figure 2 caption numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Unit count.
    pub units: usize,
    /// Ordering edges.
    pub ordering_edges: usize,
    /// Strong requirement edges.
    pub strong_edges: usize,
    /// Weak requirement edges.
    pub weak_edges: usize,
    /// Conflict edges.
    pub conflict_edges: usize,
    /// References to units that are not defined.
    pub dangling_refs: usize,
}

/// The dependency graph over a fixed unit set.
///
/// # Examples
///
/// ```
/// use bb_init::{Unit, UnitGraph, UnitName};
///
/// let graph = UnitGraph::build(vec![
///     Unit::new(UnitName::new("var.mount")),
///     Unit::new(UnitName::new("dbus.service")).needs("var.mount"),
/// ])
/// .unwrap();
/// let dbus = graph.idx_of("dbus.service");
/// assert_eq!(graph.ordering_preds(dbus).len(), 1);
/// assert!(graph.ordering_cycles().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct UnitGraph {
    units: Vec<Unit>,
    index: HashMap<UnitName, usize>,
    edges: Vec<Edge>,
    /// Outgoing ordering adjacency: `order_out[src]` lists edge ids.
    order_out: Vec<Vec<usize>>,
    /// Incoming ordering adjacency: `order_in[dst]` lists edge ids.
    order_in: Vec<Vec<usize>>,
    /// Requirement adjacency: `req_of[dst]` lists edge ids with that dst.
    req_of: Vec<Vec<usize>>,
    /// Referenced-but-undefined unit names.
    missing: BTreeSet<UnitName>,
}

/// Edge ids grouped by the unit `key` assigns them (edges it maps to
/// `None` are left out), in id order, each list allocated at its exact
/// length.
fn adjacency(n: usize, edges: &[Edge], key: impl Fn(&Edge) -> Option<usize>) -> Vec<Vec<usize>> {
    let mut lens = vec![0; n];
    for unit in edges.iter().filter_map(&key) {
        lens[unit] += 1;
    }
    let mut lists: Vec<Vec<usize>> = lens.into_iter().map(Vec::with_capacity).collect();
    for (id, e) in edges.iter().enumerate() {
        if let Some(unit) = key(e) {
            lists[unit].push(id);
        }
    }
    lists
}

impl UnitGraph {
    /// Builds the graph from parsed units.
    pub fn build(units: Vec<Unit>) -> Result<Self, GraphError> {
        let mut index = HashMap::with_capacity(units.len());
        for (i, u) in units.iter().enumerate() {
            if index.insert(u.name.clone(), i).is_some() {
                return Err(GraphError::DuplicateUnit(u.name.clone()));
            }
        }
        let n = units.len();
        let mut g = UnitGraph {
            units,
            index,
            edges: Vec::new(),
            order_out: Vec::new(),
            order_in: Vec::new(),
            req_of: Vec::new(),
            missing: BTreeSet::new(),
        };
        for i in 0..n {
            let u = g.units[i].clone();
            for dep in &u.after {
                g.add_edge(dep, i, |src| Edge {
                    src,
                    dst: i,
                    kind: EdgeKind::Ordering,
                    declared_by: i,
                });
            }
            for dep in &u.before {
                g.add_edge(dep, i, |dst| Edge {
                    src: i,
                    dst,
                    kind: EdgeKind::Ordering,
                    declared_by: i,
                });
            }
            for dep in &u.requires {
                g.add_edge(dep, i, |src| Edge {
                    src,
                    dst: i,
                    kind: EdgeKind::RequiresStrong,
                    declared_by: i,
                });
            }
            for dep in &u.wants {
                g.add_edge(dep, i, |src| Edge {
                    src,
                    dst: i,
                    kind: EdgeKind::RequiresWeak,
                    declared_by: i,
                });
            }
            for dep in &u.conflicts {
                g.add_edge(dep, i, |dst| Edge {
                    src: i,
                    dst,
                    kind: EdgeKind::Conflict,
                    declared_by: i,
                });
            }
            // [Install] reverses: `unit` is wanted/required by a target.
            for target in &u.wanted_by {
                g.add_edge(target, i, |dst| Edge {
                    src: i,
                    dst,
                    kind: EdgeKind::RequiresWeak,
                    declared_by: i,
                });
            }
            for target in &u.required_by {
                g.add_edge(target, i, |dst| Edge {
                    src: i,
                    dst,
                    kind: EdgeKind::RequiresStrong,
                    declared_by: i,
                });
            }
        }
        // Tables without growth slack: a compiled boot plan keeps its
        // graph for as long as a plan cache or checkpoint shares it.
        g.edges.shrink_to_fit();
        let ordering = |e: &Edge| e.kind == EdgeKind::Ordering;
        g.order_out = adjacency(n, &g.edges, |e| ordering(e).then_some(e.src));
        g.order_in = adjacency(n, &g.edges, |e| ordering(e).then_some(e.dst));
        g.req_of = adjacency(n, &g.edges, |e| {
            matches!(e.kind, EdgeKind::RequiresStrong | EdgeKind::RequiresWeak).then_some(e.dst)
        });
        Ok(g)
    }

    fn add_edge(&mut self, other: &UnitName, _this: usize, mk: impl FnOnce(usize) -> Edge) {
        match self.index.get(other) {
            Some(&o) => self.edges.push(mk(o)),
            None => {
                self.missing.insert(other.clone());
            }
        }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if the graph has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// All units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Referenced-but-undefined names.
    pub fn missing(&self) -> &BTreeSet<UnitName> {
        &self.missing
    }

    /// Index of a unit by name.
    pub fn idx(&self, name: &UnitName) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Index of a unit by string name.
    ///
    /// # Panics
    ///
    /// Panics if the unit does not exist (experiment wiring error).
    pub fn idx_of(&self, name: &str) -> usize {
        let name = UnitName::new(name);
        self.idx(&name)
            .unwrap_or_else(|| panic!("unknown unit {name}"))
    }

    /// The unit at an index.
    pub fn unit(&self, idx: usize) -> &Unit {
        &self.units[idx]
    }

    /// Units that must be started before `idx` (ordering predecessors),
    /// deduplicated, in edge order.
    pub fn ordering_preds(&self, idx: usize) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        self.order_in[idx]
            .iter()
            .map(|&e| self.edges[e].src)
            .filter(|s| seen.insert(*s))
            .collect()
    }

    /// Units ordered after `idx` (its ordering successors), one per
    /// ordering edge, in edge-id order.
    pub(crate) fn ordering_succs(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.order_out[idx].iter().map(|&e| self.edges[e].dst)
    }

    /// Incoming ordering edges of `idx` (with provenance).
    pub fn ordering_in_edges(&self, idx: usize) -> impl Iterator<Item = &Edge> {
        self.order_in[idx].iter().map(|&e| &self.edges[e])
    }

    /// Requirement edges pulled in by `idx`.
    pub fn requirement_edges(&self, idx: usize) -> impl Iterator<Item = &Edge> {
        self.req_of[idx].iter().map(|&e| &self.edges[e])
    }

    /// Transitive closure of requirements from `seeds`: everything the
    /// seeds pull into a transaction. Weak (`Wants=`) edges are followed
    /// when `include_weak`.
    pub fn requirement_closure(
        &self,
        seeds: impl IntoIterator<Item = usize>,
        include_weak: bool,
    ) -> BTreeSet<usize> {
        let mut set: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = seeds.into_iter().collect();
        while let Some(i) = stack.pop() {
            if !set.insert(i) {
                continue;
            }
            for &e in &self.req_of[i] {
                let edge = self.edges[e];
                let follow = match edge.kind {
                    EdgeKind::RequiresStrong => true,
                    EdgeKind::RequiresWeak => include_weak,
                    _ => false,
                };
                if follow {
                    stack.push(edge.src);
                }
            }
        }
        set
    }

    /// The BB Group Isolator's closure: from the boot-completion seeds,
    /// follow strong requirements and *self-declared* `After=` ordering
    /// (ordering edges declared by the dependent unit itself). Foreign
    /// `Before=` declarations — other units inserting themselves ahead —
    /// are deliberately not followed (§3.3: the group "ignore\[s\] services
    /// not in the group and dependencies or priority requirements defined
    /// as out of the group").
    pub fn strong_closure(&self, seeds: impl IntoIterator<Item = usize>) -> BTreeSet<usize> {
        let mut set: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = seeds.into_iter().collect();
        while let Some(i) = stack.pop() {
            if !set.insert(i) {
                continue;
            }
            for &e in &self.req_of[i] {
                let edge = self.edges[e];
                if edge.kind == EdgeKind::RequiresStrong {
                    stack.push(edge.src);
                }
            }
            for &e in &self.order_in[i] {
                let edge = self.edges[e];
                // Only orderings this unit asked for itself (After=).
                if edge.declared_by == i {
                    stack.push(edge.src);
                }
            }
        }
        set
    }

    /// Strongly connected components of the ordering graph (Tarjan),
    /// in reverse topological order. Components of size > 1 (or with a
    /// self-loop) are dependency cycles.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        crate::algo::tarjan_scc(self.units.len(), |v| self.ordering_succs(v).collect())
    }

    /// Ordering cycles: SCCs with more than one member, or self-loops.
    pub fn ordering_cycles(&self) -> Vec<Vec<usize>> {
        let self_loops: BTreeSet<usize> = self
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Ordering && e.src == e.dst)
            .map(|e| e.src)
            .collect();
        self.sccs()
            .into_iter()
            .filter(|c| c.len() > 1 || c.iter().any(|v| self_loops.contains(v)))
            .collect()
    }

    /// Deterministic topological order over ordering edges (Kahn with a
    /// name-ordered tie break). Errors with the cycle members if cyclic.
    pub fn topo_order(&self) -> Result<Vec<usize>, Vec<Vec<usize>>> {
        let cycles = self.ordering_cycles();
        if !cycles.is_empty() {
            return Err(cycles);
        }
        let n = self.units.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.kind == EdgeKind::Ordering {
                indeg[e.dst] += 1;
            }
        }
        // Name-ordered frontier for determinism.
        let mut frontier: BTreeMap<&UnitName, usize> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| (&self.units[i].name, i))
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some((_, i)) = frontier.pop_first() {
            out.push(i);
            for d in self.ordering_succs(i) {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    frontier.insert(&self.units[d].name, d);
                }
            }
        }
        debug_assert_eq!(out.len(), n);
        Ok(out)
    }

    /// Graph statistics.
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats {
            units: self.units.len(),
            ordering_edges: 0,
            strong_edges: 0,
            weak_edges: 0,
            conflict_edges: 0,
            dangling_refs: self.missing.len(),
        };
        for e in &self.edges {
            match e.kind {
                EdgeKind::Ordering => s.ordering_edges += 1,
                EdgeKind::RequiresStrong => s.strong_edges += 1,
                EdgeKind::RequiresWeak => s.weak_edges += 1,
                EdgeKind::Conflict => s.conflict_edges += 1,
            }
        }
        s
    }

    /// Graphviz dot rendering in the paper's Figure 2 style: red =
    /// strong (requirement+ordering pairs and plain requirements),
    /// green = ordering-only, gray dashed = weak. Members of `highlight`
    /// (e.g. the BB Group) are drawn as filled boxes.
    pub fn to_dot(&self, highlight: Option<&BTreeSet<usize>>) -> String {
        use std::fmt::Write as _;
        // An ordering edge paired with a strong requirement on the same
        // (src, dst) is a "strong dependency" in the paper's sense.
        let strong_pairs: BTreeSet<(usize, usize)> = self
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::RequiresStrong)
            .map(|e| (e.src, e.dst))
            .collect();
        let mut s =
            String::from("digraph units {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=9];\n");
        for (i, u) in self.units.iter().enumerate() {
            let extra = if highlight.is_some_and(|h| h.contains(&i)) {
                ", shape=box, style=filled, fillcolor=lightyellow"
            } else {
                ""
            };
            let _ = writeln!(s, "  \"{}\" [label=\"{}\"{extra}];", u.name, u.name);
        }
        for e in &self.edges {
            let (color, style) = match e.kind {
                EdgeKind::Ordering if strong_pairs.contains(&(e.src, e.dst)) => ("red", "solid"),
                EdgeKind::Ordering => ("green", "solid"),
                EdgeKind::RequiresStrong => ("red", "solid"),
                EdgeKind::RequiresWeak => ("gray", "dashed"),
                EdgeKind::Conflict => ("black", "dotted"),
            };
            let _ = writeln!(
                s,
                "  \"{}\" -> \"{}\" [color={color}, style={style}];",
                self.units[e.src].name, self.units[e.dst].name
            );
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::UnitName;

    fn svc(name: &str) -> Unit {
        Unit::new(UnitName::new(name))
    }

    fn graph(units: Vec<Unit>) -> UnitGraph {
        UnitGraph::build(units).unwrap()
    }

    #[test]
    fn duplicate_units_rejected() {
        let err = UnitGraph::build(vec![svc("a.service"), svc("a.service")]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateUnit(UnitName::new("a.service")));
    }

    #[test]
    fn before_and_after_create_the_same_ordering() {
        // b After a  ≡  a Before b.
        let g1 = graph(vec![svc("a.service"), svc("b.service").after("a.service")]);
        let g2 = graph(vec![svc("a.service").before("b.service"), svc("b.service")]);
        for g in [&g1, &g2] {
            let b = g.idx_of("b.service");
            assert_eq!(g.ordering_preds(b), vec![g.idx_of("a.service")]);
        }
        // Provenance differs: After is declared by b, Before by a.
        assert_eq!(g1.edges()[0].declared_by, g1.idx_of("b.service"));
        assert_eq!(g2.edges()[0].declared_by, g2.idx_of("a.service"));
    }

    #[test]
    fn requirement_closure_follows_strength() {
        let g = graph(vec![
            svc("a.service"),
            svc("b.service").requires("a.service"),
            svc("c.service").wants("b.service"),
        ]);
        let c = g.idx_of("c.service");
        let strong_only = g.requirement_closure([c], false);
        assert_eq!(strong_only.len(), 1); // c alone: wants not followed
        let with_weak = g.requirement_closure([c], true);
        assert_eq!(with_weak.len(), 3);
    }

    #[test]
    fn strong_closure_ignores_foreign_before() {
        // messenger declares Before=var.mount (the §4.2 abuse); the
        // closure from dbus must include var.mount but NOT messenger.
        let g = graph(vec![
            svc("var.mount"),
            svc("dbus.service").requires("var.mount").after("var.mount"),
            svc("messenger.service").before("var.mount"),
        ]);
        let group = g.strong_closure([g.idx_of("dbus.service")]);
        let names: Vec<&str> = group.iter().map(|&i| g.unit(i).name.as_str()).collect();
        assert_eq!(names, vec!["var.mount", "dbus.service"]);
    }

    #[test]
    fn wanted_by_injects_reverse_requirement() {
        let g = graph(vec![
            svc("multi-user.target"),
            svc("app.service").wanted_by("multi-user.target"),
        ]);
        let t = g.idx_of("multi-user.target");
        let closure = g.requirement_closure([t], true);
        assert!(closure.contains(&g.idx_of("app.service")));
    }

    #[test]
    fn dangling_references_recorded_not_fatal() {
        let g = graph(vec![svc("a.service").after("ghost.service")]);
        assert_eq!(g.missing().len(), 1);
        assert_eq!(g.stats().dangling_refs, 1);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn topo_order_respects_all_edges() {
        let g = graph(vec![
            svc("c.service").after("b.service"),
            svc("b.service").after("a.service"),
            svc("a.service"),
            svc("d.service").after("a.service"),
        ]);
        let order = g.topo_order().unwrap();
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        for e in g.edges() {
            if e.kind == EdgeKind::Ordering {
                assert!(pos[&e.src] < pos[&e.dst]);
            }
        }
    }

    #[test]
    fn topo_order_is_deterministic_by_name() {
        let g = graph(vec![svc("z.service"), svc("a.service"), svc("m.service")]);
        let names: Vec<&str> = g
            .topo_order()
            .unwrap()
            .into_iter()
            .map(|i| g.unit(i).name.as_str())
            .collect();
        assert_eq!(names, vec!["a.service", "m.service", "z.service"]);
    }

    #[test]
    fn cycle_detection_finds_scc() {
        let g = graph(vec![
            svc("a.service").after("b.service"),
            svc("b.service").after("a.service"),
            svc("c.service"),
        ]);
        let cycles = g.ordering_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        assert!(g.topo_order().is_err());
    }

    #[test]
    fn figure3_new_service_creates_cross_group_cycle() {
        // Figure 3: group_a = {a1→a2→a3}, group_b = {b1→b2→b3}; adding
        // c in group_a required by b-chain's head while c itself is
        // after b3 creates a cycle spanning the groups.
        let acyclic = vec![
            svc("a1.service"),
            svc("a2.service").after("a1.service"),
            svc("a3.service").after("a2.service"),
            svc("b1.service"),
            svc("b2.service").after("b1.service"),
            svc("b3.service").after("b2.service"),
        ];
        assert!(graph(acyclic.clone()).ordering_cycles().is_empty());
        let mut with_c = acyclic;
        with_c.push(svc("c.service").after("b3.service").before("b1.service"));
        let cycles = graph(with_c).ordering_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 4); // b1, b2, b3, c
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph(vec![svc("a.service").after("a.service")]);
        assert_eq!(g.ordering_cycles().len(), 1);
    }

    #[test]
    fn dot_output_contains_nodes_and_colored_edges() {
        let g = graph(vec![
            svc("var.mount"),
            svc("dbus.service").needs("var.mount"),
            svc("log.service").after("var.mount"),
        ]);
        let group: BTreeSet<usize> = [g.idx_of("dbus.service")].into();
        let dot = g.to_dot(Some(&group));
        assert!(dot.contains("\"dbus.service\""));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("color=green"));
        assert!(dot.contains("fillcolor=lightyellow"));
    }

    #[test]
    fn stats_count_edge_kinds() {
        let g = graph(vec![
            svc("a.service"),
            svc("b.service").needs("a.service").wants("c.service"),
            svc("c.service").before("b.service"),
        ]);
        let s = g.stats();
        assert_eq!(s.units, 3);
        assert_eq!(s.ordering_edges, 2); // After from needs + Before
        assert_eq!(s.strong_edges, 1);
        assert_eq!(s.weak_edges, 1);
    }
}
