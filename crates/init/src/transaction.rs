//! Boot transactions: from a target to an executable job set.
//!
//! Mirrors systemd's transaction machinery: starting from a target, the
//! requirement closure (`Requires=`, `Wants=`, and the `[Install]`
//! reverses) determines *what* to start; ordering edges determine *when*.
//! Conflicting jobs fail the transaction; ordering cycles are broken by
//! dropping weakly-pulled jobs (systemd deletes non-indispensable jobs
//! from cycles), and remain fatal when every cycle member is required.
//!
//! Planning is linear in the graph: each cycle check and the execution
//! order read a job's successors from the graph's ordering adjacency,
//! so both are O(V + E). The cycle check reruns once per dropped job.

use std::collections::{BTreeMap, BTreeSet};

use crate::algo::tarjan_scc;
use crate::graph::{EdgeKind, UnitGraph};
use crate::unit::UnitName;

/// A buildable start-up plan.
///
/// # Examples
///
/// ```
/// use bb_init::{Transaction, Unit, UnitGraph, UnitName};
///
/// let graph = UnitGraph::build(vec![
///     Unit::new(UnitName::new("boot.target")).requires("app.service"),
///     Unit::new(UnitName::new("app.service")).needs("db.service"),
///     Unit::new(UnitName::new("db.service")),
///     Unit::new(UnitName::new("unrelated.service")),
/// ])
/// .unwrap();
/// let tx = Transaction::build(&graph, "boot.target").unwrap();
/// assert_eq!(tx.jobs.len(), 3); // target + app + db; unrelated stays out
/// let order = tx.execution_order(&graph);
/// assert_eq!(graph.unit(order[1]).name.as_str(), "db.service");
/// ```
#[derive(Debug, Clone)]
pub struct Transaction {
    /// The target everything was expanded from.
    pub target: usize,
    /// Unit indices to start.
    pub jobs: BTreeSet<usize>,
    /// Weakly-pulled jobs dropped to break ordering cycles.
    pub dropped_jobs: Vec<usize>,
}

/// Why a transaction could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransactionError {
    /// The requested target is not defined, or is no unit name at all
    /// (no recognized type suffix).
    UnknownTarget(String),
    /// Two queued jobs conflict (`Conflicts=`).
    ConflictingJobs(UnitName, UnitName),
    /// An ordering cycle among required jobs that cannot be broken.
    OrderingCycle(Vec<UnitName>),
    /// A boot-completion unit that the unit set does not define.
    UnknownCompletion(UnitName),
    /// A boot-completion unit that the target does not pull in, so no
    /// job of the transaction ever makes it ready.
    CompletionNotInTransaction(UnitName),
}

impl std::fmt::Display for TransactionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransactionError::UnknownTarget(t) => write!(f, "unknown target {t}"),
            TransactionError::ConflictingJobs(a, b) => {
                write!(f, "transaction contains conflicting jobs: {a} vs {b}")
            }
            TransactionError::OrderingCycle(units) => {
                write!(f, "ordering cycle among required jobs:")?;
                for u in units {
                    write!(f, " {u}")?;
                }
                Ok(())
            }
            TransactionError::UnknownCompletion(u) => {
                write!(f, "completion unit {u} is not defined")
            }
            TransactionError::CompletionNotInTransaction(u) => {
                write!(f, "completion unit {u} is not in the transaction")
            }
        }
    }
}

impl std::error::Error for TransactionError {}

impl Transaction {
    /// Builds the transaction for `target_name` over `graph`. A name
    /// without a unit suffix names no unit, so it is an unknown target.
    pub fn build(graph: &UnitGraph, target_name: &str) -> Result<Self, TransactionError> {
        let target = UnitName::parse(target_name)
            .ok()
            .and_then(|name| graph.idx(&name))
            .ok_or_else(|| TransactionError::UnknownTarget(target_name.to_owned()))?;

        let mut jobs = graph.requirement_closure([target], true);
        let required = graph.requirement_closure([target], false);

        // Conflicts between queued jobs are fatal.
        for e in graph.edges() {
            if e.kind == EdgeKind::Conflict && jobs.contains(&e.src) && jobs.contains(&e.dst) {
                return Err(TransactionError::ConflictingJobs(
                    graph.unit(e.src).name.clone(),
                    graph.unit(e.dst).name.clone(),
                ));
            }
        }

        // Break ordering cycles by dropping weakly-pulled members.
        let mut dropped_jobs = Vec::new();
        loop {
            let cycles = job_cycles(graph, &jobs);
            if cycles.is_empty() {
                break;
            }
            let mut progressed = false;
            for cycle in &cycles {
                // Prefer the newest (highest-index) weakly-pulled member:
                // the most recently added unit is the likeliest culprit.
                if let Some(&victim) = cycle.iter().rev().find(|m| !required.contains(m)) {
                    jobs.remove(&victim);
                    dropped_jobs.push(victim);
                    progressed = true;
                    break; // Re-evaluate cycles after each drop.
                }
            }
            if !progressed {
                let members = cycles[0]
                    .iter()
                    .map(|&i| graph.unit(i).name.clone())
                    .collect();
                return Err(TransactionError::OrderingCycle(members));
            }
        }

        Ok(Transaction {
            target,
            jobs,
            dropped_jobs,
        })
    }

    /// The jobs in a deterministic dependency-respecting order (Kahn over
    /// ordering edges restricted to the job set, name-tie-broken). The
    /// transaction is cycle-free by construction.
    pub fn execution_order(&self, graph: &UnitGraph) -> Vec<usize> {
        let mut in_jobs = vec![false; graph.len()];
        for &j in &self.jobs {
            in_jobs[j] = true;
        }
        let mut indeg = vec![0usize; graph.len()];
        for &j in &self.jobs {
            for d in graph.ordering_succs(j).filter(|&d| in_jobs[d]) {
                indeg[d] += 1;
            }
        }
        let mut frontier: BTreeMap<&UnitName, usize> = self
            .jobs
            .iter()
            .filter(|&&j| indeg[j] == 0)
            .map(|&j| (&graph.unit(j).name, j))
            .collect();
        let mut out = Vec::with_capacity(self.jobs.len());
        while let Some((_, j)) = frontier.pop_first() {
            out.push(j);
            for d in graph.ordering_succs(j).filter(|&d| in_jobs[d]) {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    frontier.insert(&graph.unit(d).name, d);
                }
            }
        }
        debug_assert_eq!(out.len(), self.jobs.len(), "transaction was not acyclic");
        out
    }
}

/// Cycles (SCCs of size > 1 or self-loops) of the ordering graph induced
/// on `jobs`, in Tarjan's reverse topological order.
fn job_cycles(graph: &UnitGraph, jobs: &BTreeSet<usize>) -> Vec<Vec<usize>> {
    // Compact the job set for the SCC run: `pos[unit]` is the unit's
    // place in `idx_list`, `None` outside the job set.
    let idx_list: Vec<usize> = jobs.iter().copied().collect();
    let mut pos = vec![None; graph.len()];
    for (p, &j) in idx_list.iter().enumerate() {
        pos[j] = Some(p);
    }
    let succ = |p: usize| -> Vec<usize> {
        graph
            .ordering_succs(idx_list[p])
            .filter_map(|d| pos[d])
            .collect()
    };
    tarjan_scc(idx_list.len(), succ)
        .into_iter()
        .map(|comp| comp.into_iter().map(|p| idx_list[p]).collect::<Vec<_>>())
        .filter(|comp| comp.len() > 1 || graph.ordering_succs(comp[0]).any(|d| d == comp[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::Unit;

    fn svc(name: &str) -> Unit {
        Unit::new(UnitName::new(name))
    }

    fn graph(units: Vec<Unit>) -> UnitGraph {
        UnitGraph::build(units).unwrap()
    }

    fn boot_target() -> Unit {
        svc("multi-user.target")
    }

    #[test]
    fn expands_wants_and_requires() {
        let g = graph(vec![
            boot_target(),
            svc("a.service").wanted_by("multi-user.target"),
            svc("b.service")
                .requires("c.service")
                .wanted_by("multi-user.target"),
            svc("c.service"),
            svc("unrelated.service"),
        ]);
        let t = Transaction::build(&g, "multi-user.target").unwrap();
        assert_eq!(t.jobs.len(), 4); // target + a + b + c
        assert!(!t.jobs.contains(&g.idx_of("unrelated.service")));
    }

    #[test]
    fn unknown_target_errors() {
        let g = graph(vec![svc("a.service")]);
        assert!(matches!(
            Transaction::build(&g, "nope.target"),
            Err(TransactionError::UnknownTarget(_))
        ));
    }

    #[test]
    fn a_target_without_a_unit_suffix_is_unknown() {
        let g = graph(vec![svc("a.service")]);
        assert_eq!(
            Transaction::build(&g, "foo").unwrap_err(),
            TransactionError::UnknownTarget("foo".into())
        );
    }

    #[test]
    fn conflicting_jobs_fail() {
        let mut a = svc("a.service").wanted_by("multi-user.target");
        a.conflicts.push(UnitName::new("b.service"));
        let g = graph(vec![
            boot_target(),
            a,
            svc("b.service").wanted_by("multi-user.target"),
        ]);
        assert!(matches!(
            Transaction::build(&g, "multi-user.target"),
            Err(TransactionError::ConflictingJobs(..))
        ));
    }

    #[test]
    fn weak_cycle_member_is_dropped() {
        // a (required) and w (wanted) form an ordering cycle; w drops.
        let g = graph(vec![
            boot_target(),
            svc("a.service")
                .after("w.service")
                .wanted_by("multi-user.target")
                .requires("keep.service"),
            svc("keep.service"),
            svc("w.service")
                .after("a.service")
                .wanted_by("multi-user.target"),
        ]);
        // Make `a` required: pull it strongly from the target.
        let mut units: Vec<Unit> = g.units().to_vec();
        units[0] = units[0].clone().requires("a.service");
        let g = graph(units);
        let t = Transaction::build(&g, "multi-user.target").unwrap();
        assert_eq!(t.dropped_jobs, vec![g.idx_of("w.service")]);
        assert!(!t.jobs.contains(&g.idx_of("w.service")));
        assert!(t.jobs.contains(&g.idx_of("a.service")));
    }

    #[test]
    fn required_cycle_is_fatal() {
        let g = graph(vec![
            boot_target().requires("a.service"),
            svc("a.service").needs("b.service"),
            svc("b.service").after("a.service"),
        ]);
        // b is strongly required by a (needs = Requires+After) and also
        // ordered after a: a hard cycle.
        match Transaction::build(&g, "multi-user.target") {
            Err(TransactionError::OrderingCycle(members)) => {
                assert_eq!(members.len(), 2);
            }
            other => panic!("expected ordering cycle, got {other:?}"),
        }
    }

    #[test]
    fn execution_order_respects_job_subgraph() {
        let g = graph(vec![
            boot_target(),
            svc("c.service")
                .after("b.service")
                .wanted_by("multi-user.target"),
            svc("b.service")
                .after("a.service")
                .wanted_by("multi-user.target"),
            svc("a.service").wanted_by("multi-user.target"),
        ]);
        let t = Transaction::build(&g, "multi-user.target").unwrap();
        let order = t.execution_order(&g);
        let names: Vec<&str> = order.iter().map(|&i| g.unit(i).name.as_str()).collect();
        let pa = names.iter().position(|n| *n == "a.service").unwrap();
        let pb = names.iter().position(|n| *n == "b.service").unwrap();
        let pc = names.iter().position(|n| *n == "c.service").unwrap();
        assert!(pa < pb && pb < pc);
        assert_eq!(order.len(), t.jobs.len());
    }
}
