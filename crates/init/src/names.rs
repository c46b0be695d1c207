//! The names a boot gives its jobs' flags and processes, made once per
//! scenario: [`JobNames`].

use std::sync::Arc;

use crate::graph::UnitGraph;
use crate::transaction::Transaction;
use crate::unit::UnitName;

/// Every name the engine gives the flags and processes of a
/// transaction's jobs.
///
/// The engine names each job's readiness flag, start-timeout watchdog
/// and path condition after its unit, and supervision adds a respawn
/// `<unit>#k`, its watcher and its crash flag per allowed restart. The
/// table formats all of them once, from the unit graph and transaction
/// alone, so every boot of a scenario hands the same names to the
/// machine by refcount instead of formatting and freeing them. It also
/// tells a boot's record what each process name means: a job's own
/// process, a respawn, or neither.
///
/// Build it with [`JobNames::build`] from the same graph and transaction
/// a [`crate::BootPlan`] carries; the plan borrows it the way it borrows
/// its dispatch order.
#[derive(Debug)]
pub struct JobNames {
    /// Per graph slot; `None` for units outside the transaction.
    jobs: Vec<Option<Names>>,
    /// The jobs in unit-name order.
    by_name: Vec<usize>,
}

/// One job's names.
#[derive(Debug)]
pub(crate) struct Names {
    /// The unit's name: its process's name and its record's key.
    pub(crate) unit: UnitName,
    /// `ready:<unit>`.
    pub(crate) ready: Arc<str>,
    /// `timeout:<unit>`, the watchdog, for a unit with a start timeout.
    pub(crate) timeout: Option<Arc<str>>,
    /// `path:<p>` for a unit with `ConditionPathExists=<p>`.
    pub(crate) path: Option<Arc<str>>,
    /// Supervision's names, for a unit whose `Restart=` restarts.
    pub(crate) restart: Option<Box<RestartNames>>,
}

/// The names supervision gives one unit, for its `StartLimitBurst=`
/// respawns (at least one).
#[derive(Debug)]
pub(crate) struct RestartNames {
    /// Respawn `k` at index `k - 1`: `<unit>#k`.
    pub(crate) respawns: Vec<Arc<str>>,
    /// The watcher that spawns respawn `k`: `restart:<unit>#k`.
    pub(crate) watchers: Vec<Arc<str>>,
    /// `fault:crashed:<unit>`, then `fault:crashed:<unit>#k` for each
    /// respawn: watcher `k` waits on entry `k - 1`, the start-limit
    /// watcher on the last.
    pub(crate) crashed: Vec<Arc<str>>,
    /// `start-limit:<unit>`.
    pub(crate) start_limit: Arc<str>,
    /// `restart-limit:<unit>`, the start-limit watcher.
    pub(crate) limit_watcher: Arc<str>,
    /// `escalated:<unit>`.
    pub(crate) escalated: Arc<str>,
    /// The `OnFailure=` units the start-limit watcher activates.
    pub(crate) on_failure: Vec<OnFailure>,
}

/// One `OnFailure=` unit: the escalation process's name, its readiness
/// flag's and its graph slot, if the graph defines it.
#[derive(Debug)]
pub(crate) struct OnFailure {
    pub(crate) unit: UnitName,
    pub(crate) ready: Arc<str>,
    pub(crate) slot: Option<usize>,
}

/// What a process's name means to a boot's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NameRole {
    /// A job's own name: the last process spawned under it gives the
    /// job its timeline. That is the job's process, or an escalation
    /// that activated the job as an `OnFailure=` unit.
    Job(usize),
    /// `<unit>#<digits>` for a supervised job `<unit>`: one respawn.
    Respawn(usize),
    /// Anything else.
    Other,
}

impl JobNames {
    /// Formats the names of `transaction`'s jobs in `graph`.
    pub fn build(graph: &UnitGraph, transaction: &Transaction) -> JobNames {
        let mut jobs: Vec<Option<Names>> = (0..graph.len()).map(|_| None).collect();
        for &j in &transaction.jobs {
            let unit = graph.unit(j);
            let name = &unit.name;
            let exec = &unit.exec;
            let restart = exec.restart.restarts_on_crash().then(|| {
                let respawns: Vec<Arc<str>> = (1..=exec.start_limit_burst.max(1))
                    .map(|k| format!("{name}#{k}").into())
                    .collect();
                Box::new(RestartNames {
                    watchers: respawns
                        .iter()
                        .map(|r| format!("restart:{r}").into())
                        .collect(),
                    crashed: std::iter::once(name.as_str())
                        .chain(respawns.iter().map(|r| &**r))
                        .map(|n| format!("fault:crashed:{n}").into())
                        .collect(),
                    respawns,
                    start_limit: format!("start-limit:{name}").into(),
                    limit_watcher: format!("restart-limit:{name}").into(),
                    escalated: format!("escalated:{name}").into(),
                    on_failure: unit
                        .on_failure
                        .iter()
                        .map(|target| OnFailure {
                            unit: target.clone(),
                            ready: format!("ready:{target}").into(),
                            slot: graph.idx(target),
                        })
                        .collect(),
                })
            });
            jobs[j] = Some(Names {
                unit: name.clone(),
                ready: format!("ready:{name}").into(),
                timeout: (exec.timeout_ms > 0).then(|| format!("timeout:{name}").into()),
                path: unit
                    .condition_path_exists
                    .as_ref()
                    .map(|p| format!("path:{p}").into()),
                restart,
            });
        }
        let mut by_name: Vec<usize> = transaction.jobs.iter().copied().collect();
        by_name.sort_by(|&a, &b| graph.unit(a).name.cmp(&graph.unit(b).name));
        JobNames { jobs, by_name }
    }

    /// Graph slots the table covers.
    pub(crate) fn slots(&self) -> usize {
        self.jobs.len()
    }

    /// The names of job `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a job of the transaction.
    pub(crate) fn job(&self, j: usize) -> &Names {
        self.jobs[j].as_ref().expect("a job of the transaction")
    }

    /// The jobs in unit-name order.
    pub(crate) fn by_name(&self) -> &[usize] {
        &self.by_name
    }

    /// What process name `name` means to the record: a job's own name
    /// is that job's, and `<unit>#<digits>` is a respawn of the
    /// supervised job `<unit>`. A unit name ends in its type suffix,
    /// never in `#<digits>`, so no name is both.
    pub(crate) fn role(&self, graph: &UnitGraph, name: &str) -> NameRole {
        let job = |n: &str| graph.idx(n).filter(|&j| self.jobs[j].is_some());
        match name.rsplit_once('#') {
            Some((unit, k)) if !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()) => {
                match job(unit) {
                    Some(j) if self.job(j).restart.is_some() => NameRole::Respawn(j),
                    _ => NameRole::Other,
                }
            }
            _ => job(name).map_or(NameRole::Other, NameRole::Job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{RestartPolicy, Unit};

    /// A supervised `a.service` with a start timeout, a unit whose name
    /// is `a`'s watchdog's, and a unit outside the transaction.
    fn table() -> (UnitGraph, JobNames) {
        let mut a = Unit::new(UnitName::new("a.service"))
            .with_exec("bin:a")
            .with_restart(RestartPolicy::OnFailure)
            .with_start_limit_burst(2)
            .on_failure("timeout:a.service");
        a.exec.timeout_ms = 50;
        let units = vec![
            Unit::new(UnitName::new("boot.target"))
                .requires("a.service")
                .requires("timeout:a.service"),
            a,
            Unit::new(UnitName::new("timeout:a.service")).with_exec("bin:t"),
            Unit::new(UnitName::new("idle.service")).with_exec("bin:i"),
        ];
        let graph = UnitGraph::build(units).unwrap();
        let transaction = Transaction::build(&graph, "boot.target").unwrap();
        let names = JobNames::build(&graph, &transaction);
        (graph, names)
    }

    #[test]
    fn names_follow_the_engine_formats() {
        let (graph, names) = table();
        let a = names.job(graph.idx_of("a.service"));
        assert_eq!(&*a.ready, "ready:a.service");
        assert_eq!(a.timeout.as_deref(), Some("timeout:a.service"));
        let r = a.restart.as_ref().expect("a is supervised");
        let text = |v: &[Arc<str>]| v.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(text(&r.respawns), ["a.service#1", "a.service#2"]);
        assert_eq!(
            text(&r.watchers),
            ["restart:a.service#1", "restart:a.service#2"]
        );
        assert_eq!(
            text(&r.crashed),
            [
                "fault:crashed:a.service",
                "fault:crashed:a.service#1",
                "fault:crashed:a.service#2"
            ]
        );
        assert_eq!(&*r.on_failure[0].ready, "ready:timeout:a.service");
        assert_eq!(
            r.on_failure[0].slot,
            Some(graph.idx_of("timeout:a.service"))
        );
        let order: Vec<&str> = names
            .by_name()
            .iter()
            .map(|&j| graph.unit(j).name.as_str())
            .collect();
        assert_eq!(order, ["a.service", "boot.target", "timeout:a.service"]);
    }

    #[test]
    fn a_process_name_means_what_its_text_says() {
        let (graph, names) = table();
        let (a, t) = (graph.idx_of("a.service"), graph.idx_of("timeout:a.service"));
        let role = |name: &str| names.role(&graph, name);
        assert_eq!(role("a.service"), NameRole::Job(a));
        assert_eq!(role("a.service#2"), NameRole::Respawn(a));
        assert_eq!(role("a.service#17"), NameRole::Respawn(a));
        assert_eq!(role("timeout:a.service"), NameRole::Job(t));
        for other in [
            "a.service#",
            "a.service#1x",
            "restart:a.service#1",
            "timeout:a.service#1",
            "idle.service",
            "systemd-manager",
        ] {
            assert_eq!(role(other), NameRole::Other, "{other}");
        }
    }
}
