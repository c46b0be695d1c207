//! E7 — §4.3: the costs of BB's two main levers.
//!
//! 1. *Deferred-task overhead.* Deferring a system service makes the
//!    first application that needs it pay its start-up once; later
//!    launches pay nothing. The paper reports <15 ms average overhead
//!    and a standard deviation below 1.5% for dependent applications.
//! 2. *RCU Booster CPU cost.* With no contention the boosted path
//!    consumes more CPU (context switches, mutex handshake) than the
//!    classic spin, which is why the Booster Control disables it after
//!    boot.

use bb_sim::{
    FlagId, Machine, MachineConfig, OpsBuilder, ProcessSpec, RcuMode, RcuParams, SimDuration,
};

/// Deferred-task overhead measurement.
#[derive(Debug)]
pub struct DeferredOverhead {
    /// Number of dependent app launches measured.
    pub launches: usize,
    /// Mean extra latency per launch vs the undeferred baseline.
    pub mean_overhead: SimDuration,
    /// Maximum extra latency (the first launch pays the trigger).
    pub max_overhead: SimDuration,
    /// Overhead of every launch after the first.
    pub steady_state_overhead: SimDuration,
}

/// Launches `n` apps 100 ms apart; each needs a service that is
/// on-demand (triggered by the first user) when `deferred`, or already
/// running when not. Returns per-app latencies.
fn app_latencies(n: usize, deferred: bool, task_cost: SimDuration) -> Vec<SimDuration> {
    let mut m = Machine::new(MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    });
    let request: FlagId = m.flag("svc-requested");
    let ready = m.flag("svc-ready");
    if deferred {
        // The deferred service starts only when first requested.
        m.spawn(ProcessSpec::new(
            "deferred-service",
            OpsBuilder::new()
                .wait_flag(request)
                .compute(task_cost)
                .set_flag(ready)
                .build(),
        ));
    } else {
        // Conventionally it ran during boot; it is already available.
        m.spawn(ProcessSpec::new(
            "boot-time-service",
            OpsBuilder::new().set_flag(ready).build(),
        ));
    }
    for i in 0..n {
        m.spawn_at(
            bb_sim::SimTime::from_nanos(100_000_000 * (i as u64 + 1)),
            ProcessSpec::new(
                format!("app-{i:02}"),
                OpsBuilder::new()
                    .set_flag(request)
                    .wait_flag(ready)
                    .compute_ms(25)
                    .build(),
            ),
        );
    }
    m.run();
    let tl = m.trace().process_timeline();
    let mut latencies: Vec<(&str, SimDuration)> = tl
        .values()
        .filter(|t| t.name.starts_with("app-"))
        .map(|t| {
            (
                &*t.name,
                t.finished
                    .expect("apps finish")
                    .since(t.spawned.expect("apps spawn")),
            )
        })
        .collect();
    latencies.sort();
    latencies.into_iter().map(|(_, d)| d).collect()
}

/// Runs the deferred-overhead measurement.
fn deferred_overhead() -> DeferredOverhead {
    let n = 32;
    let task_cost = SimDuration::from_millis(180);
    let with = app_latencies(n, true, task_cost);
    let without = app_latencies(n, false, task_cost);
    let overheads: Vec<SimDuration> = with
        .iter()
        .zip(&without)
        .map(|(w, wo)| w.saturating_sub(*wo))
        .collect();
    let mean = overheads.iter().copied().sum::<SimDuration>() / n as u64;
    let max = overheads
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    DeferredOverhead {
        launches: n,
        mean_overhead: mean,
        max_overhead: max,
        steady_state_overhead: overheads[n / 2],
    }
}

/// RCU CPU-cost measurement at a given writer concurrency.
#[derive(Debug)]
pub struct RcuCpuCost {
    /// Concurrent synchronizing processes.
    pub writers: usize,
    /// Total CPU consumed, classic spin mode.
    pub classic_cpu: SimDuration,
    /// Total CPU consumed, boosted mode.
    pub boosted_cpu: SimDuration,
    /// Wall time, classic.
    pub classic_wall: SimDuration,
    /// Wall time, boosted.
    pub boosted_wall: SimDuration,
}

/// Runs `writers` processes each doing 20 syncs on a 4-core machine.
fn rcu_cpu_cost(writers: usize) -> RcuCpuCost {
    let run = |mode: RcuMode| {
        let mut m = Machine::new(MachineConfig {
            cores: 4,
            rcu_mode: mode,
            rcu_params: RcuParams::default(),
            ..MachineConfig::default()
        });
        for i in 0..writers {
            m.spawn(ProcessSpec::new(
                format!("writer-{i}"),
                OpsBuilder::new()
                    .rcu_syncs(20, SimDuration::from_micros(100))
                    .build(),
            ));
        }
        let out = m.run();
        let cpu: SimDuration = m.processes().map(|p| p.cpu_time()).sum();
        (cpu, out.end_time.saturating_since(bb_sim::SimTime::ZERO))
    };
    let (classic_cpu, classic_wall) = run(RcuMode::ClassicSpin);
    let (boosted_cpu, boosted_wall) = run(RcuMode::Boosted);
    RcuCpuCost {
        writers,
        classic_cpu,
        boosted_cpu,
        classic_wall,
        boosted_wall,
    }
}

/// The full E7 output.
#[derive(Debug)]
pub struct Tradeoff {
    /// Deferred-task overhead.
    pub deferred: DeferredOverhead,
    /// RCU CPU/wall costs at 1, 2, 8, and 32 writers.
    pub rcu: Vec<RcuCpuCost>,
}

/// Runs the experiment.
pub fn run() -> Tradeoff {
    Tradeoff {
        deferred: deferred_overhead(),
        rcu: [1, 2, 8, 32].into_iter().map(rcu_cpu_cost).collect(),
    }
}

impl Tradeoff {
    /// Text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let d = &self.deferred;
        let _ = writeln!(s, "§4.3 trade-offs");
        let _ = writeln!(
            s,
            "  deferred-task overhead over {} app launches: mean {} max {} steady-state {}",
            d.launches, d.mean_overhead, d.max_overhead, d.steady_state_overhead
        );
        let _ = writeln!(s, "  (paper: <15 ms average; only the first trigger pays)");
        let _ = writeln!(
            s,
            "  RCU waiter cost (20 syncs/writer, 4 cores):\n  {:>8} {:>14} {:>14} {:>13} {:>13}",
            "writers", "classic CPU", "boosted CPU", "classic wall", "boosted wall"
        );
        for r in &self.rcu {
            let _ = writeln!(
                s,
                "  {:>8} {:>14} {:>14} {:>13} {:>13}",
                r.writers,
                r.classic_cpu.to_string(),
                r.boosted_cpu.to_string(),
                r.classic_wall.to_string(),
                r.boosted_wall.to_string()
            );
        }
        let _ = writeln!(
            s,
            "  (paper: boosted costs more CPU with 0-1 writers; wins under contention)"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferred_overhead_is_small_and_first_launch_only() {
        let d = deferred_overhead();
        assert!(
            d.mean_overhead < SimDuration::from_millis(15),
            "mean overhead {} exceeds the paper's 15 ms",
            d.mean_overhead
        );
        // The first launch pays (max is large); steady state is free.
        assert!(d.max_overhead >= SimDuration::from_millis(100));
        assert!(d.steady_state_overhead < SimDuration::from_millis(1));
    }

    #[test]
    fn boosted_rcu_costs_more_cpu_uncontended() {
        let r = rcu_cpu_cost(1);
        assert!(
            r.boosted_cpu > r.classic_cpu,
            "boosted should pay ctx-switch CPU: {} vs {}",
            r.boosted_cpu,
            r.classic_cpu
        );
    }

    #[test]
    fn classic_spin_burns_cpu_under_contention() {
        let r = rcu_cpu_cost(32);
        assert!(
            r.classic_cpu > r.boosted_cpu * 3,
            "classic {} vs boosted {}",
            r.classic_cpu,
            r.boosted_cpu
        );
        // Spinning also *blocks submission concurrency* (a spinner holds
        // its core, so other writers cannot even call synchronize_rcu),
        // which defeats grace-period batching: classic wall time is
        // strictly worse under heavy contention.
        assert!(r.boosted_wall < r.classic_wall);
    }
}
