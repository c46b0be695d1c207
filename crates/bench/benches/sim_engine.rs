//! Simulator-substrate benchmarks: event throughput of the
//! discrete-event machine, so regressions in the scheduler or event
//! queue show up before they distort experiment wall times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bb_sim::{DeviceProfile, Machine, MachineConfig, OpsBuilder, ProcessSpec, SimDuration};

/// A machine crunching `procs` compute-heavy processes on 4 cores.
fn compute_storm(procs: usize) {
    let mut m = Machine::new(MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    });
    m.record_spans(false);
    for i in 0..procs {
        m.spawn(ProcessSpec::new(
            format!("p{i}"),
            OpsBuilder::new().compute_ms(20).build(),
        ));
    }
    black_box(m.run());
}

/// A machine with heavy mixed I/O + flags + RCU traffic.
fn mixed_workload(procs: usize) {
    let mut m = Machine::new(MachineConfig {
        cores: 4,
        ..MachineConfig::default()
    });
    m.record_spans(false);
    let dev = m.add_device("emmc", DeviceProfile::tv_emmc());
    let gate = m.flag("gate");
    m.spawn(ProcessSpec::new(
        "gatekeeper",
        OpsBuilder::new().compute_ms(2).set_flag(gate).build(),
    ));
    for i in 0..procs {
        m.spawn(ProcessSpec::new(
            format!("p{i}"),
            OpsBuilder::new()
                .wait_flag(gate)
                .read_rand(dev, 64 * 1024)
                .compute_ms(3)
                .rcu_syncs(4, SimDuration::from_micros(100))
                .build(),
        ));
    }
    black_box(m.run());
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim-engine");
    for procs in [50usize, 250] {
        group.bench_with_input(BenchmarkId::new("compute-storm", procs), &procs, |b, &n| {
            b.iter(|| compute_storm(n))
        });
        group.bench_with_input(
            BenchmarkId::new("mixed-workload", procs),
            &procs,
            |b, &n| b.iter(|| mixed_workload(n)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
