//! Graph-machinery benchmarks: the Service Engine's algorithms at the
//! paper's scales (136 → 250 services) and beyond (1000 to 4000, the
//! "will surely grow" case of §5), up to a whole `Pipeline::plan`.
//!
//! `cargo bench -p bb-bench --bench graph_algorithms` prints the mean
//! of each step per scale; `BB_BENCH_ITERS` sets the iteration count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bb_core::service_engine::{analyze, identify_bb_group};
use bb_core::{BbConfig, Pipeline, PreParser};
use bb_init::{Transaction, UnitGraph};
use bb_workloads::{profiles, tv_scenario_with, TizenParams};

fn bench_graph(c: &mut Criterion) {
    let pipeline = Pipeline::standard();
    for services in [136usize, 250, 1000, 2000, 4000] {
        let params = TizenParams {
            services,
            ..TizenParams::default()
        };
        let scenario = tv_scenario_with(profiles::ue48h6200(), params);
        let graph = UnitGraph::build(scenario.units.clone()).expect("valid units");
        let tx = Transaction::build(&graph, &scenario.target).expect("plans");
        let pre = PreParser::build(&scenario.units);

        let mut group = c.benchmark_group(format!("graph-{services}"));
        group.bench_function("build", |b| {
            b.iter(|| black_box(UnitGraph::build(scenario.units.clone()).expect("valid")))
        });
        group.bench_function("sccs", |b| b.iter(|| black_box(graph.sccs())));
        group.bench_function("topo-order", |b| {
            b.iter(|| black_box(graph.topo_order().expect("acyclic")))
        });
        group.bench_function("bb-group-isolation", |b| {
            b.iter(|| black_box(identify_bb_group(&graph, &scenario.completion)))
        });
        group.bench_function("transaction", |b| {
            b.iter(|| black_box(Transaction::build(&graph, &scenario.target).expect("ok")))
        });
        group.bench_function("execution-order", |b| {
            b.iter(|| black_box(tx.execution_order(&graph)))
        });
        group.bench_function("service-analyzer", |b| {
            b.iter(|| black_box(analyze(&graph)))
        });
        group.bench_function("pipeline-plan", |b| {
            b.iter(|| {
                black_box(
                    pipeline
                        .plan(&scenario, &BbConfig::full(), Some(&pre))
                        .expect("plans"),
                )
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
