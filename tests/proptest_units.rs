//! Property-based tests on the unit model: parser round-trips, the
//! Pre-parser cache equivalence, graph invariants, and the transaction
//! planner against a reference implementation, over arbitrary generated
//! unit sets.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use booting_booster::init::algo::tarjan_scc;
use booting_booster::init::{
    decode_units, encode_units, parse_unit, EdgeKind, Transaction, TransactionError, Unit,
    UnitGraph, UnitName,
};

mod unit_sets;
use unit_sets::{svc_name, transaction_units_strategy, unit_set_strategy, unit_strategy, TARGET};

// The planner as it was before it read the graph's adjacency lists: it
// scans the whole edge table for every job, and its Tarjan run rebuilds
// a node's successor list on every resume. Kept verbatim as the oracle
// for the linear-time planner.

fn reference_build(graph: &UnitGraph, target_name: &str) -> Result<Transaction, TransactionError> {
    let target_name = UnitName::new(target_name);
    let target = graph
        .idx(&target_name)
        .ok_or_else(|| TransactionError::UnknownTarget(target_name.to_string()))?;

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
        let cycles = reference_job_cycles(graph, &jobs);
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

fn reference_execution_order(tx: &Transaction, graph: &UnitGraph) -> Vec<usize> {
    let jobs = &tx.jobs;
    let mut indeg: HashMap<usize, usize> = jobs.iter().map(|&j| (j, 0)).collect();
    for e in graph.edges() {
        if e.kind == EdgeKind::Ordering && jobs.contains(&e.src) && jobs.contains(&e.dst) {
            *indeg.get_mut(&e.dst).expect("dst in jobs") += 1;
        }
    }
    let mut frontier: BTreeMap<&UnitName, usize> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&j, _)| (&graph.unit(j).name, j))
        .collect();
    let mut out = Vec::with_capacity(jobs.len());
    while let Some((_, j)) = frontier.pop_first() {
        out.push(j);
        for e in graph.edges() {
            if e.kind == EdgeKind::Ordering && e.src == j && jobs.contains(&e.dst) {
                let d = indeg.get_mut(&e.dst).expect("dst in jobs");
                *d -= 1;
                if *d == 0 {
                    frontier.insert(&graph.unit(e.dst).name, e.dst);
                }
            }
        }
    }
    debug_assert_eq!(out.len(), jobs.len(), "transaction was not acyclic");
    out
}

fn reference_job_cycles(graph: &UnitGraph, jobs: &BTreeSet<usize>) -> Vec<Vec<usize>> {
    // Compact the job set for the SCC run.
    let idx_list: Vec<usize> = jobs.iter().copied().collect();
    let pos: HashMap<usize, usize> = idx_list.iter().enumerate().map(|(p, &j)| (j, p)).collect();
    let succ = |p: usize| -> Vec<usize> {
        let j = idx_list[p];
        graph
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Ordering && e.src == j)
            .filter_map(|e| pos.get(&e.dst).copied())
            .collect()
    };
    let self_loops: BTreeSet<usize> = graph
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::Ordering && e.src == e.dst && jobs.contains(&e.src))
        .map(|e| e.src)
        .collect();
    reference_tarjan_scc(idx_list.len(), succ)
        .into_iter()
        .map(|comp| comp.into_iter().map(|p| idx_list[p]).collect::<Vec<_>>())
        .filter(|comp: &Vec<usize>| comp.len() > 1 || comp.iter().any(|v| self_loops.contains(v)))
        .collect()
}

fn reference_tarjan_scc(n: usize, succ: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut out: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root].is_some() {
            continue;
        }
        let mut frames = vec![Frame::Enter(root)];
        while let Some(f) = frames.pop() {
            match f {
                Frame::Enter(v) => {
                    index[v] = Some(next);
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, start) => {
                    let succs = succ(v);
                    let mut descended = false;
                    let mut ei = start;
                    while ei < succs.len() {
                        let w = succs[ei];
                        ei += 1;
                        match index[w] {
                            None => {
                                frames.push(Frame::Resume(v, ei));
                                frames.push(Frame::Enter(w));
                                descended = true;
                                break;
                            }
                            Some(wi) => {
                                if on_stack[w] {
                                    low[v] = low[v].min(wi);
                                }
                            }
                        }
                    }
                    if descended {
                        continue;
                    }
                    if Some(low[v]) == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                    if let Some(Frame::Resume(p, _)) = frames.last().copied() {
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
    }
    out
}

/// What `Transaction::build` made of a unit set.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Clean,
    WeakCycleDropped,
    HardCycle,
    Conflict,
}

/// Plans `units` toward [`TARGET`] with the planner and the reference and
/// requires the same job set, dropped jobs (in order), execution order
/// and error; the graph's SCCs must match the reference Tarjan too.
fn planner_matches_reference(units: Vec<Unit>) -> Result<Outcome, TestCaseError> {
    let graph = UnitGraph::build(units).expect("unique names");
    let scan_succ = |v: usize| -> Vec<usize> {
        graph
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Ordering && e.src == v)
            .map(|e| e.dst)
            .collect()
    };
    let reference_sccs = reference_tarjan_scc(graph.len(), scan_succ);
    prop_assert_eq!(graph.sccs(), reference_sccs);
    prop_assert_eq!(tarjan_scc(graph.len(), scan_succ), reference_sccs);

    match (
        Transaction::build(&graph, TARGET),
        reference_build(&graph, TARGET),
    ) {
        (Ok(tx), Ok(reference)) => {
            prop_assert_eq!(tx.target, reference.target);
            prop_assert_eq!(tx.jobs, reference.jobs);
            prop_assert_eq!(tx.dropped_jobs, reference.dropped_jobs);
            prop_assert_eq!(
                tx.execution_order(&graph),
                reference_execution_order(&reference, &graph)
            );
            Ok(if tx.dropped_jobs.is_empty() {
                Outcome::Clean
            } else {
                Outcome::WeakCycleDropped
            })
        }
        (Err(err), Err(reference)) => {
            prop_assert_eq!(err, reference);
            Ok(match err {
                TransactionError::ConflictingJobs(..) => Outcome::Conflict,
                TransactionError::OrderingCycle(_) => Outcome::HardCycle,
                TransactionError::UnknownTarget(_) => unreachable!("the target is always defined"),
                TransactionError::UnknownCompletion(_)
                | TransactionError::CompletionNotInTransaction(_) => {
                    unreachable!("a transaction alone resolves no completion")
                }
            })
        }
        (got, reference) => Err(TestCaseError::fail(format!(
            "planner gave {got:?}, reference gave {reference:?}"
        ))),
    }
}

#[test]
fn planner_matches_reference_on_every_outcome() {
    let svc = |i: usize| Unit::new(UnitName::new(svc_name(i)));
    let target = || Unit::new(UnitName::new(TARGET));
    let cases = [
        (
            // s02 → s01 → s00, all wanted.
            vec![
                target(),
                svc(0).wanted_by(TARGET),
                svc(1).after("s00.service").wanted_by(TARGET),
                svc(2).after("s01.service").wanted_by(TARGET),
            ],
            Outcome::Clean,
        ),
        (
            // s00 (required) and s01 (wanted) order after each other,
            // and so do s02 and s03 (both wanted): two drops.
            vec![
                target().requires("s00.service"),
                svc(0).after("s01.service"),
                svc(1).after("s00.service").wanted_by(TARGET),
                svc(2).after("s03.service").wanted_by(TARGET),
                svc(3).before("s02.service").wanted_by(TARGET),
            ],
            Outcome::WeakCycleDropped,
        ),
        (
            // s00 needs s01, which orders itself after s00.
            vec![
                target().requires("s00.service"),
                svc(0).needs("s01.service"),
                svc(1).after("s00.service"),
            ],
            Outcome::HardCycle,
        ),
        (
            vec![
                target(),
                {
                    let mut u = svc(0).wanted_by(TARGET);
                    u.conflicts.push(UnitName::new(svc_name(1)));
                    u
                },
                svc(1).wanted_by(TARGET),
            ],
            Outcome::Conflict,
        ),
    ];
    for (units, expected) in cases {
        assert_eq!(planner_matches_reference(units).unwrap(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The linear-time planner makes exactly the reference's plan: same
    /// jobs, same cycle-breaking victims in the same order, same
    /// execution order, same error.
    #[test]
    fn planner_matches_reference_on_random_units(units in transaction_units_strategy()) {
        planner_matches_reference(units)?;
    }
}

proptest! {
    /// Rendering a unit to file syntax and parsing it back reproduces
    /// the unit exactly.
    #[test]
    fn unit_file_roundtrip(unit in unit_strategy()) {
        let text = unit.to_unit_file();
        let parsed = parse_unit(unit.name.as_str(), &text)
            .expect("rendered unit files always parse");
        prop_assert_eq!(parsed.unit, unit);
        prop_assert!(parsed.warnings.is_empty());
    }

    /// The Pre-parser cache is lossless: decode(encode(units)) == units.
    #[test]
    fn preparse_cache_roundtrip(units in unit_set_strategy()) {
        let blob = encode_units(&units);
        let back = decode_units(&blob).expect("cache decodes");
        prop_assert_eq!(back, units);
    }

    /// The cache equals the parse result of the rendered text: the two
    /// load paths (text parse vs cache decode) agree byte-for-byte at
    /// the unit level — the correctness contract of the Pre-parser.
    #[test]
    fn preparse_equals_text_parse(units in unit_set_strategy()) {
        let reparsed: Vec<Unit> = units
            .iter()
            .map(|u| parse_unit(u.name.as_str(), &u.to_unit_file()).expect("parses").unit)
            .collect();
        let decoded = decode_units(&encode_units(&units)).expect("decodes");
        prop_assert_eq!(reparsed, decoded);
    }

    /// Corrupting any single byte of a cache blob never panics — and
    /// with the trailing CRC, any single-byte change is *detected*: the
    /// decode errs rather than returning silently wrong units.
    #[test]
    fn corrupted_cache_never_panics(units in unit_set_strategy(), pos in any::<prop::sample::Index>(), delta in 1u8..255) {
        let mut blob = encode_units(&units);
        let idx = pos.index(blob.len());
        blob[idx] = blob[idx].wrapping_add(delta);
        prop_assert!(
            decode_units(&blob).is_err(),
            "single-byte damage at {idx} decoded silently"
        );
    }

    /// Arbitrary bytes never panic the cache decoder: garbage in,
    /// `Err` (or a valid decode, for the empty-ish prefixes) out.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let _ = decode_units(&bytes);
    }

    /// A seeded [`CorruptionPlan`] applied to a valid blob never panics
    /// the decoder, and if it changed any byte the decode MUST fail —
    /// the boot-time recovery chain depends on damage being detected.
    #[test]
    fn corruption_plans_are_always_detected(units in unit_set_strategy(), seed in any::<u64>()) {
        use booting_booster::sim::CorruptionPlan;

        let pristine = encode_units(&units);
        let mut damaged = pristine.clone();
        CorruptionPlan::seeded(seed).apply(&mut damaged);
        if damaged == pristine {
            prop_assert!(decode_units(&damaged).is_ok());
        } else {
            prop_assert!(
                decode_units(&damaged).is_err(),
                "corruption plan {seed} decoded silently"
            );
        }
    }

    /// Graph construction + topological order: when the ordering graph
    /// is acyclic, every ordering edge is respected by the topo order.
    #[test]
    fn topo_order_respects_edges(units in unit_set_strategy()) {
        let graph = UnitGraph::build(units).expect("unique names");
        if let Ok(order) = graph.topo_order() {
            let pos: HashMap<usize, usize> =
                order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
            for e in graph.edges() {
                if e.kind == EdgeKind::Ordering {
                    prop_assert!(pos[&e.src] < pos[&e.dst]);
                }
            }
        } else {
            // Cyclic: the SCC detector must agree.
            prop_assert!(!graph.ordering_cycles().is_empty());
        }
    }

    /// The BB Group closure is sound: it contains its seeds and is
    /// closed under strong requirements and self-declared orderings.
    #[test]
    fn strong_closure_is_closed(units in unit_set_strategy(), seed in any::<prop::sample::Index>()) {
        let graph = UnitGraph::build(units).expect("unique names");
        let seed = seed.index(graph.len());
        let group = graph.strong_closure([seed]);
        prop_assert!(group.contains(&seed));
        for &member in &group {
            for e in graph.requirement_edges(member) {
                if e.kind == EdgeKind::RequiresStrong {
                    prop_assert!(group.contains(&e.src), "missing strong dep");
                }
            }
            for e in graph.ordering_in_edges(member) {
                if e.declared_by == member {
                    prop_assert!(group.contains(&e.src), "missing self-declared After");
                }
            }
        }
    }

    /// SCC members are mutually reachable (verified by brute force on
    /// these small graphs).
    #[test]
    fn sccs_are_mutually_reachable(units in unit_set_strategy()) {
        let graph = UnitGraph::build(units).expect("unique names");
        let reach = |from: usize, to: usize| -> bool {
            let mut seen = vec![false; graph.len()];
            let mut stack = vec![from];
            while let Some(v) = stack.pop() {
                if v == to { return true; }
                if std::mem::replace(&mut seen[v], true) { continue; }
                for e in graph.edges() {
                    if e.kind == EdgeKind::Ordering && e.src == v {
                        stack.push(e.dst);
                    }
                }
            }
            false
        };
        for comp in graph.sccs() {
            if comp.len() > 1 {
                for &a in &comp {
                    for &b in &comp {
                        if a != b {
                            prop_assert!(reach(a, b), "{a} cannot reach {b}");
                        }
                    }
                }
            }
        }
    }
}
