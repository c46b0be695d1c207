//! Graph algorithms shared by the dependency graph and the transaction
//! builder: an iterative Tarjan SCC over an abstract adjacency function.

/// Strongly connected components of the directed graph with `n` nodes
/// and successor function `succ`. Iterative (no recursion), so deep
/// service chains cannot overflow the stack. `succ` runs once per node,
/// when the search enters it, so a run is O(n + edges) even through a
/// hub with a wide fan-out. Components are returned in reverse
/// topological order, members sorted ascending.
pub fn tarjan_scc(n: usize, succ: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<usize>> {
    /// A node on the search path, its successors and how many of them
    /// the search has taken.
    struct Frame {
        v: usize,
        succs: Vec<usize>,
        taken: usize,
    }
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut path: Vec<Frame> = Vec::new();
    let mut next = 0u32;
    let mut out: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root].is_some() {
            continue;
        }
        let mut entering = Some(root);
        loop {
            if let Some(v) = entering.take() {
                index[v] = Some(next);
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
                path.push(Frame {
                    v,
                    succs: succ(v),
                    taken: 0,
                });
            }
            let Some(frame) = path.last_mut() else {
                break;
            };
            let v = frame.v;
            if let Some(&w) = frame.succs.get(frame.taken) {
                frame.taken += 1;
                match index[w] {
                    None => entering = Some(w),
                    Some(wi) => {
                        if on_stack[w] {
                            low[v] = low[v].min(wi);
                        }
                    }
                }
                continue;
            }
            // Every successor of `v` is done.
            path.pop();
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
            if let Some(parent) = path.last() {
                low[parent.v] = low[parent.v].min(low[v]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(edges: &[(usize, usize)]) -> impl Fn(usize) -> Vec<usize> + '_ {
        move |v| {
            edges
                .iter()
                .filter(|(s, _)| *s == v)
                .map(|(_, d)| *d)
                .collect()
        }
    }

    #[test]
    fn acyclic_graph_gives_singletons() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let sccs = tarjan_scc(3, adj(&edges));
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn two_cycles_found() {
        // 0↔1, 2→3→4→2, 5 isolated.
        let edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)];
        let mut sizes: Vec<usize> = tarjan_scc(6, adj(&edges)).iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn reverse_topological_order() {
        // 0 → 1 → 2: component containing 2 must come first.
        let edges = [(0, 1), (1, 2)];
        let sccs = tarjan_scc(3, adj(&edges));
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let n = 200_000;
        let succ = |v: usize| if v + 1 < n { vec![v + 1] } else { vec![] };
        let sccs = tarjan_scc(n, succ);
        assert_eq!(sccs.len(), n);
    }

    #[test]
    fn successors_are_built_once_per_node() {
        // A hub 0 → 1..=k, with a chain k → k+1 → … → n-1 hanging off
        // its last leaf. Rebuilding the hub's list after each child
        // returned would call `succ` 2k+1 times for the star alone.
        let (k, n) = (50, 80);
        let calls = std::cell::Cell::new(0);
        let succ = |v: usize| {
            calls.set(calls.get() + 1);
            match v {
                0 => (1..=k).collect(),
                v if v >= k && v + 1 < n => vec![v + 1],
                _ => vec![],
            }
        };
        let sccs = tarjan_scc(n, succ);
        assert_eq!(sccs.len(), n);
        assert_eq!(calls.get(), n);
    }

    #[test]
    fn whole_graph_one_cycle() {
        let n = 1000;
        let succ = |v: usize| vec![(v + 1) % n];
        let sccs = tarjan_scc(n, succ);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n);
    }
}
