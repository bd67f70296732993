//! Maximum-flow substrate (Dinic's algorithm) and the flow-based
//! schedulability test.
//!
//! The related work the paper compares against ([Albers et al.] and
//! [Angel et al.], the papers' refs \[2\] and \[4\]) reduces speed-scaling on
//! multiprocessors to repeated maximum-flow computations. We implement the
//! underlying reduction once as a substrate: a task set is feasible on `m`
//! cores at uniform frequency cap `f` iff the following network admits a
//! flow saturating the source:
//!
//! ```text
//! source ──C_i/f──▶ task_i ──Δ_j──▶ subinterval_j ──m·Δ_j──▶ sink
//!                     (edge iff window covers subinterval)
//! ```
//!
//! This is the exact feasibility oracle; the interval-based conditions in
//! `esched-subinterval::analysis` are its combinatorial shadow. Binary
//! searching the cap over this oracle yields the minimum feasible uniform
//! frequency to any accuracy — the `O(n·f(n)·log U)` scheme of ref \[4\].

// Indexed loops below walk several parallel arrays at once; iterator
// zips would obscure the numerics. Silence clippy's range-loop lint here.
#![allow(clippy::needless_range_loop)]

use esched_subinterval::Timeline;
use esched_types::TaskSet;

/// An edge in the flow network (paired with its reverse).
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    cap: f64,
    /// Capacity the edge was created with (for flow extraction).
    initial_cap: f64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// Opaque handle to an edge, for querying its flow after `max_flow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle {
    from: usize,
    index: usize,
}

/// Dinic's maximum-flow solver over `f64` capacities.
#[derive(Debug, Clone)]
pub struct Dinic {
    graph: Vec<Vec<Edge>>,
    /// Capacities below this are treated as zero when building levels.
    eps: f64,
}

impl Dinic {
    /// Create a network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            graph: vec![Vec::new(); n],
            eps: 1e-12,
        }
    }

    /// Add a directed edge `from → to` with capacity `cap ≥ 0`. Returns a
    /// handle usable with [`Dinic::flow_of`] after [`Dinic::max_flow`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: f64) -> EdgeHandle {
        assert!(cap >= 0.0 && cap.is_finite());
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge {
            to,
            cap,
            initial_cap: cap,
            rev: rev_from,
        });
        self.graph[to].push(Edge {
            to: from,
            cap: 0.0,
            initial_cap: 0.0,
            rev: rev_to,
        });
        EdgeHandle {
            from,
            index: rev_to,
        }
    }

    /// Flow pushed through an edge (valid after [`Dinic::max_flow`]):
    /// `initial capacity − residual capacity`, clamped at 0.
    pub fn flow_of(&self, handle: EdgeHandle) -> f64 {
        let e = &self.graph[handle.from][handle.index];
        (e.initial_cap - e.cap).max(0.0)
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1; self.graph.len()];
        let mut queue = std::collections::VecDeque::new();
        level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for e in &self.graph[v] {
                if e.cap > self.eps && level[e.to] < 0 {
                    level[e.to] = level[v] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        (level[t] >= 0).then_some(level)
    }

    fn dfs_augment(
        &mut self,
        v: usize,
        t: usize,
        pushed: f64,
        level: &[i32],
        iter: &mut [usize],
    ) -> f64 {
        if v == t {
            return pushed;
        }
        while iter[v] < self.graph[v].len() {
            let (to, cap, rev) = {
                let e = &self.graph[v][iter[v]];
                (e.to, e.cap, e.rev)
            };
            if cap > self.eps && level[to] == level[v] + 1 {
                let d = self.dfs_augment(to, t, pushed.min(cap), level, iter);
                if d > self.eps {
                    self.graph[v][iter[v]].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0.0
    }

    /// Compute the maximum flow from `s` to `t`. Consumes the residual
    /// capacities in place (call on a fresh network).
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut iter = vec![0usize; self.graph.len()];
            loop {
                let f = self.dfs_augment(s, t, f64::INFINITY, &level, &mut iter);
                if f <= self.eps {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// Exact schedulability test: can `tasks` be feasibly scheduled on `cores`
/// cores with every frequency at most `f_cap` (preemption + migration
/// allowed)?
pub fn feasible_at_frequency(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> bool {
    assert!(f_cap > 0.0);
    let n = tasks.len();
    let nsub = timeline.len();
    // Nodes: 0 = source, 1..=n tasks, n+1..=n+nsub subintervals, last = sink.
    let source = 0;
    let sink = n + nsub + 1;
    let mut net = Dinic::new(n + nsub + 2);
    let mut required = 0.0;
    for (i, t) in tasks.iter() {
        let need = t.wcec / f_cap;
        required += need;
        net.add_edge(source, 1 + i, need);
        for j in timeline.span(i) {
            net.add_edge(1 + i, 1 + n + j, timeline.delta(j));
        }
    }
    for j in 0..nsub {
        net.add_edge(1 + n + j, sink, cores as f64 * timeline.delta(j));
    }
    let flow = net.max_flow(source, sink);
    flow >= required * (1.0 - 1e-9) - 1e-9
}

/// Compute a feasible per-(task, subinterval) execution-time matrix at
/// uniform frequency `f_cap`, or `None` when the instance is infeasible at
/// that cap. `result[i][j]` is the time task `i` executes during
/// subinterval `j`; row sums equal `C_i / f_cap`.
///
/// This is the constructive counterpart of [`feasible_at_frequency`]: the
/// max-flow's task→subinterval edge flows *are* the execution times.
pub fn feasible_allocation(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> Option<Vec<Vec<f64>>> {
    assert!(f_cap > 0.0);
    let n = tasks.len();
    let nsub = timeline.len();
    let source = 0;
    let sink = n + nsub + 1;
    let mut net = Dinic::new(n + nsub + 2);
    let mut required = 0.0;
    let mut handles: Vec<Vec<(usize, super::flow::EdgeHandle)>> = Vec::with_capacity(n);
    for (i, t) in tasks.iter() {
        let need = t.wcec / f_cap;
        required += need;
        net.add_edge(source, 1 + i, need);
        let mut row = Vec::new();
        for j in timeline.span(i) {
            let h = net.add_edge(1 + i, 1 + n + j, timeline.delta(j));
            row.push((j, h));
        }
        handles.push(row);
    }
    for j in 0..nsub {
        net.add_edge(1 + n + j, sink, cores as f64 * timeline.delta(j));
    }
    let flow = net.max_flow(source, sink);
    if flow < required * (1.0 - 1e-9) - 1e-9 {
        return None;
    }
    let mut x = vec![vec![0.0; nsub]; n];
    for (i, row) in handles.iter().enumerate() {
        for &(j, h) in row {
            x[i][j] = net.flow_of(h);
        }
    }
    Some(x)
}

/// Binary-search the minimum uniform frequency cap at which the instance
/// is feasible, to relative accuracy `tol` — the ref-\[4\] scheme.
pub fn min_frequency_by_flow(tasks: &TaskSet, timeline: &Timeline, cores: usize, tol: f64) -> f64 {
    // Upper bound: serialize everything on one core inside the shortest
    // window — crude but safe.
    let mut hi = tasks
        .iter()
        .map(|(_, t)| t.intensity())
        .fold(0.0_f64, f64::max)
        .max(
            tasks.total_work()
                / timeline
                    .subintervals()
                    .iter()
                    .map(|s| s.delta())
                    .sum::<f64>()
                * tasks.len() as f64,
        )
        .max(1e-12);
    // Make sure hi is actually feasible (double until it is).
    while !feasible_at_frequency(tasks, timeline, cores, hi) {
        hi *= 2.0;
        assert!(hi.is_finite());
    }
    let mut lo = 0.0;
    while hi - lo > tol * (1.0 + hi) {
        let mid = 0.5 * (lo + hi);
        if mid <= 0.0 {
            break;
        }
        if feasible_at_frequency(tasks, timeline, cores, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_subinterval::{min_feasible_frequency, Timeline};
    use esched_types::TaskSet;

    #[test]
    fn dinic_textbook_instance() {
        // Classic 6-node example with known max flow 23.
        let mut d = Dinic::new(6);
        d.add_edge(0, 1, 16.0);
        d.add_edge(0, 2, 13.0);
        d.add_edge(1, 2, 10.0);
        d.add_edge(2, 1, 4.0);
        d.add_edge(1, 3, 12.0);
        d.add_edge(3, 2, 9.0);
        d.add_edge(2, 4, 14.0);
        d.add_edge(4, 3, 7.0);
        d.add_edge(3, 5, 20.0);
        d.add_edge(4, 5, 4.0);
        assert!((d.max_flow(0, 5) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn dinic_disconnected_is_zero() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 5.0);
        d.add_edge(2, 3, 5.0);
        assert_eq!(d.max_flow(0, 3), 0.0);
    }

    #[test]
    fn flow_feasibility_matches_interval_conditions() {
        let ts = TaskSet::from_triples(&[
            (0.0, 4.0, 6.0),
            (1.0, 5.0, 3.0),
            (0.0, 8.0, 2.0),
            (2.0, 6.0, 5.0),
        ]);
        let tl = Timeline::build(&ts);
        for m in [1usize, 2, 3] {
            let f_interval = min_feasible_frequency(&ts, m);
            assert!(
                feasible_at_frequency(&ts, &tl, m, f_interval * (1.0 + 1e-9)),
                "m={m}"
            );
            assert!(
                !feasible_at_frequency(&ts, &tl, m, f_interval * 0.98),
                "m={m}"
            );
            let f_flow = min_frequency_by_flow(&ts, &tl, m, 1e-9);
            assert!(
                (f_flow - f_interval).abs() < 1e-6 * (1.0 + f_interval),
                "m={m}: flow {f_flow} vs interval {f_interval}"
            );
        }
    }

    #[test]
    fn flow_rejects_parallelism_infeasible_instance() {
        // The interval conditions accept this, the flow does not: jobs 0
        // and 1 saturate both cores of [0,2], leaving job 2 only 2 time
        // units for 3 units of work (it cannot run on two cores at once).
        let ts = TaskSet::from_triples(&[(0.0, 2.0, 2.0), (0.0, 2.0, 2.0), (0.0, 4.0, 3.0)]);
        let tl = Timeline::build(&ts);
        assert!(min_feasible_frequency(&ts, 2) <= 1.0 + 1e-12);
        assert!(!feasible_at_frequency(&ts, &tl, 2, 1.0));
        // True minimum: job 2 needs 3/f ≤ 2 + (4 − 4/f) ⇒ f ≥ 7/6.
        let f = min_frequency_by_flow(&ts, &tl, 2, 1e-10);
        assert!((f - 7.0 / 6.0).abs() < 1e-6, "flow minimum {f} vs 7/6");
        assert!(feasible_at_frequency(&ts, &tl, 2, f * (1.0 + 1e-9)));
        assert!(!feasible_at_frequency(&ts, &tl, 2, f * (1.0 - 1e-6)));
    }

    #[test]
    fn feasible_allocation_extracts_a_valid_spread() {
        let ts = TaskSet::from_triples(&[(0.0, 2.0, 2.0), (0.0, 2.0, 2.0), (0.0, 4.0, 3.0)]);
        let tl = Timeline::build(&ts);
        let f = min_frequency_by_flow(&ts, &tl, 2, 1e-10) * (1.0 + 1e-9);
        let x = feasible_allocation(&ts, &tl, 2, f).expect("feasible at flow minimum");
        // Row sums = C_i / f.
        for (i, t) in ts.iter() {
            let sum: f64 = x[i].iter().sum();
            assert!(
                (sum - t.wcec / f).abs() < 1e-6,
                "task {i}: {sum} vs {}",
                t.wcec / f
            );
        }
        // Column sums within capacity; entries within Δ.
        for j in 0..tl.len() {
            let col: f64 = (0..ts.len()).map(|i| x[i][j]).sum();
            assert!(col <= 2.0 * tl.delta(j) + 1e-9);
            for i in 0..ts.len() {
                assert!(x[i][j] <= tl.delta(j) + 1e-9);
            }
        }
    }

    #[test]
    fn intro_example_feasible_on_two_cores_at_unit_frequency() {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        assert!(feasible_at_frequency(&ts, &tl, 2, 1.0));
        // τ3 alone forces f ≥ 1, so 0.9 is infeasible on any core count.
        assert!(!feasible_at_frequency(&ts, &tl, 8, 0.9));
    }
}
