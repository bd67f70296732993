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
//! `esched-subinterval::analysis` are its combinatorial shadow. The
//! minimum feasible uniform frequency needs no search over this oracle:
//! it is `1/λ₁`, the first level of the exact solver's decomposition
//! ([`crate::exact::min_uniform_frequency`]).

// Indexed loops below walk several parallel arrays at once; iterator
// zips would obscure the numerics. Silence clippy's range-loop lint here.
#![allow(clippy::needless_range_loop)]

use esched_subinterval::Timeline;
use esched_types::TaskSet;

/// Relative eps of the schedulability networks: capacities below this
/// fraction of the mean source capacity count as zero. It sits above the
/// rounding of a sum of flows (~1e-16 relative) and far below any real
/// capacity of these instances.
const FEASIBILITY_EPS: f64 = 1e-15;

/// An edge of the residual network.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    /// Index of the reverse edge in the edge array.
    rev: usize,
    cap: f64,
    /// Net flow pushed through the edge, summed push by push: read back
    /// as capacity minus residual, a small flow on a large edge would
    /// lose its low bits.
    flow: f64,
}

/// Opaque handle to an edge, for querying its flow after `max_flow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle(usize);

/// Dinic's maximum-flow solver over `f64` capacities.
///
/// Edges are staged as they are added and laid out once per flow in
/// compressed rows (each node's edges contiguous, in the order they were
/// added), in buffers that [`Dinic::reset`] keeps: a caller that solves
/// many networks in a row, like the exact solver's splits, allocates only
/// for the largest. The eps is per network: capacities at or below it
/// count as zero, so it should sit a little above the rounding of the
/// network's flow values.
#[derive(Debug, Clone)]
pub struct Dinic {
    /// Added edges `(from, to, cap)`, in order.
    arcs: Vec<(usize, usize, f64)>,
    /// Node `v`'s edges are `edges[first[v]..first[v + 1]]`.
    first: Vec<usize>,
    edges: Vec<Edge>,
    /// Position in `edges` of each added edge.
    pos: Vec<usize>,
    /// BFS distance from the source; after [`Dinic::max_flow`], `≥ 0`
    /// exactly on the nodes reachable from it in the residual network.
    level: Vec<i32>,
    /// Next edge of each node in the blocking-flow search.
    iter: Vec<usize>,
    queue: Vec<usize>,
    nodes: usize,
    eps: f64,
}

impl Dinic {
    /// Create a network with `n` nodes whose capacities at or below `eps`
    /// count as zero.
    pub fn new(n: usize, eps: f64) -> Self {
        let mut d = Self {
            arcs: Vec::new(),
            first: Vec::new(),
            edges: Vec::new(),
            pos: Vec::new(),
            level: Vec::new(),
            iter: Vec::new(),
            queue: Vec::new(),
            nodes: 0,
            eps: 0.0,
        };
        d.reset(n, eps);
        d
    }

    /// Empty the network and size it for `n` nodes with a new `eps`,
    /// keeping the buffers' memory.
    pub fn reset(&mut self, n: usize, eps: f64) {
        assert!(eps >= 0.0 && eps.is_finite());
        self.arcs.clear();
        self.level.clear();
        self.level.resize(n, -1);
        self.nodes = n;
        self.eps = eps;
    }

    /// Add a directed edge `from → to` with capacity `cap ≥ 0`. Returns a
    /// handle usable with [`Dinic::flow_of`] after [`Dinic::max_flow`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: f64) -> EdgeHandle {
        assert!(cap >= 0.0 && cap.is_finite());
        assert!(from < self.nodes && to < self.nodes);
        self.arcs.push((from, to, cap));
        EdgeHandle(self.arcs.len() - 1)
    }

    /// Flow pushed through an edge (valid after [`Dinic::max_flow`]),
    /// clamped at 0.
    pub fn flow_of(&self, handle: EdgeHandle) -> f64 {
        self.edges[self.pos[handle.0]].flow.max(0.0)
    }

    /// Whether `v` is reachable from the source in the residual network
    /// through edges of capacity above eps: after [`Dinic::max_flow`], the
    /// source side of the minimum cut whose source side is smallest.
    pub fn on_source_side(&self, v: usize) -> bool {
        self.level[v] >= 0
    }

    /// Lay the added edges and their reverses out in compressed rows.
    fn build(&mut self) {
        let n = self.nodes;
        self.first.clear();
        self.first.resize(n + 1, 0);
        for &(from, to, _) in &self.arcs {
            self.first[from + 1] += 1;
            self.first[to + 1] += 1;
        }
        for v in 0..n {
            self.first[v + 1] += self.first[v];
        }
        // `iter` doubles as each row's fill cursor.
        self.iter.clear();
        self.iter.extend_from_slice(&self.first[..n]);
        let blank = Edge {
            to: 0,
            rev: 0,
            cap: 0.0,
            flow: 0.0,
        };
        self.edges.clear();
        self.edges.resize(2 * self.arcs.len(), blank);
        self.pos.clear();
        for &(from, to, cap) in &self.arcs {
            let (f, r) = (self.iter[from], self.iter[to]);
            self.iter[from] += 1;
            self.iter[to] += 1;
            self.edges[f] = Edge {
                to,
                rev: r,
                cap,
                flow: 0.0,
            };
            self.edges[r] = Edge {
                to: from,
                rev: f,
                ..blank
            };
            self.pos.push(f);
        }
    }

    fn bfs_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s);
        let mut q = 0;
        while q < self.queue.len() {
            let v = self.queue[q];
            q += 1;
            for e in &self.edges[self.first[v]..self.first[v + 1]] {
                if e.cap > self.eps && self.level[e.to] < 0 {
                    self.level[e.to] = self.level[v] + 1;
                    self.queue.push(e.to);
                }
            }
        }
        self.level[t] >= 0
    }

    /// Push up to `limit` from `v` toward `t` along the level graph; returns
    /// the amount pushed. A node's next edge advances only past edges that
    /// are saturated or lead to a blocked node, so one call per phase finds
    /// a blocking flow.
    fn push(&mut self, v: usize, t: usize, limit: f64) -> f64 {
        if v == t {
            return limit;
        }
        let mut pushed = 0.0;
        while self.iter[v] < self.first[v + 1] {
            let e = self.iter[v];
            let Edge { to, rev, cap, .. } = self.edges[e];
            if cap > self.eps && self.level[to] == self.level[v] + 1 {
                let d = self.push(to, t, (limit - pushed).min(cap));
                if d > 0.0 {
                    self.edges[e].cap -= d;
                    self.edges[e].flow += d;
                    self.edges[rev].cap += d;
                    self.edges[rev].flow -= d;
                    pushed += d;
                    if limit - pushed <= self.eps {
                        return pushed;
                    }
                }
            }
            self.iter[v] += 1;
        }
        pushed
    }

    /// Compute the maximum flow from `s` to `t` over the edges added since
    /// the last [`Dinic::reset`] (or [`Dinic::new`]).
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        self.build();
        let mut flow = 0.0;
        while self.bfs_levels(s, t) {
            self.iter.clear();
            self.iter.extend_from_slice(&self.first[..self.nodes]);
            loop {
                let f = self.push(s, t, f64::INFINITY);
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
/// allowed)? The flow must route all but `1e-12` (relative) of the demand.
pub fn feasible_at_frequency(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> bool {
    feasibility_network(tasks, timeline, cores, f_cap).is_some()
}

/// The schedulability network at `f_cap` after its maximum flow, with the
/// handles of its task → subinterval edges per task, or `None` when the
/// flow falls short of the demand by more than `1e-12` relative.
#[allow(clippy::type_complexity)]
fn feasibility_network(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    f_cap: f64,
) -> Option<(Dinic, Vec<Vec<(usize, EdgeHandle)>>)> {
    assert!(f_cap > 0.0);
    let n = tasks.len();
    let nsub = timeline.len();
    // Nodes: 0 = source, 1..=n tasks, n+1..=n+nsub subintervals, last = sink.
    let source = 0;
    let sink = n + nsub + 1;
    let required = tasks.total_work() / f_cap;
    let mut net = Dinic::new(n + nsub + 2, FEASIBILITY_EPS * required / n.max(1) as f64);
    let mut handles = Vec::with_capacity(n);
    for (i, t) in tasks.iter() {
        net.add_edge(source, 1 + i, t.wcec / f_cap);
        let row = timeline
            .span(i)
            .map(|j| (j, net.add_edge(1 + i, 1 + n + j, timeline.delta(j))))
            .collect();
        handles.push(row);
    }
    for j in 0..nsub {
        net.add_edge(1 + n + j, sink, cores as f64 * timeline.delta(j));
    }
    let flow = net.max_flow(source, sink);
    (flow >= required * (1.0 - 1e-12)).then_some((net, handles))
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
    let (net, handles) = feasibility_network(tasks, timeline, cores, f_cap)?;
    let mut x = vec![vec![0.0; timeline.len()]; tasks.len()];
    for (i, row) in handles.iter().enumerate() {
        for &(j, h) in row {
            x[i][j] = net.flow_of(h);
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::min_uniform_frequency;
    use esched_subinterval::{min_feasible_frequency, Timeline};
    use esched_types::TaskSet;

    #[test]
    fn dinic_textbook_instance() {
        // Classic 6-node example with known max flow 23.
        let mut d = Dinic::new(6, 1e-12);
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
        let mut d = Dinic::new(4, 1e-12);
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
            let f_flow = min_uniform_frequency(&ts, &tl, m);
            assert!(
                (f_flow - f_interval).abs() < 1e-12 * f_interval,
                "m={m}: flow {f_flow} vs interval {f_interval}"
            );
            assert!(feasible_at_frequency(&ts, &tl, m, f_flow * (1.0 + 1e-9)));
            assert!(!feasible_at_frequency(&ts, &tl, m, f_flow * (1.0 - 1e-9)));
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
        let f = min_uniform_frequency(&ts, &tl, 2);
        assert!((f - 7.0 / 6.0).abs() < 1e-12, "flow minimum {f} vs 7/6");
        assert!(feasible_at_frequency(&ts, &tl, 2, f * (1.0 + 1e-9)));
        assert!(!feasible_at_frequency(&ts, &tl, 2, f * (1.0 - 1e-9)));
    }

    #[test]
    fn feasible_allocation_extracts_a_valid_spread() {
        let ts = TaskSet::from_triples(&[(0.0, 2.0, 2.0), (0.0, 2.0, 2.0), (0.0, 4.0, 3.0)]);
        let tl = Timeline::build(&ts);
        let f = min_uniform_frequency(&ts, &tl, 2) * (1.0 + 1e-9);
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
