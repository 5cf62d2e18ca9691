//! Integer maximum flow via Dinic's algorithm.
//!
//! Substrate for the Pfair *schedulability oracle*
//! (`pfair-analysis::schedulability`) and the flow-network scheduling
//! engine (`pfair-sim::flow`): the classical feasibility proofs for (G)IS
//! task systems [Baruah et al.; Anderson & Srinivasan] reduce "a valid
//! schedule exists" to "a bipartite flow saturates", with subtasks feeding
//! per-(task, slot) exclusivity nodes feeding slot nodes of capacity `M`.
//! The oracle cross-checks the simulators without sharing any code with
//! them, so this is deliberately a separate, dependency-free crate.
//!
//! The implementation is Dinic: a BFS level graph, then a blocking flow
//! found by repeated DFS with per-node arc iterators. Two details keep it
//! cheap on the small, incrementally grown networks its users build:
//!
//! * **Flat arc lists.** Arcs live in one array; each node keeps its first
//!   and last arc and each arc the next arc of its node. A new arc is
//!   appended at its node's tail, so every node scans its arcs in
//!   insertion order — the order that decides which of several maximum
//!   flows Dinic returns, and so the schedules and witnesses its users
//!   read off the flow.
//! * **Reused scratch.** The levels, arc iterators, BFS queue and DFS path
//!   live in the network and are reused across phases and across
//!   incremental [`FlowNetwork::max_flow`] calls; a phase resets only the
//!   levels its previous BFS labelled. The BFS stops expanding at the
//!   sink's level: nodes at or past it cannot lie on a shortest path to
//!   the sink, so the blocking flow is the same without them.
//!
//! Dinic runs in `O(E·√V)` on *unit* networks. The scheduling networks are
//! unit except for the `slot → sink` arcs, which carry `M`; there the
//! general `O(V²·E)` bound is what holds, though at simulation scale a
//! solve takes a handful of phases.
//!
//! ```
//! use pfair_maxflow::FlowNetwork;
//! let mut net = FlowNetwork::new(4); // s=0, a=1, b=2, t=3
//! net.add_edge(0, 1, 2);
//! net.add_edge(0, 2, 1);
//! net.add_edge(1, 3, 1);
//! net.add_edge(2, 3, 2);
//! assert_eq!(net.max_flow(0, 3), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// End of an arc list, and the level of a node the last BFS did not reach.
const NIL: u32 = u32::MAX;

/// A directed flow network with integer capacities.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// First arc out of each node (`NIL` when none).
    head: Vec<u32>,
    /// Last arc out of each node, where the next one is appended.
    tail: Vec<u32>,
    /// Flat arc list; arc `2k+1` is the residual twin of arc `2k`.
    arcs: Vec<Arc>,
    /// BFS level of each node in the current phase (`NIL` if unreached).
    level: Vec<u32>,
    /// Per-node DFS iterator: the next arc to try in this phase.
    iter: Vec<u32>,
    /// The nodes the last BFS labelled, in visit order (its queue).
    queue: Vec<u32>,
    /// The arcs of the DFS path from the source (empty between phases).
    path: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
struct Arc {
    to: u32,
    /// Next arc out of the same node (`NIL` at the end of its list).
    next: u32,
    cap: i64,
}

/// Handle to an edge, for querying its flow after [`FlowNetwork::max_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeId(u32);

impl FlowNetwork {
    /// A network with `n` nodes and no edges.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (node ids are `u32`).
    #[must_use]
    pub fn new(n: usize) -> FlowNetwork {
        u32::try_from(n).expect("flow network: at most u32::MAX nodes (node ids are u32)");
        FlowNetwork {
            head: vec![NIL; n],
            tail: vec![NIL; n],
            arcs: Vec::new(),
            level: vec![NIL; n],
            iter: vec![NIL; n],
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.head.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap ≥ 0`; returns a
    /// handle for flow queries.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, negative capacity, or past
    /// `u32::MAX` arcs (two per edge), where an [`EdgeId`] would alias.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> EdgeId {
        let n = self.head.len();
        assert!(from < n && to < n, "node out of range");
        assert!(cap >= 0, "negative capacity");
        // Arc ids stay below `NIL`, so the end of the list never aliases one.
        let end = u32::try_from(self.arcs.len() + 2)
            .expect("flow network: at most u32::MAX arcs (two per edge; EdgeId is a u32)");
        let id = end - 2;
        // Node ids fit `u32`: `new` bounds the node count.
        let (from_id, to_id) = (from as u32, to as u32);
        self.arcs.push(Arc {
            to: to_id,
            next: NIL,
            cap,
        });
        self.arcs.push(Arc {
            to: from_id,
            next: NIL,
            cap: 0,
        });
        self.append(from, id);
        self.append(to, id + 1);
        EdgeId(id)
    }

    /// Appends arc `a` at the tail of `node`'s arc list.
    fn append(&mut self, node: usize, a: u32) {
        match self.tail[node] {
            NIL => self.head[node] = a,
            last => self.arcs[last as usize].next = a,
        }
        self.tail[node] = a;
    }

    /// Flow currently on an edge (meaningful after [`Self::max_flow`]).
    #[must_use]
    pub fn flow(&self, e: EdgeId) -> i64 {
        // Flow pushed = residual twin's capacity.
        self.arcs[e.0 as usize + 1].cap
    }

    /// Augments the `s → t` flow to its maximum (Dinic) and returns the
    /// flow **added by this call**. The network holds its residual state
    /// between calls, so the method is *incremental*: callers may add
    /// edges with [`Self::add_edge`] after a solve and call `max_flow`
    /// again — only the new augmenting paths are found, previous flow is
    /// never recomputed (the flow-network scheduling engine patches its
    /// per-task demand into the graph this way). The cumulative flow is
    /// the sum of the values returned across calls; per-edge flow is
    /// interrogated via [`Self::flow`].
    ///
    /// # Panics
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert_ne!(s, t, "source equals sink");
        let n = self.head.len();
        assert!(s < n && t < n, "node out of range");
        let mut total = 0i64;
        while self.bfs(s, t) {
            total += self.blocking_flow(s, t);
        }
        total
    }

    /// Labels the level graph from `s`; `true` iff it reaches `t`.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        for &u in &self.queue {
            self.level[u as usize] = NIL;
        }
        self.queue.clear();
        self.level[s] = 0;
        self.iter[s] = self.head[s];
        self.queue.push(s as u32);
        let mut front = 0;
        while let Some(&u) = self.queue.get(front) {
            front += 1;
            let lu = self.level[u as usize];
            // Levels pop in order: once at the sink's level, every node left
            // is a dead end of the level graph.
            if lu >= self.level[t] {
                break;
            }
            let mut a = self.head[u as usize];
            while a != NIL {
                let Arc { to, next, cap } = self.arcs[a as usize];
                if cap > 0 && self.level[to as usize] == NIL {
                    self.level[to as usize] = lu + 1;
                    self.iter[to as usize] = self.head[to as usize];
                    self.queue.push(to);
                }
                a = next;
            }
        }
        self.level[t] != NIL
    }

    /// Saturates the level graph by repeated DFS from `s` along each
    /// node's arc iterator; returns the flow pushed. An iterator moves past
    /// an arc only when the DFS retreats through it, so the next search
    /// from `s` resumes where the last one left off.
    fn blocking_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut pushed = 0i64;
        let mut u = s;
        loop {
            if u == t {
                let bottleneck = self
                    .path
                    .iter()
                    .map(|&a| self.arcs[a as usize].cap)
                    .min()
                    .expect("a path to the sink has an arc");
                for &a in &self.path {
                    let a = a as usize;
                    self.arcs[a].cap -= bottleneck;
                    self.arcs[a ^ 1].cap += bottleneck;
                }
                pushed += bottleneck;
                self.path.clear();
                u = s;
                continue;
            }
            let want = self.level[u] + 1;
            let mut a = self.iter[u];
            while a != NIL {
                let arc = self.arcs[a as usize];
                if arc.cap > 0 && self.level[arc.to as usize] == want {
                    break;
                }
                a = arc.next;
            }
            self.iter[u] = a;
            if a == NIL {
                // Dead end: retreat, and move the parent past this arc.
                let Some(back) = self.path.pop() else {
                    return pushed;
                };
                // The parent is the tail of `back`, the head of its twin.
                u = self.arcs[back as usize ^ 1].to as usize;
                self.iter[u] = self.arcs[back as usize].next;
            } else {
                self.path.push(a);
                u = self.arcs[a as usize].to as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trivial_path() {
        let mut net = FlowNetwork::new(3);
        let e = net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
        assert_eq!(net.flow(e), 3);
    }

    #[test]
    fn parallel_paths() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 2);
        assert_eq!(net.max_flow(0, 3), 4);
    }

    #[test]
    fn classic_textbook_instance() {
        // CLRS figure: max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 9);
        net.add_edge(2, 3, 9);
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn residual_reroute_needed() {
        // Flow must reroute through the residual edge to reach 2.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn incremental_reaugment_matches_fresh_solve() {
        // Solve, then patch in new edges and re-solve: the cumulative flow
        // and every per-edge flow must match a fresh single-shot solve on
        // the full graph. (The flow-network scheduling engine adds one
        // task's demand at a time and re-augments; this is the contract it
        // leans on.)
        let full_edges: &[(usize, usize, i64)] = &[
            (0, 1, 3),
            (0, 2, 2),
            (1, 3, 2),
            (1, 4, 2),
            (2, 4, 2),
            (3, 5, 3),
            (4, 5, 2),
        ];
        let mut fresh = FlowNetwork::new(6);
        for &(a, b, c) in full_edges {
            fresh.add_edge(a, b, c);
        }
        let fresh_total = fresh.max_flow(0, 5);

        let mut inc = FlowNetwork::new(6);
        let mut inc_ids = Vec::new();
        let mut inc_total = 0;
        for chunk in full_edges.chunks(3) {
            for &(a, b, c) in chunk {
                inc_ids.push((inc.add_edge(a, b, c), a, b, c));
            }
            inc_total += inc.max_flow(0, 5);
        }
        assert_eq!(inc_total, fresh_total);
        // The incremental result is still a valid flow: within capacity on
        // every edge, conserved at every interior node. (Flow *values* per
        // edge may legitimately differ from the fresh solve's — max-flow
        // decompositions are not unique.)
        let mut net_at: [i64; 6] = [0; 6];
        for &(id, a, b, c) in &inc_ids {
            let f = inc.flow(id);
            assert!(f >= 0 && f <= c, "edge {a}->{b}: flow {f} outside [0, {c}]");
            net_at[a] -= f;
            net_at[b] += f;
        }
        for (node, &nf) in net_at.iter().enumerate() {
            if node != 0 && node != 5 {
                assert_eq!(nf, 0, "conservation violated at node {node}");
            }
        }
        assert_eq!(net_at[5], inc_total);
    }

    #[test]
    fn resolve_without_new_edges_adds_nothing() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 4);
        net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.max_flow(0, 2), 0, "saturated: second call is a no-op");
    }

    #[test]
    fn bipartite_matching_shape() {
        // 3 left, 3 right, perfect matching exists.
        let mut net = FlowNetwork::new(8); // s,l0..2,r0..2,t
        for l in 1..=3 {
            net.add_edge(0, l, 1);
        }
        for r in 4..=6 {
            net.add_edge(r, 7, 1);
        }
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 5, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(net.max_flow(0, 7), 3);
    }

    /// The adjacency-vector Dinic this crate shipped before the flat arc
    /// lists: the reference the kernel must match arc for arc.
    struct Reference {
        adj: Vec<Vec<u32>>,
        edges: Vec<(usize, i64)>,
    }

    impl Reference {
        fn new(n: usize) -> Reference {
            Reference {
                adj: vec![Vec::new(); n],
                edges: Vec::new(),
            }
        }

        fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> usize {
            let id = self.edges.len();
            self.edges.push((to, cap));
            self.edges.push((from, 0));
            self.adj[from].push(id as u32);
            self.adj[to].push(id as u32 + 1);
            id
        }

        fn flow(&self, e: usize) -> i64 {
            self.edges[e + 1].1
        }

        fn max_flow(&mut self, s: usize, t: usize) -> i64 {
            let n = self.adj.len();
            let mut total = 0i64;
            let mut level = vec![-1i32; n];
            let mut it = vec![0usize; n];
            loop {
                level.iter_mut().for_each(|l| *l = -1);
                level[s] = 0;
                let mut queue = std::collections::VecDeque::from([s]);
                while let Some(u) = queue.pop_front() {
                    for &eid in &self.adj[u] {
                        let (to, cap) = self.edges[eid as usize];
                        if cap > 0 && level[to] < 0 {
                            level[to] = level[u] + 1;
                            queue.push_back(to);
                        }
                    }
                }
                if level[t] < 0 {
                    return total;
                }
                it.iter_mut().for_each(|i| *i = 0);
                loop {
                    let pushed = self.dfs(s, t, i64::MAX, &level, &mut it);
                    if pushed == 0 {
                        break;
                    }
                    total += pushed;
                }
            }
        }

        fn dfs(&mut self, u: usize, t: usize, limit: i64, level: &[i32], it: &mut [usize]) -> i64 {
            if u == t {
                return limit;
            }
            while it[u] < self.adj[u].len() {
                let eid = self.adj[u][it[u]] as usize;
                let (v, cap) = self.edges[eid];
                if cap > 0 && level[v] == level[u] + 1 {
                    let pushed = self.dfs(v, t, limit.min(cap), level, it);
                    if pushed > 0 {
                        self.edges[eid].1 -= pushed;
                        self.edges[eid ^ 1].1 += pushed;
                        return pushed;
                    }
                }
                it[u] += 1;
            }
            0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Differential against the reference Dinic: over 1–4 rounds of
        /// `add_edge` then `max_flow` on random graphs (parallel arcs,
        /// self-loops and zero capacities included), every round returns
        /// the same added flow and leaves the same flow on every edge; a
        /// repeated solve of the saturated network adds 0 and moves none.
        #[test]
        fn prop_matches_reference_dinic(
            n in 2usize..12,
            rounds in proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..12, 0i64..6, 0usize..3), 1..24),
                1..5,
            ),
        ) {
            let (s, t) = (0, n - 1);
            let mut net = FlowNetwork::new(n);
            let mut reference = Reference::new(n);
            let mut ids = Vec::new();
            for round in &rounds {
                for &(a, b, c, copies) in round {
                    // `copies` parallel arcs between the same endpoints.
                    for _ in 0..=copies {
                        ids.push((net.add_edge(a % n, b % n, c), reference.add_edge(a % n, b % n, c)));
                    }
                }
                prop_assert_eq!(net.max_flow(s, t), reference.max_flow(s, t));
                for &(e, r) in &ids {
                    prop_assert_eq!(net.flow(e), reference.flow(r));
                }
                prop_assert_eq!(net.max_flow(s, t), 0);
                for &(e, r) in &ids {
                    prop_assert_eq!(net.flow(e), reference.flow(r));
                }
            }
        }

        /// Max flow never exceeds the out-capacity of the source or the
        /// in-capacity of the sink, and equals the brute-force min cut on
        /// tiny random graphs.
        #[test]
        fn prop_bounded_by_source_and_sink(edges in proptest::collection::vec((0usize..6, 0usize..6, 0i64..8), 1..20)) {
            let mut net = FlowNetwork::new(6);
            let mut src_cap = 0i64;
            let mut sink_cap = 0i64;
            for &(a, b, c) in &edges {
                if a != b {
                    net.add_edge(a, b, c);
                    if a == 0 { src_cap += c; }
                    if b == 5 { sink_cap += c; }
                }
            }
            let f = net.max_flow(0, 5);
            prop_assert!(f >= 0 && f <= src_cap && f <= sink_cap);
        }

        /// Flow conservation: per edge, 0 ≤ flow ≤ capacity.
        #[test]
        fn prop_flows_within_capacity(edges in proptest::collection::vec((0usize..5, 0usize..5, 0i64..6), 1..15)) {
            let mut net = FlowNetwork::new(5);
            let mut ids = Vec::new();
            for &(a, b, c) in &edges {
                if a != b {
                    ids.push((net.add_edge(a, b, c), c));
                }
            }
            let _ = net.max_flow(0, 4);
            for (id, cap) in ids {
                let f = net.flow(id);
                prop_assert!(f >= 0 && f <= cap);
            }
        }
    }
}
