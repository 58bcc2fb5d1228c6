//! Attributed graphs with ground-truth communities.
//!
//! Matches the paper's data model (§III): nodes may carry a set of discrete
//! attributes (one-hot encodable), and the graph carries ground-truth
//! communities that may overlap (e.g. DBLP venues, Facebook circles).
//! Community ids are stable under subgraph induction so a task subgraph can
//! still refer to the global community structure.

use crate::graph::Graph;

/// One applied live mutation, logged so epoch-tagged consumers (operator
/// caches, feature matrices) can refresh exactly the rows a delta
/// touched instead of rebuilding from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphMutation {
    /// Undirected edge `{u, v}` was inserted.
    EdgeInserted { u: usize, v: usize },
    /// Node `v` was appended (isolated; attributes set at creation).
    NodeAdded { v: usize },
}

/// Mutations retained for incremental consumers. Older history is
/// truncated; consumers that fall further behind than this must do a
/// coarse epoch-swap rebuild instead of a per-row refresh.
const MAX_MUTATION_LOG: usize = 4096;

/// An undirected graph plus node attributes and ground-truth communities.
#[derive(Clone, Debug)]
pub struct AttributedGraph {
    graph: Graph,
    /// Total number of distinct attributes (`|A|` in the paper).
    n_attrs: usize,
    /// Sorted attribute ids per node (empty for non-attributed datasets).
    attrs: Vec<Vec<u32>>,
    /// Ground-truth communities as sorted node lists; may overlap.
    communities: Vec<Vec<u32>>,
    /// Sorted community ids per node (inverse of `communities`).
    node_comms: Vec<Vec<u32>>,
    /// Monotonically increasing version: bumped once per applied
    /// mutation, `0` for any freshly constructed graph.
    epoch: u64,
    /// Recent mutations, `log[i]` taking the graph from epoch
    /// `log_start + i` to `log_start + i + 1`.
    log: Vec<GraphMutation>,
    /// Epoch the first retained log entry applies to.
    log_start: u64,
    /// Mutations silently dropped from the front of the log because the
    /// graph moved more than [`MAX_MUTATION_LOG`] epochs past a reader.
    log_evictions: u64,
}

impl AttributedGraph {
    /// Assembles an attributed graph.
    ///
    /// # Panics
    /// Panics if attribute/community ids are out of range or per-node lists
    /// do not match the node count.
    pub fn new(
        graph: Graph,
        n_attrs: usize,
        mut attrs: Vec<Vec<u32>>,
        mut communities: Vec<Vec<u32>>,
    ) -> Self {
        let n = graph.n();
        assert_eq!(attrs.len(), n, "attrs must have one entry per node");
        for a in &mut attrs {
            a.sort_unstable();
            a.dedup();
            if let Some(&max) = a.last() {
                assert!((max as usize) < n_attrs, "attribute id out of range");
            }
        }
        let mut node_comms: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (cid, members) in communities.iter_mut().enumerate() {
            members.sort_unstable();
            members.dedup();
            for &v in members.iter() {
                assert!((v as usize) < n, "community member out of range");
                node_comms[v as usize].push(cid as u32);
            }
        }
        Self {
            graph,
            n_attrs,
            attrs,
            communities,
            node_comms,
            epoch: 0,
            log: Vec::new(),
            log_start: 0,
            log_evictions: 0,
        }
    }

    /// Rebuilds a graph from persisted state (a durability snapshot) at a
    /// non-zero starting epoch. Validation mirrors [`AttributedGraph::new`]
    /// but returns `Err` instead of panicking — snapshot files are
    /// untrusted input. The mutation log starts empty with
    /// `log_start == epoch`, so `mutations_since(epoch)` is `Some(&[])`:
    /// consumers prepared against the restored graph refresh incrementally
    /// from here on, exactly as they would on a never-restarted graph.
    pub fn restore_at_epoch(
        graph: Graph,
        n_attrs: usize,
        mut attrs: Vec<Vec<u32>>,
        mut communities: Vec<Vec<u32>>,
        epoch: u64,
    ) -> Result<Self, String> {
        let n = graph.n();
        if attrs.len() != n {
            return Err(format!("attrs has {} entries for {n} nodes", attrs.len()));
        }
        for a in &mut attrs {
            a.sort_unstable();
            a.dedup();
            if let Some(&max) = a.last() {
                if max as usize >= n_attrs {
                    return Err(format!(
                        "attribute id {max} out of range (n_attrs {n_attrs})"
                    ));
                }
            }
        }
        let mut node_comms: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (cid, members) in communities.iter_mut().enumerate() {
            members.sort_unstable();
            members.dedup();
            for &v in members.iter() {
                if v as usize >= n {
                    return Err(format!(
                        "community {cid} member {v} out of range ({n} nodes)"
                    ));
                }
                node_comms[v as usize].push(cid as u32);
            }
        }
        Ok(Self {
            graph,
            n_attrs,
            attrs,
            communities,
            node_comms,
            epoch,
            log: Vec::new(),
            log_start: epoch,
            log_evictions: 0,
        })
    }

    /// A graph with no attributes and no communities.
    pub fn plain(graph: Graph) -> Self {
        let n = graph.n();
        Self::new(graph, 0, vec![Vec::new(); n], Vec::new())
    }

    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    #[inline]
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Total number of distinct attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// True when the dataset has node attributes at all (Cora, Citeseer,
    /// Facebook in the paper; Arxiv/DBLP/Reddit do not).
    pub fn has_attributes(&self) -> bool {
        self.n_attrs > 0
    }

    /// Sorted attribute ids of node `v`.
    #[inline]
    pub fn attrs_of(&self, v: usize) -> &[u32] {
        &self.attrs[v]
    }

    /// True if node `v` carries attribute `a`.
    pub fn has_attr(&self, v: usize, a: u32) -> bool {
        self.attrs[v].binary_search(&a).is_ok()
    }

    /// Number of attributes shared by `u` and `v`.
    pub fn shared_attr_count(&self, u: usize, v: usize) -> usize {
        let (a, b) = (&self.attrs[u], &self.attrs[v]);
        let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    c += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        c
    }

    /// Number of ground-truth communities.
    #[inline]
    pub fn n_communities(&self) -> usize {
        self.communities.len()
    }

    /// Sorted member list of community `cid`.
    #[inline]
    pub fn community_members(&self, cid: usize) -> &[u32] {
        &self.communities[cid]
    }

    /// Sorted community ids node `v` belongs to.
    #[inline]
    pub fn communities_of(&self, v: usize) -> &[u32] {
        &self.node_comms[v]
    }

    /// The ground-truth community of a query node `q`: the union of all
    /// communities containing `q` (the paper's `C_q(G)`), as a mask
    /// excluding nothing. Empty mask if `q` is unlabelled.
    pub fn query_community_mask(&self, q: usize) -> Vec<bool> {
        let mut mask = vec![false; self.n()];
        for &cid in &self.node_comms[q] {
            for &v in &self.communities[cid as usize] {
                mask[v as usize] = true;
            }
        }
        mask
    }

    /// True if `u` and `v` share at least one ground-truth community.
    pub fn same_community(&self, u: usize, v: usize) -> bool {
        let (a, b) = (&self.node_comms[u], &self.node_comms[v]);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// A copy with all node attributes removed (communities kept). Used by
    /// cross-domain (MGDD) experiments where the two domains' attribute
    /// vocabularies are incompatible, so only the structural feature
    /// pathway is shared.
    pub fn without_attributes(&self) -> AttributedGraph {
        AttributedGraph {
            graph: self.graph.clone(),
            n_attrs: 0,
            attrs: vec![Vec::new(); self.n()],
            communities: self.communities.clone(),
            node_comms: self.node_comms.clone(),
            epoch: 0,
            log: Vec::new(),
            log_start: 0,
            log_evictions: 0,
        }
    }

    /// Current graph epoch: `0` at construction, `+1` per applied
    /// mutation. Consumers tag derived state (operators, features) with
    /// the epoch it was built at and refresh when the graph moves on.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutations that take the graph from `since` to the current
    /// epoch, oldest first (empty when already current). `None` when that
    /// history is no longer retained — the caller is too far behind for a
    /// per-row refresh and must rebuild from scratch.
    pub fn mutations_since(&self, since: u64) -> Option<&[GraphMutation]> {
        if since > self.epoch || since < self.log_start {
            return None;
        }
        Some(&self.log[(since - self.log_start) as usize..])
    }

    /// Total mutations evicted from the log since construction (surfaced
    /// through the serve summary). While it reads 0 no consumer can have
    /// been forced onto a rebuild; past that, one that falls more than
    /// [`MAX_MUTATION_LOG`] epochs behind is.
    #[inline]
    pub fn log_evictions(&self) -> u64 {
        self.log_evictions
    }

    fn record(&mut self, m: GraphMutation) {
        self.epoch += 1;
        self.log.push(m);
        if self.log.len() > MAX_MUTATION_LOG {
            let drop = self.log.len() - MAX_MUTATION_LOG;
            self.log.drain(..drop);
            self.log_start += drop as u64;
            self.log_evictions += drop as u64;
        }
    }

    /// Inserts the undirected edge `{u, v}` live. Returns `true` (and
    /// bumps the epoch) when the edge is new; `Ok(false)` when it already
    /// exists — an idempotent no-op that leaves the epoch unchanged.
    /// Out-of-range endpoints and self-loops are errors, not panics:
    /// wire-facing callers route untrusted deltas here.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> Result<bool, String> {
        let n = self.n();
        if u >= n || v >= n {
            return Err(format!("edge ({u},{v}) out of range (graph has {n} nodes)"));
        }
        if u == v {
            return Err(format!("self-loop ({u},{u}) rejected"));
        }
        if self.graph.insert_edge(u, v).is_none() {
            return Ok(false);
        }
        self.record(GraphMutation::EdgeInserted { u, v });
        Ok(true)
    }

    /// Appends an isolated node carrying `attrs` and returns its id. The
    /// attribute vocabulary is fixed (`|A|` is baked into every model's
    /// input width), so ids must be `< n_attrs()`.
    pub fn add_node(&mut self, mut attrs: Vec<u32>) -> Result<usize, String> {
        attrs.sort_unstable();
        attrs.dedup();
        if let Some(&bad) = attrs.iter().find(|&&a| a as usize >= self.n_attrs) {
            return Err(format!(
                "attribute {bad} out of range (vocabulary has {} attributes)",
                self.n_attrs
            ));
        }
        let v = self.graph.add_node();
        self.attrs.push(attrs);
        self.node_comms.push(Vec::new());
        self.record(GraphMutation::NodeAdded { v });
        Ok(v)
    }

    /// Induced subgraph on `nodes`; community ids are preserved (member
    /// lists are restricted and remapped to the new node ids).
    pub fn induced_subgraph(&self, nodes: &[usize]) -> (AttributedGraph, Vec<usize>) {
        let (sub, back) = self.graph.induced_subgraph(nodes);
        let mut new_id = vec![u32::MAX; self.n()];
        for (ni, &old) in nodes.iter().enumerate() {
            new_id[old] = ni as u32;
        }
        let attrs = nodes.iter().map(|&old| self.attrs[old].clone()).collect();
        let communities = self
            .communities
            .iter()
            .map(|members| {
                members
                    .iter()
                    .filter_map(|&v| {
                        let ni = new_id[v as usize];
                        (ni != u32::MAX).then_some(ni)
                    })
                    .collect::<Vec<u32>>()
            })
            .collect();
        (
            AttributedGraph::new(sub, self.n_attrs, attrs, communities),
            back,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributedGraph {
        // Two triangles joined by an edge; communities = the triangles, with
        // node 2 in both. Attributes: even nodes {0,1}, odd nodes {1,2}.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let attrs = (0..6)
            .map(|v| if v % 2 == 0 { vec![0, 1] } else { vec![1, 2] })
            .collect();
        let comms = vec![vec![0, 1, 2], vec![2, 3, 4, 5]];
        AttributedGraph::new(g, 3, attrs, comms)
    }

    #[test]
    fn membership_queries() {
        let ag = sample();
        assert_eq!(ag.n_communities(), 2);
        assert_eq!(ag.communities_of(2), &[0, 1]);
        assert_eq!(ag.communities_of(0), &[0]);
        assert!(ag.same_community(0, 2));
        assert!(ag.same_community(2, 5));
        assert!(!ag.same_community(0, 5));
    }

    #[test]
    fn query_community_union_for_overlap_node() {
        let ag = sample();
        let mask = ag.query_community_mask(2);
        assert_eq!(mask, vec![true; 6], "node 2 belongs to both triangles");
        let mask0 = ag.query_community_mask(0);
        assert_eq!(mask0, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn attribute_queries() {
        let ag = sample();
        assert!(ag.has_attr(0, 0));
        assert!(!ag.has_attr(0, 2));
        assert_eq!(ag.shared_attr_count(0, 1), 1, "only attribute 1 shared");
        assert_eq!(ag.shared_attr_count(0, 2), 2);
    }

    #[test]
    fn induced_subgraph_preserves_community_ids() {
        let ag = sample();
        let (sub, back) = ag.induced_subgraph(&[2, 3, 4]);
        assert_eq!(back, vec![2, 3, 4]);
        assert_eq!(sub.n_communities(), 2, "community ids stay global");
        // Community 0 restricted to {2} → new id 0.
        assert_eq!(sub.community_members(0), &[0]);
        // Community 1 restricted to {2,3,4} → new ids {0,1,2}.
        assert_eq!(sub.community_members(1), &[0, 1, 2]);
        assert_eq!(sub.attrs_of(0), ag.attrs_of(2));
    }

    #[test]
    fn plain_graph_has_no_attrs() {
        let ag = AttributedGraph::plain(Graph::from_edges(3, &[(0, 1)]));
        assert!(!ag.has_attributes());
        assert_eq!(ag.n_communities(), 0);
        assert!(ag.query_community_mask(0).iter().all(|&b| !b));
    }

    #[test]
    #[should_panic(expected = "attribute id out of range")]
    fn attribute_bounds_checked() {
        let g = Graph::from_edges(1, &[]);
        let _ = AttributedGraph::new(g, 1, vec![vec![5]], vec![]);
    }

    #[test]
    fn mutations_bump_epoch_and_log() {
        let mut ag = sample();
        assert_eq!(ag.epoch(), 0);
        assert_eq!(ag.mutations_since(0), Some(&[][..]));
        assert!(ag.insert_edge(0, 3).unwrap());
        let v = ag.add_node(vec![1]).unwrap();
        assert_eq!(ag.epoch(), 2);
        assert_eq!(
            ag.mutations_since(0).unwrap(),
            &[
                GraphMutation::EdgeInserted { u: 0, v: 3 },
                GraphMutation::NodeAdded { v },
            ]
        );
        assert_eq!(ag.mutations_since(1).unwrap().len(), 1);
        assert_eq!(ag.mutations_since(2), Some(&[][..]));
        assert_eq!(ag.mutations_since(3), None, "the future is unknown");
    }

    #[test]
    fn duplicate_edge_insert_is_an_epochless_no_op() {
        let mut ag = sample();
        assert!(!ag.insert_edge(0, 1).unwrap(), "edge already present");
        assert_eq!(ag.epoch(), 0);
        assert!(ag.insert_edge(0, 0).is_err(), "self-loop rejected");
        assert!(ag.insert_edge(0, 99).is_err(), "out of range rejected");
    }

    #[test]
    fn live_mutations_keep_invariants() {
        let mut ag = sample();
        let v = ag.add_node(vec![2, 0, 2]).unwrap();
        assert_eq!(ag.n(), 7);
        assert_eq!(ag.attrs_of(v), &[0, 2], "sorted and deduped");
        assert!(ag.communities_of(v).is_empty());
        ag.insert_edge(v, 1).unwrap();
        assert_eq!(ag.graph().neighbors(v), &[1]);
        assert!(ag.add_node(vec![7]).is_err(), "attr out of vocabulary");
    }

    #[test]
    fn mutation_log_truncates_but_stays_consistent() {
        // Drive the log beyond its retention bound with node births;
        // history must stay addressable from the retained window and
        // report `None` before it.
        let mut ag = sample();
        for _ in 0..(super::MAX_MUTATION_LOG + 10) {
            ag.add_node(vec![0]).unwrap();
        }
        let epoch = ag.epoch();
        assert_eq!(epoch, (super::MAX_MUTATION_LOG + 10) as u64);
        assert!(ag.mutations_since(0).is_none(), "history truncated");
        assert_eq!(ag.mutations_since(epoch), Some(&[][..]));
        let tail = ag.mutations_since(epoch - 5).unwrap();
        assert_eq!(tail.len(), 5);
        assert_eq!(ag.log_evictions(), 10, "one eviction per overflow");
    }

    #[test]
    fn eviction_counter_stays_zero_within_retention() {
        let mut ag = sample();
        for _ in 0..100 {
            ag.add_node(vec![0]).unwrap();
        }
        assert_eq!(ag.log_evictions(), 0);
    }

    #[test]
    fn restore_at_epoch_resumes_incremental_history() {
        let mut ag = sample();
        ag.insert_edge(0, 4).unwrap();
        ag.insert_edge(1, 5).unwrap();
        let edges: Vec<(usize, usize)> = ag.graph().edges().collect();
        let attrs: Vec<Vec<u32>> = (0..ag.n()).map(|v| ag.attrs_of(v).to_vec()).collect();
        let comms: Vec<Vec<u32>> = (0..ag.n_communities())
            .map(|c| ag.community_members(c).to_vec())
            .collect();
        let mut restored = AttributedGraph::restore_at_epoch(
            Graph::from_edges(ag.n(), &edges),
            ag.n_attrs(),
            attrs,
            comms,
            ag.epoch(),
        )
        .unwrap();
        assert_eq!(restored.epoch(), 2);
        // Adjacency must be identical to the live-mutated original.
        for v in 0..ag.n() {
            assert_eq!(restored.graph().neighbors(v), ag.graph().neighbors(v));
        }
        assert_eq!(restored.communities_of(2), ag.communities_of(2));
        // History before the restore point is gone; from it, empty.
        assert!(restored.mutations_since(0).is_none());
        assert_eq!(restored.mutations_since(2), Some(&[][..]));
        // New mutations continue the epoch sequence seamlessly.
        assert!(restored.insert_edge(0, 5).unwrap());
        assert_eq!(restored.epoch(), 3);
        assert_eq!(restored.mutations_since(2).unwrap().len(), 1);
    }

    #[test]
    fn restore_at_epoch_rejects_bad_payloads() {
        let g = || Graph::from_edges(2, &[(0, 1)]);
        assert!(AttributedGraph::restore_at_epoch(g(), 0, vec![vec![]], vec![], 1).is_err());
        assert!(
            AttributedGraph::restore_at_epoch(g(), 1, vec![vec![3], vec![]], vec![], 1).is_err()
        );
        assert!(
            AttributedGraph::restore_at_epoch(g(), 0, vec![vec![], vec![]], vec![vec![9]], 1)
                .is_err()
        );
    }
}
