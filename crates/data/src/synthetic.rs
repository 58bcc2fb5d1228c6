//! Seeded attributed stochastic-block-model generator.
//!
//! The paper evaluates on six real datasets with ground-truth communities
//! (Table I). Those graphs are not shipped here, so each dataset is
//! substituted by a planted-partition surrogate matched on the axes the
//! learning problem is sensitive to: community count and size, intra/inter
//! mixing, degree skew, overlap, and attribute informativeness (see the
//! README, *Paper experiments*). Every community is guaranteed connected
//! (a random spanning chain is planted) and the graph is bridged into one
//! component so 200-node BFS task sampling behaves like on the real graphs.

use rand::rngs::StdRng;
use rand::Rng;

use cgnp_graph::{AttributedGraph, Graph};

/// Parameters of the attributed SBM surrogate.
#[derive(Clone, Debug)]
pub struct SbmConfig {
    /// Number of nodes.
    pub n: usize,
    /// Number of planted communities.
    pub n_communities: usize,
    /// Expected intra-community edge probability.
    pub p_in: f64,
    /// Expected inter-community edge probability.
    pub p_out: f64,
    /// Fraction of nodes additionally assigned to a second community.
    pub overlap: f64,
    /// Degree heterogeneity: 0 = homogeneous; larger values concentrate
    /// edges on low-rank nodes (Zipf-like exponent).
    pub degree_skew: f64,
    /// Community-size heterogeneity: 0 = balanced sizes; larger values
    /// produce a Zipf-like size distribution (heavy-tailed, like DBLP's
    /// venue communities). Every community keeps at least 3 members.
    pub size_skew: f64,
    /// Total attribute vocabulary (`|A|`); 0 disables attributes.
    pub n_attrs: usize,
    /// Attributes drawn per node.
    pub attrs_per_node: usize,
    /// Size of each community's characteristic attribute pool.
    pub attrs_per_comm: usize,
    /// Probability that a node attribute is drawn from the global pool
    /// instead of its community pool (attribute noise).
    pub attr_noise: f64,
}

impl SbmConfig {
    /// A small, well-separated default useful in tests.
    pub fn small_test() -> Self {
        Self {
            n: 120,
            n_communities: 4,
            p_in: 0.25,
            p_out: 0.01,
            overlap: 0.05,
            degree_skew: 0.0,
            size_skew: 0.0,
            n_attrs: 16,
            attrs_per_node: 3,
            attrs_per_comm: 4,
            attr_noise: 0.1,
        }
    }
}

/// Generates an attributed graph with planted communities.
pub fn generate_sbm(cfg: &SbmConfig, rng: &mut StdRng) -> AttributedGraph {
    assert!(cfg.n_communities >= 1, "need at least one community");
    assert!(
        cfg.n >= cfg.n_communities,
        "need at least one node per community"
    );

    // --- Community assignment -------------------------------------------
    // Shuffle node ids first so community membership is not correlated
    // with node id. With size_skew == 0, round-robin assignment keeps
    // sizes balanced; otherwise community sizes follow a Zipf-like
    // distribution (each community keeps ≥ 3 seed members so ground-truth
    // sampling stays feasible).
    let mut ids: Vec<usize> = (0..cfg.n).collect();
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let mut primary = vec![0usize; cfg.n];
    if cfg.size_skew > 0.0 {
        let seeds = (3 * cfg.n_communities).min(cfg.n);
        for (slot, &v) in ids[..seeds].iter().enumerate() {
            primary[v] = slot % cfg.n_communities;
        }
        let comm_weights: Vec<f64> = (0..cfg.n_communities)
            .map(|c| 1.0 / ((1 + c) as f64).powf(cfg.size_skew))
            .collect();
        let mut cumulative = Vec::with_capacity(cfg.n_communities);
        let mut acc = 0.0;
        for &w in &comm_weights {
            acc += w;
            cumulative.push(acc);
        }
        for &v in &ids[seeds..] {
            let x = rng.gen_range(0.0..acc);
            let c = cumulative.partition_point(|&cw| cw <= x);
            primary[v] = c.min(cfg.n_communities - 1);
        }
    } else {
        for (slot, &v) in ids.iter().enumerate() {
            primary[v] = slot % cfg.n_communities;
        }
    }
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_communities];
    for v in 0..cfg.n {
        members[primary[v]].push(v as u32);
    }
    // Overlap: some nodes join a second community.
    for (v, &home) in primary.iter().enumerate() {
        if cfg.n_communities > 1 && rng.gen_bool(cfg.overlap.clamp(0.0, 1.0)) {
            let mut other = rng.gen_range(0..cfg.n_communities - 1);
            if other >= home {
                other += 1;
            }
            members[other].push(v as u32);
        }
    }

    // --- Degree weights ---------------------------------------------------
    // w_v ∝ (1 + rank_v)^{-skew}; rank is a random permutation so hubs are
    // spread across communities.
    let weights: Vec<f64> = if cfg.degree_skew > 0.0 {
        let mut ranks: Vec<usize> = (0..cfg.n).collect();
        for i in (1..ranks.len()).rev() {
            let j = rng.gen_range(0..=i);
            ranks.swap(i, j);
        }
        ranks
            .iter()
            .map(|&r| 1.0 / ((1 + r) as f64).powf(cfg.degree_skew))
            .collect()
    } else {
        vec![1.0; cfg.n]
    };

    let mut edges: Vec<(usize, usize)> = Vec::new();

    // --- Intra-community edges -------------------------------------------
    for comm in &members {
        let s = comm.len();
        if s < 2 {
            continue;
        }
        // Spanning chain through a shuffled order: guarantees connectivity.
        let mut order: Vec<u32> = comm.clone();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for w in order.windows(2) {
            edges.push((w[0] as usize, w[1] as usize));
        }
        // Expected number of additional random intra edges.
        let pairs = (s * (s - 1) / 2) as f64;
        let target = (cfg.p_in * pairs).round() as usize;
        let sampler = WeightedSampler::new(comm, &weights);
        for _ in 0..target {
            let a = sampler.sample(rng);
            let b = sampler.sample(rng);
            if a != b {
                edges.push((a, b));
            }
        }
    }

    // --- Inter-community edges -------------------------------------------
    let all: Vec<u32> = (0..cfg.n as u32).collect();
    let global = WeightedSampler::new(&all, &weights);
    let inter_pairs = (cfg.n * cfg.n) as f64 / 2.0;
    let target_out = (cfg.p_out * inter_pairs).round() as usize;
    for _ in 0..target_out {
        let a = global.sample(rng);
        let b = global.sample(rng);
        if a != b && primary[a] != primary[b] {
            edges.push((a, b));
        }
    }
    // Bridge communities into one component via a ring of random
    // representatives (negligible structural impact, large sampling
    // convenience).
    if cfg.n_communities > 1 {
        for c in 0..cfg.n_communities {
            let next = (c + 1) % cfg.n_communities;
            if members[c].is_empty() || members[next].is_empty() {
                continue;
            }
            let a = members[c][rng.gen_range(0..members[c].len())] as usize;
            let b = members[next][rng.gen_range(0..members[next].len())] as usize;
            if a != b {
                edges.push((a, b));
            }
        }
    }

    let graph = Graph::from_edges(cfg.n, &edges);

    // --- Attributes --------------------------------------------------------
    let attrs: Vec<Vec<u32>> = if cfg.n_attrs == 0 {
        vec![Vec::new(); cfg.n]
    } else {
        (0..cfg.n)
            .map(|v| {
                let pool_start = (primary[v] * cfg.attrs_per_comm) % cfg.n_attrs;
                (0..cfg.attrs_per_node)
                    .map(|_| {
                        if rng.gen_bool(cfg.attr_noise.clamp(0.0, 1.0)) {
                            rng.gen_range(0..cfg.n_attrs) as u32
                        } else {
                            ((pool_start + rng.gen_range(0..cfg.attrs_per_comm.max(1)))
                                % cfg.n_attrs) as u32
                        }
                    })
                    .collect()
            })
            .collect()
    };

    AttributedGraph::new(graph, cfg.n_attrs, attrs, members)
}

/// O(log n) weighted sampling over a fixed node set by binary search on the
/// cumulative weight vector.
struct WeightedSampler {
    nodes: Vec<usize>,
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    fn new(nodes: &[u32], weights: &[f64]) -> Self {
        let nodes: Vec<usize> = nodes.iter().map(|&v| v as usize).collect();
        let mut cumulative = Vec::with_capacity(nodes.len());
        let mut acc = 0.0;
        for &v in &nodes {
            acc += weights[v];
            cumulative.push(acc);
        }
        Self { nodes, cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("empty sampler");
        let x = rng.gen_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.nodes[idx.min(self.nodes.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_graph::algo;
    use rand::SeedableRng;

    #[test]
    fn generates_connected_communities() {
        let cfg = SbmConfig::small_test();
        let ag = generate_sbm(&cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(ag.n(), cfg.n);
        assert_eq!(ag.n_communities(), cfg.n_communities);
        // Every community induces a connected subgraph (spanning chain).
        for c in 0..ag.n_communities() {
            let nodes: Vec<usize> = ag
                .community_members(c)
                .iter()
                .map(|&v| v as usize)
                .collect();
            let (sub, _) = ag.graph().induced_subgraph(&nodes);
            assert_eq!(algo::component_count(&sub), 1, "community {c} disconnected");
        }
    }

    #[test]
    fn whole_graph_is_connected() {
        let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(2));
        assert_eq!(algo::component_count(ag.graph()), 1);
    }

    #[test]
    fn intra_density_exceeds_inter_density() {
        let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(3));
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in ag.graph().edges() {
            if ag.same_community(u, v) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra > 3 * inter,
            "communities should dominate: intra={intra} inter={inter}"
        );
    }

    #[test]
    fn attributes_are_community_informative() {
        let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(4));
        // Average shared attributes within a community vs across.
        let mut rng = StdRng::seed_from_u64(5);
        let (mut same, mut cross, mut n_same, mut n_cross) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..2000 {
            let u = rng.gen_range(0..ag.n());
            let v = rng.gen_range(0..ag.n());
            if u == v {
                continue;
            }
            if ag.same_community(u, v) {
                same += ag.shared_attr_count(u, v);
                n_same += 1;
            } else {
                cross += ag.shared_attr_count(u, v);
                n_cross += 1;
            }
        }
        let avg_same = same as f64 / n_same.max(1) as f64;
        let avg_cross = cross as f64 / n_cross.max(1) as f64;
        assert!(
            avg_same > avg_cross + 0.2,
            "attrs must correlate with communities: {avg_same:.2} vs {avg_cross:.2}"
        );
    }

    #[test]
    fn degree_skew_creates_hubs() {
        let mut cfg = SbmConfig::small_test();
        cfg.n = 400;
        cfg.degree_skew = 0.9;
        let skewed = generate_sbm(&cfg, &mut StdRng::seed_from_u64(6));
        cfg.degree_skew = 0.0;
        let flat = generate_sbm(&cfg, &mut StdRng::seed_from_u64(6));
        let max_deg =
            |ag: &AttributedGraph| (0..ag.n()).map(|v| ag.graph().degree(v)).max().unwrap();
        assert!(
            max_deg(&skewed) > max_deg(&flat) + 3,
            "skew {} flat {}",
            max_deg(&skewed),
            max_deg(&flat)
        );
    }

    #[test]
    fn no_attrs_mode() {
        let mut cfg = SbmConfig::small_test();
        cfg.n_attrs = 0;
        let ag = generate_sbm(&cfg, &mut StdRng::seed_from_u64(7));
        assert!(!ag.has_attributes());
        assert!(ag.attrs_of(0).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SbmConfig::small_test();
        let a = generate_sbm(&cfg, &mut StdRng::seed_from_u64(9));
        let b = generate_sbm(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.m(), b.m());
        assert_eq!(a.attrs_of(5), b.attrs_of(5));
        let c = generate_sbm(&cfg, &mut StdRng::seed_from_u64(10));
        assert_ne!(
            (a.m(), a.attrs_of(5).to_vec()),
            (c.m(), c.attrs_of(5).to_vec())
        );
    }

    #[test]
    fn size_skew_produces_heavy_tailed_communities() {
        let mut cfg = SbmConfig::small_test();
        cfg.n = 600;
        cfg.n_communities = 10;
        cfg.size_skew = 1.0;
        let skewed = generate_sbm(&cfg, &mut StdRng::seed_from_u64(20));
        let sizes: Vec<usize> = (0..skewed.n_communities())
            .map(|c| skewed.community_members(c).len())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(min >= 3, "every community keeps its seed members");
        assert!(
            max >= 4 * min,
            "sizes should be heavy-tailed: max {max}, min {min}"
        );
        // Balanced mode stays balanced (overlap disabled so secondary
        // memberships don't blur the count).
        cfg.size_skew = 0.0;
        cfg.overlap = 0.0;
        let flat = generate_sbm(&cfg, &mut StdRng::seed_from_u64(20));
        let fsizes: Vec<usize> = (0..flat.n_communities())
            .map(|c| flat.community_members(c).len())
            .collect();
        let fmax = *fsizes.iter().max().unwrap();
        let fmin = *fsizes.iter().min().unwrap();
        assert!(fmax <= fmin + 2, "balanced sizes: max {fmax}, min {fmin}");
    }

    #[test]
    fn overlap_produces_multi_membership() {
        let mut cfg = SbmConfig::small_test();
        cfg.overlap = 0.5;
        let ag = generate_sbm(&cfg, &mut StdRng::seed_from_u64(11));
        let multi = (0..ag.n())
            .filter(|&v| ag.communities_of(v).len() > 1)
            .count();
        assert!(
            multi > ag.n() / 4,
            "expected many overlap nodes, got {multi}"
        );
    }
}
