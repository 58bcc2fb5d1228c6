//! Surrogate profiles for the paper's six datasets (Table I).
//!
//! Each profile records the paper's real statistics as metadata and maps to
//! an [`SbmConfig`] whose community structure class matches the original:
//!
//! | dataset  | paper nodes/edges | class | surrogate axes |
//! |----------|-------------------|-------|----------------|
//! | Cora     | 2,708 / 5,429     | sparse citation net, 7 topics, informative keywords | attributed, low density |
//! | Citeseer | 3,327 / 4,732     | sparse citation net, 6 topics, very sparse | attributed, lowest density |
//! | Arxiv    | 199,343 / 1.2M    | citation net, 40 areas, no attributes | non-attributed, mild skew |
//! | DBLP     | 317,080 / 1.0M    | co-authorship, 5,000 small venue communities | non-attributed, many small overlapping comms |
//! | Reddit   | 232,965 / 114.6M  | very dense discussion graph, 50 comms | non-attributed, high density, heavy skew |
//! | Facebook | 10 ego-nets       | small attributed ego-nets with overlapping circles | per-ego configs |
//!
//! Node counts are scaled by [`Scale`]; tasks only ever see ≤ a few hundred
//! node BFS subgraphs, so the surrogate sizes only need to comfortably
//! exceed the task size (see the README, *Paper experiments*).

use rand::rngs::StdRng;
use rand::SeedableRng;

use cgnp_graph::AttributedGraph;

use crate::synthetic::{generate_sbm, SbmConfig};

/// The six datasets of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    Cora,
    Citeseer,
    Arxiv,
    Dblp,
    Reddit,
    Facebook,
}

impl DatasetId {
    pub const ALL: [DatasetId; 6] = [
        DatasetId::Cora,
        DatasetId::Citeseer,
        DatasetId::Arxiv,
        DatasetId::Dblp,
        DatasetId::Reddit,
        DatasetId::Facebook,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Cora => "Cora",
            DatasetId::Citeseer => "Citeseer",
            DatasetId::Arxiv => "Arxiv",
            DatasetId::Dblp => "DBLP",
            DatasetId::Reddit => "Reddit",
            DatasetId::Facebook => "Facebook",
        }
    }
}

/// Experiment scale; multiplies surrogate sizes and (in the harness) epoch
/// and task counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-level CI runs.
    Smoke,
    /// Default: laptop-friendly full pipeline.
    Quick,
    /// Larger surrogates, more tasks.
    Full,
    /// Closest to the paper's settings that is still tractable on CPU.
    Paper,
}

impl Scale {
    fn node_factor(&self) -> f64 {
        match self {
            Scale::Smoke => 0.25,
            Scale::Quick => 1.0,
            Scale::Full => 2.0,
            Scale::Paper => 4.0,
        }
    }
}

/// Paper-reported statistics retained as metadata.
#[derive(Clone, Debug)]
pub struct PaperStats {
    pub nodes: usize,
    pub edges: usize,
    /// `None` when the dataset has no node attributes.
    pub attrs: Option<usize>,
    pub communities: usize,
}

/// A dataset surrogate: the generated graph(s) plus provenance.
#[derive(Clone, Debug)]
pub struct Dataset {
    pub id: DatasetId,
    pub paper: PaperStats,
    /// Single large graph, or the 10 Facebook ego-networks.
    pub graphs: Vec<AttributedGraph>,
}

impl Dataset {
    /// The single graph of a single-graph dataset.
    ///
    /// # Panics
    /// Panics for [`DatasetId::Facebook`] (use [`Self::graphs`]).
    pub fn single(&self) -> &AttributedGraph {
        assert_eq!(
            self.graphs.len(),
            1,
            "{} is a multi-graph dataset",
            self.id.name()
        );
        &self.graphs[0]
    }

    pub fn is_multi_graph(&self) -> bool {
        self.graphs.len() > 1
    }
}

fn scaled(n: usize, scale: Scale) -> usize {
    ((n as f64 * scale.node_factor()).round() as usize).max(200)
}

/// Surrogate SBM configuration for a single-graph dataset at a scale.
pub fn surrogate_config(id: DatasetId, scale: Scale) -> SbmConfig {
    match id {
        DatasetId::Cora => SbmConfig {
            n: scaled(1400, scale),
            n_communities: 7,
            p_in: 0.045,
            p_out: 0.0012,
            overlap: 0.0,
            degree_skew: 0.3,
            size_skew: 0.0,
            n_attrs: 96,
            attrs_per_node: 6,
            attrs_per_comm: 14,
            attr_noise: 0.15,
        },
        DatasetId::Citeseer => SbmConfig {
            n: scaled(1600, scale),
            n_communities: 6,
            p_in: 0.03,
            p_out: 0.0009,
            overlap: 0.0,
            degree_skew: 0.3,
            size_skew: 0.0,
            n_attrs: 128,
            attrs_per_node: 5,
            attrs_per_comm: 22,
            attr_noise: 0.15,
        },
        DatasetId::Arxiv => SbmConfig {
            n: scaled(3600, scale),
            n_communities: 40,
            p_in: 0.12,
            p_out: 0.0018,
            overlap: 0.0,
            degree_skew: 0.5,
            size_skew: 0.0,
            n_attrs: 0,
            attrs_per_node: 0,
            attrs_per_comm: 0,
            attr_noise: 0.0,
        },
        DatasetId::Dblp => SbmConfig {
            n: scaled(4000, scale),
            n_communities: 80,
            p_in: 0.35,
            p_out: 0.0012,
            overlap: 0.08,
            degree_skew: 0.4,
            // com-DBLP venue communities are strongly heavy-tailed.
            size_skew: 0.6,
            n_attrs: 0,
            attrs_per_node: 0,
            attrs_per_comm: 0,
            attr_noise: 0.0,
        },
        DatasetId::Reddit => {
            // The paper's Reddit communities average ~4.6k posts — far
            // larger than a 200-node task sample, so its tasks are
            // majority-positive (Table II shows recall-1 predictions with
            // accuracy ≈ class prior ≈ 0.86). Preserve that regime: very
            // dense communities ≥ 3× the task size; the community count
            // reaches Table I's 50 at paper scale and shrinks with `n`
            // below it.
            let n = scaled(3000, scale);
            SbmConfig {
                n,
                n_communities: (n / 250).clamp(4, 50),
                p_in: 0.12,
                p_out: 0.004,
                overlap: 0.0,
                degree_skew: 0.8,
                size_skew: 0.0,
                n_attrs: 0,
                attrs_per_node: 0,
                attrs_per_comm: 0,
                attr_noise: 0.0,
            }
        }
        DatasetId::Facebook => panic!("Facebook is generated per ego-network"),
    }
}

/// The ten Facebook ego-network profiles of Table I (`|V|`, `|A|`, `|C|`).
const FACEBOOK_EGOS: [(usize, usize, usize); 10] = [
    (348, 224, 24),
    (1046, 576, 9),
    (228, 162, 14),
    (160, 105, 7),
    (171, 63, 14),
    (67, 48, 13),
    (793, 319, 17),
    (756, 480, 46),
    (548, 262, 32),
    (60, 42, 17),
];

/// Shared attribute vocabulary across the ten ego-networks. The SNAP data
/// has per-ego feature spaces; a single model across egos needs one
/// aligned space, so the surrogate uses a common vocabulary (the paper
/// does not specify its alignment; this is the minimal choice that makes
/// the MGOD protocol well-defined).
const FACEBOOK_SHARED_ATTRS: usize = 96;

fn facebook_ego_config(nodes: usize, _attrs: usize, comms: usize, scale: Scale) -> SbmConfig {
    // Ego circles are small and strongly overlapping.
    let n = ((nodes as f64 * scale.node_factor().min(1.0)).round() as usize).max(40);
    SbmConfig {
        n,
        n_communities: comms,
        p_in: 0.4,
        p_out: 0.01,
        overlap: 0.25,
        degree_skew: 0.4,
        size_skew: 0.3,
        n_attrs: FACEBOOK_SHARED_ATTRS,
        attrs_per_node: 4,
        attrs_per_comm: 6,
        attr_noise: 0.2,
    }
}

/// Paper statistics of Table I.
pub fn paper_stats(id: DatasetId) -> PaperStats {
    match id {
        DatasetId::Cora => PaperStats {
            nodes: 2_708,
            edges: 5_429,
            attrs: Some(1_433),
            communities: 7,
        },
        DatasetId::Citeseer => PaperStats {
            nodes: 3_327,
            edges: 4_732,
            attrs: Some(3_703),
            communities: 6,
        },
        DatasetId::Arxiv => PaperStats {
            nodes: 199_343,
            edges: 1_166_243,
            attrs: None,
            communities: 40,
        },
        DatasetId::Dblp => PaperStats {
            nodes: 317_080,
            edges: 1_049_866,
            attrs: None,
            communities: 5_000,
        },
        DatasetId::Reddit => PaperStats {
            nodes: 232_965,
            edges: 114_615_892,
            attrs: None,
            communities: 50,
        },
        DatasetId::Facebook => PaperStats {
            nodes: FACEBOOK_EGOS.iter().map(|e| e.0).sum(),
            edges: 89_264, // sum of Table I ego edge counts
            attrs: Some(2_281),
            communities: FACEBOOK_EGOS.iter().map(|e| e.2).sum(),
        },
    }
}

/// Generates the surrogate dataset for `id` at `scale`, deterministically
/// from `seed`.
pub fn load_dataset(id: DatasetId, scale: Scale, seed: u64) -> Dataset {
    let paper = paper_stats(id);
    let graphs = match id {
        DatasetId::Facebook => FACEBOOK_EGOS
            .iter()
            .enumerate()
            .map(|(i, &(n, a, c))| {
                let cfg = facebook_ego_config(n, a, c, scale);
                let mut rng = StdRng::seed_from_u64(seed ^ (0xFB00 + i as u64));
                generate_sbm(&cfg, &mut rng)
            })
            .collect(),
        _ => {
            let cfg = surrogate_config(id, scale);
            let mut rng = StdRng::seed_from_u64(seed ^ dataset_salt(id));
            vec![generate_sbm(&cfg, &mut rng)]
        }
    };
    Dataset { id, paper, graphs }
}

fn dataset_salt(id: DatasetId) -> u64 {
    match id {
        DatasetId::Cora => 0xC0_7A,
        DatasetId::Citeseer => 0xC1_7E,
        DatasetId::Arxiv => 0xA6_11,
        DatasetId::Dblp => 0xDB_19,
        DatasetId::Reddit => 0x6E_DD,
        DatasetId::Facebook => 0xFB_00,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_graph_datasets_load() {
        for id in [DatasetId::Cora, DatasetId::Citeseer] {
            let ds = load_dataset(id, Scale::Smoke, 1);
            assert_eq!(ds.graphs.len(), 1);
            let g = ds.single();
            assert!(g.n() >= 200);
            assert!(g.has_attributes());
            assert_eq!(g.n_communities(), paper_stats(id).communities);
        }
    }

    #[test]
    fn non_attributed_datasets_have_no_attrs() {
        for id in [DatasetId::Arxiv, DatasetId::Dblp, DatasetId::Reddit] {
            let ds = load_dataset(id, Scale::Smoke, 1);
            assert!(!ds.single().has_attributes(), "{:?}", id);
        }
    }

    #[test]
    fn facebook_has_ten_egos() {
        let ds = load_dataset(DatasetId::Facebook, Scale::Smoke, 1);
        assert_eq!(ds.graphs.len(), 10);
        assert!(ds.is_multi_graph());
        for g in &ds.graphs {
            assert!(g.has_attributes());
            assert!(g.n_communities() >= 7);
        }
    }

    #[test]
    #[should_panic(expected = "multi-graph dataset")]
    fn facebook_single_panics() {
        let ds = load_dataset(DatasetId::Facebook, Scale::Smoke, 1);
        let _ = ds.single();
    }

    #[test]
    fn facebook_egos_share_one_attribute_space() {
        // One meta model runs across all egos, so the feature width must
        // be identical for every ego-network.
        let ds = load_dataset(DatasetId::Facebook, Scale::Smoke, 1);
        let widths: std::collections::HashSet<usize> =
            ds.graphs.iter().map(|g| g.n_attrs()).collect();
        assert_eq!(widths.len(), 1, "egos must share an attribute vocabulary");
    }

    #[test]
    fn reddit_denser_than_citeseer() {
        let r = load_dataset(DatasetId::Reddit, Scale::Smoke, 2);
        let c = load_dataset(DatasetId::Citeseer, Scale::Smoke, 2);
        let density = |g: &AttributedGraph| g.m() as f64 / g.n() as f64;
        assert!(
            density(r.single()) > 3.0 * density(c.single()),
            "reddit {} vs citeseer {}",
            density(r.single()),
            density(c.single())
        );
    }

    #[test]
    fn deterministic_loading() {
        let a = load_dataset(DatasetId::Cora, Scale::Smoke, 42);
        let b = load_dataset(DatasetId::Cora, Scale::Smoke, 42);
        assert_eq!(a.single().m(), b.single().m());
    }

    #[test]
    fn scale_grows_graphs() {
        let s = load_dataset(DatasetId::Cora, Scale::Smoke, 3);
        let q = load_dataset(DatasetId::Cora, Scale::Quick, 3);
        assert!(q.single().n() > s.single().n());
    }
}
