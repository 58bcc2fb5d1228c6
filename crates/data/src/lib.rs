//! # cgnp-data
//!
//! Dataset surrogates and task construction for the CGNP reproduction:
//!
//! * [`synthetic`] — a seeded attributed stochastic-block-model generator
//!   (the substitute for the paper's six real datasets; see the README,
//!   *Paper experiments*).
//! * [`profiles`] — per-dataset surrogate configurations matched to the
//!   paper's Table I statistics, which are retained as metadata.
//! * [`features`] — node feature assembly (`attributes ‖ core ‖ lcc` plus
//!   an indicator channel, §VII-A / Eq. 13).
//! * [`task`] — CS task sampling for all four configurations (SGSC, SGDC,
//!   MGOD, MGDD) with 1/5-shot support sets and pos/neg ground-truth
//!   sampling.
//!
//! ## Example
//!
//! ```
//! use cgnp_data::{load_dataset, DatasetId, Scale, TaskConfig, TaskKind, single_graph_tasks};
//!
//! let ds = load_dataset(DatasetId::Citeseer, Scale::Smoke, 7);
//! let cfg = TaskConfig { subgraph_size: 60, n_targets: 5, ..Default::default() };
//! let tasks = single_graph_tasks(ds.single(), TaskKind::Sgsc, &cfg, (2, 1, 1), 7);
//! assert_eq!(tasks.train.len(), 2);
//! let t = &tasks.train[0];
//! assert_eq!(t.shots(), 1);
//! assert!(t.support[0].pos.len() <= 5);
//! ```

#![forbid(unsafe_code)]

pub mod features;
pub mod profiles;
pub mod synthetic;
pub mod task;

pub use features::{
    base_feature_dim, base_features, base_features_with_cores, model_input_dim, with_indicator,
};
pub use profiles::{
    load_dataset, paper_stats, surrogate_config, Dataset, DatasetId, PaperStats, Scale,
};
pub use synthetic::{generate_sbm, SbmConfig};
pub use task::{
    mgdd_tasks, mgod_tasks, sample_task, single_graph_tasks, task_on_whole_graph, QueryExample,
    Task, TaskConfig, TaskKind, TaskSet, NO_QUERY,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn tasks_are_internally_consistent(seed in 0u64..500) {
            let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
            let cfg = TaskConfig { subgraph_size: 70, shots: 1, n_targets: 4, ..Default::default() };
            if let Some(t) = sample_task(&ag, &cfg, None, &mut StdRng::seed_from_u64(seed)) {
                for ex in t.all_examples() {
                    prop_assert!(ex.truth.len() == t.n());
                    prop_assert!(ex.truth[ex.query]);
                    for &p in &ex.pos { prop_assert!(ex.truth[p] && p != ex.query); }
                    for &ng in &ex.neg { prop_assert!(!ex.truth[ng]); }
                    // pos/neg disjoint by construction of the pools.
                    prop_assert!(ex.pos.iter().all(|p| !ex.neg.contains(p)));
                    // Community is a strict subset of the task graph.
                    let size = ex.community_size();
                    prop_assert!(size >= 3 && size < t.n());
                }
            }
        }

        #[test]
        fn feature_matrix_bounded(seed in 0u64..300) {
            let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
            let x = base_features(&ag);
            prop_assert_eq!(x.shape(), (ag.n(), base_feature_dim(&ag)));
            for &v in x.as_slice() {
                prop_assert!((0.0..=1.0).contains(&v), "feature {} out of range", v);
            }
        }
    }
}
