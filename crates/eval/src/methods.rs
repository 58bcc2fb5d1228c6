//! Adapters exposing every approach — the three graph algorithms, the
//! seven learned baselines, and the three CGNP variants — through the
//! common [`CsLearner`] interface.

use cgnp_algos::{acq_members, attributed_truss_community, closest_truss_community};
use cgnp_baselines::{
    AqdGnn, BaselineHyper, CsLearner, FeatTrans, Gpn, IcsGnn, Maml, Reptile, SupervisedGnn,
};
use cgnp_core::par::par_map;
use cgnp_core::{meta_train, Cgnp, CgnpConfig, CommutativeOp, DecoderKind, PreparedTask};
use cgnp_data::model_input_dim;
use cgnp_nn::GnnKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// CGNP exposed as a [`CsLearner`].
pub struct CgnpMethod {
    /// Architecture template; `encoder.in_dim` is fixed lazily from the
    /// first task seen.
    template: CgnpConfig,
    name: &'static str,
    model: Option<Cgnp>,
}

impl CgnpMethod {
    pub fn new(template: CgnpConfig) -> Self {
        let name = match template.decoder {
            DecoderKind::InnerProduct => "CGNP-IP",
            DecoderKind::Mlp => "CGNP-MLP",
            DecoderKind::Gnn => "CGNP-GNN",
        };
        Self {
            template,
            name,
            model: None,
        }
    }

    fn ensure_model(&mut self, task: &PreparedTask, seed: u64) -> &Cgnp {
        if self.model.is_none() {
            let mut cfg = self.template.clone();
            cfg.encoder.in_dim = model_input_dim(&task.task.graph);
            self.model = Some(Cgnp::new(cfg, seed));
        }
        self.model.as_ref().expect("just initialised")
    }
}

impl CsLearner for CgnpMethod {
    fn name(&self) -> &'static str {
        self.name
    }

    fn meta_train(&mut self, tasks: &[PreparedTask], seed: u64) {
        assert!(!tasks.is_empty(), "CGNP meta-training needs tasks");
        self.ensure_model(&tasks[0], seed);
        let model = self.model.as_ref().expect("initialised");
        meta_train(model, tasks, seed);
    }

    fn run_task(&mut self, task: &PreparedTask, seed: u64) -> Vec<Vec<f32>> {
        self.ensure_model(task, seed);
        let model = self.model.as_ref().expect("initialised");
        let mut rng = StdRng::seed_from_u64(seed);
        model.predict_task(task, &mut rng)
    }

    /// Parallel meta-testing. CGNP adaptation is gradient-free (Alg. 2):
    /// no task mutates the model, so test tasks fan out across the
    /// persistent pool's workers. `Tensor` and the prepared graph
    /// operators are `Arc`-shared, so every worker borrows the *same*
    /// trained model and the same `PreparedTask`s; each task's
    /// `predict_task` casts the weights and its operators once, as it does
    /// on the serial path, and runs its views serially inside the job.
    fn run_tasks(&mut self, tasks: &[PreparedTask], seeds: &[u64]) -> Vec<Vec<Vec<f32>>> {
        self.run_tasks_with_threads(tasks, seeds, rayon::current_num_threads())
    }
}

impl CgnpMethod {
    /// [`CsLearner::run_tasks`] with an explicit worker count (exposed so
    /// tests can exercise the parallel path on any machine).
    pub fn run_tasks_with_threads(
        &mut self,
        tasks: &[PreparedTask],
        seeds: &[u64],
        threads: usize,
    ) -> Vec<Vec<Vec<f32>>> {
        assert_eq!(tasks.len(), seeds.len(), "tasks/seeds length mismatch");
        if tasks.is_empty() {
            return Vec::new();
        }
        self.ensure_model(&tasks[0], seeds[0]);
        let model = self.model.as_ref().expect("initialised");
        // `Cgnp` and `PreparedTask` are `Sync` (Arc-backed tensors and
        // operators), so workers borrow the trained model and the
        // prepared tasks directly.
        let work: Vec<(&PreparedTask, u64)> = tasks.iter().zip(seeds.iter().copied()).collect();
        par_map(&work, threads, |&(task, seed)| {
            model.predict_task(task, &mut StdRng::seed_from_u64(seed))
        })
    }
}

/// Converts an algorithm's member list into a binary probability vector.
/// Member ids `>= n` are skipped — same contract as
/// `Metrics::from_member_set`: an id outside the graph (a community
/// produced against the wrong graph) must not abort the evaluation run.
fn members_to_probs(members: &[usize], n: usize) -> Vec<f32> {
    let mut probs = vec![0.0f32; n];
    for &m in members {
        if let Some(slot) = probs.get_mut(m) {
            *slot = 1.0;
        }
    }
    probs
}

/// CTC (❸): Closest Truss Community per target query.
pub struct CtcMethod;

impl CsLearner for CtcMethod {
    fn name(&self) -> &'static str {
        "CTC"
    }

    fn meta_train(&mut self, _tasks: &[PreparedTask], _seed: u64) {}

    fn run_task(&mut self, task: &PreparedTask, _seed: u64) -> Vec<Vec<f32>> {
        let g = task.task.graph.graph();
        task.task
            .targets
            .iter()
            .map(|ex| {
                let r = closest_truss_community(g, &[ex.query]);
                members_to_probs(&r.members, task.task.n())
            })
            .collect()
    }
}

/// ACQ (❷): attributed k-core community; `k` adapts downward from
/// `k_max` until non-empty (the original takes k as a query parameter).
pub struct AcqMethod {
    pub k_max: usize,
}

impl Default for AcqMethod {
    fn default() -> Self {
        Self { k_max: 4 }
    }
}

impl CsLearner for AcqMethod {
    fn name(&self) -> &'static str {
        "ACQ"
    }

    fn meta_train(&mut self, _tasks: &[PreparedTask], _seed: u64) {}

    fn run_task(&mut self, task: &PreparedTask, _seed: u64) -> Vec<Vec<f32>> {
        let ag = &task.task.graph;
        task.task
            .targets
            .iter()
            .map(|ex| {
                let mut members = Vec::new();
                for k in (2..=self.k_max).rev() {
                    members = acq_members(ag, ex.query, k);
                    if !members.is_empty() {
                        break;
                    }
                }
                members_to_probs(&members, task.task.n())
            })
            .collect()
    }
}

/// ATC (❶): (k,d)-truss with attribute-score peeling; `k` adapts downward
/// until a community exists.
pub struct AtcMethod {
    pub k_max: usize,
    pub distance_bound: usize,
}

impl Default for AtcMethod {
    fn default() -> Self {
        Self {
            k_max: 4,
            distance_bound: 3,
        }
    }
}

impl CsLearner for AtcMethod {
    fn name(&self) -> &'static str {
        "ATC"
    }

    fn meta_train(&mut self, _tasks: &[PreparedTask], _seed: u64) {}

    fn run_task(&mut self, task: &PreparedTask, _seed: u64) -> Vec<Vec<f32>> {
        let ag = &task.task.graph;
        task.task
            .targets
            .iter()
            .map(|ex| {
                let mut members = Vec::new();
                for k in (2..=self.k_max).rev() {
                    let r = attributed_truss_community(ag, &[ex.query], k, self.distance_bound);
                    if !r.members.is_empty() {
                        members = r.members;
                        break;
                    }
                }
                members_to_probs(&members, task.task.n())
            })
            .collect()
    }
}

/// Which methods to instantiate for an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodSelection {
    /// Everything the paper compares (Table II set; ACQ only runs on
    /// attributed data so callers add it for Facebook).
    All,
    /// Graph algorithms only.
    Algorithms,
    /// Learned methods only.
    Learned,
    /// The three CGNP variants only.
    CgnpOnly,
}

/// Builds the method roster of the paper's tables.
///
/// `hyper` parameterises the baselines; `cgnp` is the CGNP template whose
/// decoder is overridden per variant. `include_acq` adds ACQ (the paper
/// only evaluates it on the attributed Facebook dataset).
pub fn standard_methods(
    selection: MethodSelection,
    hyper: &BaselineHyper,
    cgnp: &CgnpConfig,
    include_acq: bool,
) -> Vec<Box<dyn CsLearner>> {
    let mut methods: Vec<Box<dyn CsLearner>> = Vec::new();
    let algos = matches!(
        selection,
        MethodSelection::All | MethodSelection::Algorithms
    );
    let learned = matches!(selection, MethodSelection::All | MethodSelection::Learned);
    let cgnp_only = matches!(
        selection,
        MethodSelection::All | MethodSelection::Learned | MethodSelection::CgnpOnly
    );
    if algos {
        methods.push(Box::new(AtcMethod::default()));
        if include_acq {
            methods.push(Box::new(AcqMethod::default()));
        }
        methods.push(Box::new(CtcMethod));
    }
    if learned {
        methods.push(Box::new(Maml::new(hyper.clone())));
        methods.push(Box::new(Reptile::new(hyper.clone())));
        methods.push(Box::new(FeatTrans::new(hyper.clone())));
        methods.push(Box::new(Gpn::new(hyper.clone())));
        methods.push(Box::new(SupervisedGnn::new(hyper.clone())));
        methods.push(Box::new(IcsGnn::new(hyper.clone())));
        methods.push(Box::new(AqdGnn::new(hyper.clone())));
    }
    if cgnp_only {
        for decoder in [
            DecoderKind::InnerProduct,
            DecoderKind::Mlp,
            DecoderKind::Gnn,
        ] {
            methods.push(Box::new(CgnpMethod::new(
                cgnp.clone().with_decoder(decoder),
            )));
        }
    }
    methods
}

/// CGNP ablation variants for Table IV: encoder kinds at a fixed ⊕, and
/// commutative operations at a fixed encoder.
pub fn ablation_methods(cgnp: &CgnpConfig) -> Vec<(String, Box<dyn CsLearner>)> {
    let mut out: Vec<(String, Box<dyn CsLearner>)> = Vec::new();
    for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
        let cfg = cgnp
            .clone()
            .with_encoder_kind(kind)
            .with_commutative(CommutativeOp::Mean);
        out.push((format!("layer:{kind}"), Box::new(CgnpMethod::new(cfg))));
    }
    for op in [
        CommutativeOp::SelfAttention,
        CommutativeOp::Sum,
        CommutativeOp::Mean,
    ] {
        let cfg = cgnp
            .clone()
            .with_encoder_kind(GnnKind::Gat)
            .with_commutative(op);
        out.push((format!("comm:{op}"), Box::new(CgnpMethod::new(cfg))));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_data::{generate_sbm, sample_task, SbmConfig, TaskConfig};

    fn prepared(seed: u64) -> PreparedTask {
        let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
        let cfg = TaskConfig {
            subgraph_size: 40,
            shots: 2,
            n_targets: 3,
            ..Default::default()
        };
        PreparedTask::new(sample_task(&ag, &cfg, None, &mut StdRng::seed_from_u64(seed)).unwrap())
    }

    #[test]
    fn members_to_probs_skips_out_of_range_ids() {
        let probs = members_to_probs(&[0, 2, 7, usize::MAX], 3);
        assert_eq!(probs, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn graph_algorithms_emit_binary_vectors() {
        let p = prepared(1);
        for mut m in [
            Box::new(CtcMethod) as Box<dyn CsLearner>,
            Box::new(AcqMethod::default()),
            Box::new(AtcMethod::default()),
        ] {
            let preds = m.run_task(&p, 0);
            assert_eq!(preds.len(), p.task.targets.len(), "{}", m.name());
            for probs in preds {
                assert!(probs.iter().all(|&x| x == 0.0 || x == 1.0));
            }
        }
    }

    #[test]
    fn cgnp_method_trains_and_predicts() {
        let tasks: Vec<PreparedTask> = (0..2).map(|i| prepared(10 + i)).collect();
        let cfg = CgnpConfig::paper_default(1, 8).with_epochs(2);
        let mut m = CgnpMethod::new(cfg);
        assert_eq!(m.name(), "CGNP-IP");
        m.meta_train(&tasks, 0);
        let preds = m.run_task(&tasks[1], 1);
        assert_eq!(preds.len(), tasks[1].task.targets.len());
        assert!(preds[0].iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn cgnp_parallel_meta_test_matches_serial() {
        // Meta-test evaluation is gradient-free, so fanning tasks out
        // across worker replicas must reproduce the serial predictions
        // exactly (inference does not consume the RNG in eval mode).
        let tasks: Vec<PreparedTask> = (0..5).map(|i| prepared(20 + i)).collect();
        let cfg = CgnpConfig::paper_default(1, 8).with_epochs(2);
        let mut m = CgnpMethod::new(cfg);
        m.meta_train(&tasks[..2], 0);
        let test = &tasks[2..];
        let seeds: Vec<u64> = (0..test.len()).map(|i| 100 + i as u64).collect();
        let serial = m.run_tasks_with_threads(test, &seeds, 1);
        let parallel = m.run_tasks_with_threads(test, &seeds, 3);
        assert_eq!(serial, parallel);
        assert_eq!(parallel.len(), test.len());
        for (task, preds) in test.iter().zip(&parallel) {
            assert_eq!(preds.len(), task.task.targets.len());
        }
    }

    #[test]
    fn roster_sizes_match_paper() {
        let hyper = BaselineHyper::paper_default(8, 1);
        let cgnp = CgnpConfig::paper_default(1, 8).with_epochs(1);
        // Table II roster: ATC + CTC + 7 learned + 3 CGNP variants = 12.
        let all = standard_methods(MethodSelection::All, &hyper, &cgnp, false);
        assert_eq!(all.len(), 12);
        // Facebook adds ACQ → 13 (Table III).
        let fb = standard_methods(MethodSelection::All, &hyper, &cgnp, true);
        assert_eq!(fb.len(), 13);
        let names: Vec<&str> = fb.iter().map(|m| m.name()).collect();
        for expect in [
            "ATC",
            "ACQ",
            "CTC",
            "MAML",
            "Reptile",
            "FeatTrans",
            "GPN",
            "Supervised",
            "ICS-GNN",
            "AQD-GNN",
            "CGNP-IP",
            "CGNP-MLP",
            "CGNP-GNN",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        assert_eq!(
            standard_methods(MethodSelection::CgnpOnly, &hyper, &cgnp, false).len(),
            3
        );
    }

    #[test]
    fn ablation_roster() {
        let cgnp = CgnpConfig::paper_default(1, 8).with_epochs(1);
        let abl = ablation_methods(&cgnp);
        assert_eq!(abl.len(), 6);
        assert!(abl.iter().any(|(n, _)| n == "layer:GCN"));
        assert!(abl.iter().any(|(n, _)| n == "comm:Sum"));
    }
}
