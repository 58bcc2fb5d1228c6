//! # cgnp-eval
//!
//! Evaluation layer of the CGNP reproduction: classification metrics
//! (§VII-A), adapters exposing all 13 approaches through one interface,
//! the timing-aware experiment harness behind Tables II/III and
//! Figures 3–5, scale-aware experiment drivers, and paper-style table /
//! JSON reporting.
//!
//! ## Example
//!
//! ```
//! use cgnp_eval::{Metrics, TextTable};
//!
//! let m = Metrics::from_probs(&[0.9, 0.2, 0.8], &[true, false, true], 0.5);
//! assert_eq!(m.f1, 1.0);
//!
//! let mut t = TextTable::new(vec!["Method", "F1"]);
//! t.push_row(vec!["CGNP-IP".to_string(), format!("{:.4}", m.f1)]);
//! assert!(t.render().contains("CGNP-IP"));
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod experiments;
pub mod harness;
pub mod methods;
pub mod metrics;
pub mod report;

pub use checkpoint::{
    fnv1a64, load_checkpoint_file, load_from_file, restore, restore_model, save_to_file,
    save_with_arch, snapshot, snapshot_with_arch, weights_checksum, write_atomic, ArchSpec,
    Checkpoint,
};
pub use experiments::{
    build_cite2cora_tasks, build_facebook_tasks, build_single_graph_tasks, run_cell,
    ExperimentCell, ScaleSettings,
};
pub use harness::{evaluate_method, evaluate_roster, HarnessConfig, MethodOutcome};
pub use methods::{
    ablation_methods, standard_methods, AcqMethod, AtcMethod, CgnpMethod, CtcMethod,
    MethodSelection,
};
pub use metrics::Metrics;
pub use report::{fmt_metric, fmt_secs, quality_table, timing_table, ExperimentReport, TextTable};

// Re-export the pieces downstream bench/example code needs, so they can
// depend on this crate alone.
pub use cgnp_baselines::{BaselineHyper, CsLearner};
pub use cgnp_core::{Cgnp, CgnpConfig, CommutativeOp, DecoderKind, PreparedTask};
pub use cgnp_data::{DatasetId, Scale, TaskConfig, TaskKind, TaskSet};
