//! Model checkpointing: serialise any [`cgnp_nn::Module`]'s weights to
//! JSON and restore them, so meta-trained models can be reused across
//! processes (the library-adoption path: train once, answer queries many
//! times).
//!
//! Checkpoints saved from a [`cgnp_core::Cgnp`] additionally embed an
//! [`ArchSpec`] — the architecture needed to rebuild the model — so
//! `cgnp serve` and `ServeSession` can restore a model without the
//! operator repeating the training-time CLI flags. The field is optional
//! in the payload: legacy checkpoints (no `arch`) still load, with the
//! caller supplying the architecture explicitly as before.

use std::io::{self, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use cgnp_core::{Cgnp, CgnpConfig, CommutativeOp, DecoderKind};
use cgnp_nn::{Activation, GnnConfig, GnnKind, Module};
use cgnp_tensor::Matrix;

/// A serialisable snapshot of a module's parameters.
///
/// `Serialize`/`Deserialize` are hand-written (the vendored serde derive
/// has no field attributes): `arch` is emitted only when present, and a
/// missing key reads back as `None`, so legacy checkpoints round-trip
/// unchanged.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Format marker for forward compatibility.
    pub format: String,
    /// Parameter matrices in the module's stable order.
    pub weights: Vec<SerializedMatrix>,
    /// Architecture the weights were trained with, when known. Absent in
    /// legacy checkpoints and in snapshots of bare modules that are not a
    /// full CGNP model.
    pub arch: Option<ArchSpec>,
    /// FNV-1a digest over the weight payload (shapes + f32 bit patterns),
    /// stored as a 16-digit hex string so the value survives JSON's f64
    /// number model. `None` in legacy files, which still restore — the
    /// shape/length checks remain their only defence against bit-rot.
    pub checksum: Option<String>,
}

impl Serialize for Checkpoint {
    fn serialize(&self, out: &mut serde::json::Emitter) {
        out.begin_object();
        out.element();
        out.key("format");
        self.format.serialize(out);
        out.element();
        out.key("weights");
        self.weights.serialize(out);
        if let Some(arch) = &self.arch {
            out.element();
            out.key("arch");
            arch.serialize(out);
        }
        if let Some(checksum) = &self.checksum {
            out.element();
            out.key("checksum");
            checksum.serialize(out);
        }
        out.end_object();
    }
}

impl Deserialize for Checkpoint {
    fn deserialize(v: &serde::json::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            format: serde::field(v, "format")?,
            weights: serde::field(v, "weights")?,
            arch: serde::optional_field(v, "arch")?,
            checksum: serde::optional_field(v, "checksum")?,
        })
    }
}

/// 64-bit FNV-1a over a byte stream. Not cryptographic — it guards
/// against bit-rot, torn writes, and hand-editing accidents, the failure
/// modes a local checkpoint or durability log actually faces. Shared by
/// checkpoint integrity here and the serve-layer WAL/snapshot framing.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Replaces `path` with `bytes` durably and atomically: the bytes go to a
/// temporary sibling (`rename` is only atomic within one filesystem),
/// are fsync'd, and the file is renamed into place, then the directory
/// is fsync'd (best effort) so the rename itself survives a crash.
/// Readers observe either the previous complete file or the new one,
/// never a torn one. Shared by checkpoint saves here and the serve-layer
/// snapshots.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Digest of a checkpoint's weight payload: each matrix's shape and the
/// exact bit patterns of its values, in parameter order. Bitwise — two
/// checkpoints agree on the digest iff they restore identical models.
pub fn weights_checksum(weights: &[SerializedMatrix]) -> u64 {
    let mut bytes = Vec::new();
    for w in weights {
        bytes.extend_from_slice(&(w.rows as u64).to_le_bytes());
        bytes.extend_from_slice(&(w.cols as u64).to_le_bytes());
        for &x in &w.data {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Self-describing architecture payload: everything needed to rebuild the
/// [`cgnp_core::Cgnp`] a checkpoint belongs to (enums flattened to
/// lowercase strings so the JSON stays hand-readable and stable across
/// enum re-orderings). Training-only hyperparameters (learning rate,
/// epochs, clipping) are deliberately not recorded: they do not affect
/// how restored weights are evaluated or served.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Encoder layer family: `gcn` | `gat` | `sage`.
    pub encoder_kind: String,
    /// Encoder input width (`1 + base_feature_dim`); informational, since
    /// serving re-binds it to the serving graph's feature width.
    pub in_dim: usize,
    pub hidden_dim: usize,
    pub out_dim: usize,
    pub n_layers: usize,
    pub dropout: f32,
    /// Inter-layer activation: `relu` | `elu` | `tanh` | `none`.
    pub activation: String,
    /// Commutative ⊕: `sum` | `mean` | `self_attention`.
    pub commutative: String,
    /// Decoder ρθ: `ip` | `mlp` | `gnn`.
    pub decoder: String,
    pub mlp_hidden: usize,
    pub attention_dim: usize,
}

impl ArchSpec {
    /// Records the architecture of a model configuration.
    pub fn from_config(cfg: &CgnpConfig) -> Self {
        Self {
            encoder_kind: match cfg.encoder.kind {
                GnnKind::Gcn => "gcn",
                GnnKind::Gat => "gat",
                GnnKind::Sage => "sage",
            }
            .to_string(),
            in_dim: cfg.encoder.in_dim,
            hidden_dim: cfg.encoder.hidden_dim,
            out_dim: cfg.encoder.out_dim,
            n_layers: cfg.encoder.n_layers,
            dropout: cfg.encoder.dropout,
            activation: match cfg.encoder.activation {
                Activation::Relu => "relu",
                Activation::Elu => "elu",
                Activation::Tanh => "tanh",
                Activation::None => "none",
            }
            .to_string(),
            commutative: match cfg.commutative {
                CommutativeOp::Sum => "sum",
                CommutativeOp::Mean => "mean",
                CommutativeOp::SelfAttention => "self_attention",
            }
            .to_string(),
            decoder: match cfg.decoder {
                DecoderKind::InnerProduct => "ip",
                DecoderKind::Mlp => "mlp",
                DecoderKind::Gnn => "gnn",
            }
            .to_string(),
            mlp_hidden: cfg.mlp_hidden,
            attention_dim: cfg.attention_dim,
        }
    }

    /// Rebuilds a model configuration (training hyperparameters take the
    /// paper defaults; they are irrelevant for restored weights).
    ///
    /// # Errors
    /// Fails on unknown enum strings, as from a hand-edited or
    /// future-format checkpoint.
    pub fn to_config(&self) -> Result<CgnpConfig, String> {
        let kind = match self.encoder_kind.as_str() {
            "gcn" => GnnKind::Gcn,
            "gat" => GnnKind::Gat,
            "sage" => GnnKind::Sage,
            other => return Err(format!("unknown encoder kind {other:?} in checkpoint")),
        };
        let activation = match self.activation.as_str() {
            "relu" => Activation::Relu,
            "elu" => Activation::Elu,
            "tanh" => Activation::Tanh,
            "none" => Activation::None,
            other => return Err(format!("unknown activation {other:?} in checkpoint")),
        };
        let commutative = match self.commutative.as_str() {
            "sum" => CommutativeOp::Sum,
            "mean" => CommutativeOp::Mean,
            "self_attention" => CommutativeOp::SelfAttention,
            other => return Err(format!("unknown commutative op {other:?} in checkpoint")),
        };
        let decoder = match self.decoder.as_str() {
            "ip" => DecoderKind::InnerProduct,
            "mlp" => DecoderKind::Mlp,
            "gnn" => DecoderKind::Gnn,
            other => return Err(format!("unknown decoder {other:?} in checkpoint")),
        };
        let mut cfg = CgnpConfig::paper_default(self.in_dim, self.hidden_dim)
            .with_decoder(decoder)
            .with_commutative(commutative);
        cfg.encoder = GnnConfig {
            kind,
            in_dim: self.in_dim,
            hidden_dim: self.hidden_dim,
            out_dim: self.out_dim,
            n_layers: self.n_layers,
            dropout: self.dropout,
            activation,
        };
        cfg.mlp_hidden = self.mlp_hidden;
        cfg.attention_dim = self.attention_dim;
        Ok(cfg)
    }
}

/// Row-major matrix payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SerializedMatrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl From<&Matrix> for SerializedMatrix {
    fn from(m: &Matrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().to_vec(),
        }
    }
}

impl From<&SerializedMatrix> for Matrix {
    fn from(s: &SerializedMatrix) -> Self {
        Matrix::from_vec(s.rows, s.cols, s.data.clone())
    }
}

const FORMAT: &str = "cgnp-checkpoint-v1";

/// Snapshots a module's weights (no architecture payload; see
/// [`snapshot_with_arch`]).
pub fn snapshot(module: &dyn Module) -> Checkpoint {
    let weights: Vec<SerializedMatrix> = module.export_weights().iter().map(Into::into).collect();
    let checksum = Some(format!("{:016x}", weights_checksum(&weights)));
    Checkpoint {
        format: FORMAT.to_string(),
        weights,
        arch: None,
        checksum,
    }
}

/// Snapshots a module's weights together with the architecture they
/// belong to, making the checkpoint self-describing.
pub fn snapshot_with_arch(module: &dyn Module, arch: ArchSpec) -> Checkpoint {
    Checkpoint {
        arch: Some(arch),
        ..snapshot(module)
    }
}

/// Restores a snapshot into a module.
///
/// # Errors
/// Fails when the format marker, the parameter count, or any shape
/// mismatches — and when a payload is internally inconsistent (its
/// `data` length differs from `rows × cols`, as happens with corrupt or
/// hand-edited files). Files carrying a `checksum` are re-hashed and
/// rejected on mismatch, catching bit-rot the shape checks cannot see;
/// legacy checksum-less files skip that verification and still load.
/// Corruption is always reported as `Err`; this function never panics on
/// untrusted checkpoint contents.
pub fn restore(module: &dyn Module, ckpt: &Checkpoint) -> Result<(), String> {
    if ckpt.format != FORMAT {
        return Err(format!("unknown checkpoint format {:?}", ckpt.format));
    }
    if let Some(stored) = &ckpt.checksum {
        let declared = u64::from_str_radix(stored, 16)
            .map_err(|_| format!("corrupt checkpoint: unparseable checksum {stored:?}"))?;
        let actual = weights_checksum(&ckpt.weights);
        if actual != declared {
            return Err(format!(
                "checkpoint checksum mismatch: payload hashes to {actual:016x} but the file \
                 declares {declared:016x} — the weights were corrupted after saving"
            ));
        }
    }
    let params = module.params();
    if params.len() != ckpt.weights.len() {
        return Err(format!(
            "parameter count mismatch: model has {}, checkpoint has {}",
            params.len(),
            ckpt.weights.len()
        ));
    }
    for (i, (p, w)) in params.iter().zip(&ckpt.weights).enumerate() {
        // Validate the payload against its own declared shape before the
        // model's: a corrupt length would otherwise pass the shape check
        // and abort inside `Matrix::from_vec`. `checked_mul` also covers
        // absurd shapes that overflow (e.g. huge values a lenient JSON
        // number parse let through).
        let declared = w.rows.checked_mul(w.cols).ok_or_else(|| {
            format!(
                "corrupt checkpoint: weight {i} shape {}x{} overflows",
                w.rows, w.cols
            )
        })?;
        if w.data.len() != declared {
            return Err(format!(
                "corrupt checkpoint: weight {i} holds {} values but declares shape {:?}",
                w.data.len(),
                (w.rows, w.cols)
            ));
        }
        if p.shape() != (w.rows, w.cols) {
            return Err(format!(
                "shape mismatch: model {:?} vs checkpoint {:?}",
                p.shape(),
                (w.rows, w.cols)
            ));
        }
    }
    let weights: Vec<Matrix> = ckpt.weights.iter().map(Into::into).collect();
    module.import_weights(&weights);
    Ok(())
}

/// Saves a module's weights as JSON.
///
/// The write is durable and atomic ([`write_atomic`]): a crash (or
/// disk-full abort) mid-save can never leave a truncated checkpoint at
/// `path` — readers observe either the previous complete file or the new
/// one.
pub fn save_to_file(module: &dyn Module, path: impl AsRef<Path>) -> io::Result<()> {
    write_checkpoint(&snapshot(module), path)
}

/// Saves a module's weights plus their [`ArchSpec`] as JSON (atomic, see
/// [`save_to_file`]). The resulting checkpoint is self-describing:
/// `cgnp serve` can restore it without architecture flags.
pub fn save_with_arch(
    module: &dyn Module,
    arch: ArchSpec,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    write_checkpoint(&snapshot_with_arch(module, arch), path)
}

fn write_checkpoint(ckpt: &Checkpoint, path: impl AsRef<Path>) -> io::Result<()> {
    let json = serde_json::to_string(ckpt).map_err(io::Error::other)?;
    write_atomic(path.as_ref(), json.as_bytes())
}

/// Loads JSON weights into a module.
pub fn load_from_file(module: &dyn Module, path: impl AsRef<Path>) -> io::Result<()> {
    let ckpt = load_checkpoint_file(path)?;
    restore(module, &ckpt).map_err(io::Error::other)
}

/// Parses a checkpoint file without restoring it, so callers can inspect
/// the embedded [`ArchSpec`] (if any) before building a model to load
/// the weights into.
pub fn load_checkpoint_file(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(io::Error::other)
}

/// Rebuilds the [`Cgnp`] a checkpoint file belongs to and loads its
/// weights. Self-describing checkpoints (saved by `cgnp train`, which
/// embeds an [`ArchSpec`]) rebuild their own architecture; `template` is
/// only consulted for legacy checkpoints without one, in which case it
/// must describe the architecture the checkpoint was trained with —
/// hidden width, decoder, encoder kind — or restoration fails with a
/// shape error. Either way the encoder input width is re-bound to
/// `in_dim`, the feature width of the graph the model will run on.
pub fn restore_model(
    path: impl AsRef<Path>,
    template: CgnpConfig,
    in_dim: usize,
    seed: u64,
) -> Result<Cgnp, String> {
    let path = path.as_ref();
    let ckpt =
        load_checkpoint_file(path).map_err(|e| format!("loading checkpoint {path:?}: {e}"))?;
    let mut config = match &ckpt.arch {
        Some(spec) => spec
            .to_config()
            .map_err(|e| format!("checkpoint {path:?} carries a bad architecture: {e}"))?,
        None => template,
    };
    config.encoder.in_dim = in_dim;
    let model = Cgnp::new(config, seed);
    restore(&model, &ckpt).map_err(|e| format!("loading checkpoint {path:?}: {e}"))?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_nn::{GnnConfig, GnnEncoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(seed: u64) -> GnnEncoder {
        GnnEncoder::new(
            &GnnConfig::paper_default(4, 8, 4),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let a = encoder(1);
        let b = encoder(2);
        let ckpt = snapshot(&a);
        restore(&b, &ckpt).unwrap();
        for (x, y) in a.export_weights().iter().zip(b.export_weights().iter()) {
            assert!(x.approx_eq(y, 0.0));
        }
    }

    #[test]
    fn file_roundtrip() {
        let a = encoder(3);
        let dir = std::env::temp_dir().join("cgnp-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc.json");
        save_to_file(&a, &path).unwrap();
        let b = encoder(4);
        load_from_file(&b, &path).unwrap();
        for (x, y) in a.export_weights().iter().zip(b.export_weights().iter()) {
            assert!(x.approx_eq(y, 0.0));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_is_atomic_replace_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("cgnp-ckpt-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        // Overwriting an existing checkpoint goes through the temp+rename
        // path and yields a complete, parseable file.
        save_to_file(&encoder(30), &path).unwrap();
        save_to_file(&encoder(31), &path).unwrap();
        let b = encoder(32);
        load_from_file(&b, &path).unwrap();
        for (x, y) in encoder(31)
            .export_weights()
            .iter()
            .zip(b.export_weights().iter())
        {
            assert!(x.approx_eq(y, 0.0), "latest save wins");
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let a = encoder(5);
        let wider = GnnEncoder::new(
            &GnnConfig::paper_default(4, 16, 4),
            &mut StdRng::seed_from_u64(6),
        );
        let ckpt = snapshot(&a);
        let err = restore(&wider, &ckpt).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_corrupted_weight_bits() {
        let a = encoder(50);
        let mut ckpt = snapshot(&a);
        assert!(ckpt.checksum.is_some(), "snapshots carry a checksum");
        // Flip one value: shapes and lengths stay valid, so only the
        // checksum can catch it.
        ckpt.weights[0].data[0] += 1.0;
        let err = restore(&a, &ckpt).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn legacy_checksumless_checkpoints_still_restore() {
        let a = encoder(51);
        let mut ckpt = snapshot(&a);
        ckpt.checksum = None;
        let json = serde_json::to_string(&ckpt).unwrap();
        assert!(!json.contains("checksum"), "legacy shape has no checksum");
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert!(back.checksum.is_none());
        restore(&encoder(52), &back).unwrap();
    }

    #[test]
    fn checksum_is_bitwise_and_roundtrips_through_json() {
        let ckpt = snapshot(&encoder(53));
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checksum, ckpt.checksum);
        assert_eq!(
            format!("{:016x}", weights_checksum(&back.weights)),
            back.checksum.unwrap(),
            "the digest survives a JSON float round-trip"
        );
    }

    #[test]
    fn restore_rejects_unknown_format() {
        let a = encoder(7);
        let mut ckpt = snapshot(&a);
        ckpt.format = "bogus".into();
        assert!(restore(&a, &ckpt).is_err());
    }

    #[test]
    fn json_is_self_describing() {
        let ckpt = snapshot(&encoder(8));
        let json = serde_json::to_string(&ckpt).unwrap();
        assert!(json.contains("cgnp-checkpoint-v1"));
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.weights.len(), ckpt.weights.len());
    }

    #[test]
    fn arch_spec_roundtrips_every_variant() {
        use cgnp_core::{CommutativeOp, DecoderKind};
        use cgnp_nn::GnnKind;
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
            for dec in [
                DecoderKind::InnerProduct,
                DecoderKind::Mlp,
                DecoderKind::Gnn,
            ] {
                for op in [
                    CommutativeOp::Sum,
                    CommutativeOp::Mean,
                    CommutativeOp::SelfAttention,
                ] {
                    let cfg = CgnpConfig::paper_default(9, 16)
                        .with_decoder(dec)
                        .with_commutative(op)
                        .with_encoder_kind(kind);
                    let spec = ArchSpec::from_config(&cfg);
                    let back = spec.to_config().unwrap();
                    assert_eq!(ArchSpec::from_config(&back), spec);
                    assert_eq!(back.decoder, dec);
                    assert_eq!(back.commutative, op);
                    assert_eq!(back.encoder.kind, kind);
                    assert_eq!(back.encoder.hidden_dim, 16);
                }
            }
        }
    }

    #[test]
    fn arch_spec_rejects_unknown_strings() {
        let mut spec = ArchSpec::from_config(&CgnpConfig::paper_default(4, 8));
        spec.decoder = "transformer".into();
        let err = spec.to_config().unwrap_err();
        assert!(err.contains("transformer"), "{err}");
    }

    #[test]
    fn save_with_arch_roundtrips_and_legacy_files_still_parse() {
        let dir = std::env::temp_dir().join("cgnp-ckpt-arch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("with-arch.json");
        let a = encoder(40);
        let arch = ArchSpec::from_config(&CgnpConfig::paper_default(4, 8));
        save_with_arch(&a, arch.clone(), &path).unwrap();
        let back = load_checkpoint_file(&path).unwrap();
        assert_eq!(back.arch.as_ref(), Some(&arch));
        // The arch payload does not interfere with weight restoration.
        let b = encoder(41);
        load_from_file(&b, &path).unwrap();
        for (x, y) in a.export_weights().iter().zip(b.export_weights().iter()) {
            assert!(x.approx_eq(y, 0.0));
        }
        // A legacy checkpoint (no `arch` key at all) parses to `None`.
        let legacy = dir.join("legacy.json");
        save_to_file(&a, &legacy).unwrap();
        let json = std::fs::read_to_string(&legacy).unwrap();
        assert!(!json.contains("\"arch\""), "legacy save must omit arch");
        assert!(load_checkpoint_file(&legacy).unwrap().arch.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
