//! Epoch-consistent snapshots of serving state.
//!
//! A snapshot captures everything a session mutates at runtime — the
//! [`AttributedGraph`] (structure, attributes, communities, epoch) and
//! the support pool — plus the WAL sequence number it is consistent
//! with, under one FNV-1a checksum. Snapshots bound recovery time: a
//! restart loads the newest valid snapshot and replays only the WAL
//! records after its `last_seq`.
//!
//! Writes go through the checkpoint crate's [`cgnp_eval::write_atomic`]
//! (temp file in the same directory, fsync, rename, directory fsync), so
//! a crash mid-snapshot or mid-rename leaves either the previous complete
//! file or the new one — recovery skips unreadable candidates and
//! `.tmp.` leftovers. The newest two
//! snapshots are retained: the one being written plus its predecessor,
//! which stays the fallback until the new file proves checksum-valid.

use std::path::{Path, PathBuf};

use cgnp_data::{QueryExample, Task};
use cgnp_eval::{fnv1a64, write_atomic};
use cgnp_graph::{AttributedGraph, Graph};
use serde::json::Value;

/// Format marker of snapshot payloads.
pub const SNAPSHOT_FORMAT: &str = "cgnp-durable-snapshot-v1";

/// The mutable serving state a snapshot captures, cloned atomically
/// under the session's state lock so graph and pool are from the same
/// instant (epoch-consistent).
#[derive(Clone, Debug)]
pub struct SnapshotState {
    pub graph: AttributedGraph,
    pub support: Vec<QueryExample>,
}

/// A snapshot as stored on disk.
#[derive(Clone, Debug)]
pub struct SnapshotPayload {
    /// Last WAL sequence number whose effects this snapshot contains;
    /// replay resumes at `last_seq + 1`.
    pub last_seq: u64,
    /// Graph epoch at capture (restored verbatim so acks after recovery
    /// continue the same epoch sequence).
    pub epoch: u64,
    pub n: usize,
    pub n_attrs: usize,
    /// Canonical edge list (u < v, edge-id order). Rebuilding through
    /// `Graph::from_edges` yields adjacency bitwise-identical to the
    /// live-mutated original, which is all the scoring path reads.
    pub edges: Vec<(usize, usize)>,
    pub attrs: Vec<Vec<u32>>,
    pub communities: Vec<Vec<u32>>,
    pub support: Vec<QueryExample>,
}

impl SnapshotPayload {
    /// Captures a state clone at a WAL position.
    pub fn capture(state: &SnapshotState, last_seq: u64) -> Self {
        let g = &state.graph;
        Self {
            last_seq,
            epoch: g.epoch(),
            n: g.n(),
            n_attrs: g.n_attrs(),
            edges: g.graph().edges().collect(),
            attrs: (0..g.n()).map(|v| g.attrs_of(v).to_vec()).collect(),
            communities: (0..g.n_communities())
                .map(|c| g.community_members(c).to_vec())
                .collect(),
            support: state.support.clone(),
        }
    }

    /// Rebuilds the serving task this snapshot captured. The graph comes
    /// back at its recorded epoch with an empty mutation log starting
    /// there, exactly as [`AttributedGraph::restore_at_epoch`] documents.
    pub fn restore_task(&self) -> Result<Task, String> {
        for &(u, v) in &self.edges {
            if u >= self.n || v >= self.n {
                return Err(format!(
                    "snapshot edge ({u},{v}) out of range ({} nodes)",
                    self.n
                ));
            }
        }
        let graph = Graph::from_edges(self.n, &self.edges);
        let graph = AttributedGraph::restore_at_epoch(
            graph,
            self.n_attrs,
            self.attrs.clone(),
            self.communities.clone(),
            self.epoch,
        )?;
        for ex in &self.support {
            if let Some(&bad) = std::iter::once(&ex.query)
                .filter(|&&q| q != cgnp_data::NO_QUERY)
                .chain(&ex.pos)
                .chain(&ex.neg)
                .find(|&&v| v >= self.n)
            {
                return Err(format!(
                    "snapshot support node {bad} out of range ({} nodes)",
                    self.n
                ));
            }
        }
        Ok(Task {
            graph,
            support: self.support.clone(),
            targets: Vec::new(),
        })
    }

    /// The checksummed JSON body (everything but the `crc` field),
    /// byte-identical between write and verify.
    fn body_json(&self) -> String {
        let mut s = format!(
            "{{\"format\":\"{SNAPSHOT_FORMAT}\",\"last_seq\":{},\"epoch\":{},\"n\":{},\"n_attrs\":{}",
            self.last_seq, self.epoch, self.n, self.n_attrs
        );
        s.push_str(",\"edges\":[");
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{u},{v}]"));
        }
        s.push_str("],\"attrs\":[");
        push_nested(&mut s, &self.attrs);
        s.push_str("],\"communities\":[");
        push_nested(&mut s, &self.communities);
        s.push_str("],\"support\":[");
        for (i, ex) in self.support.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_example(&mut s, ex);
        }
        s.push(']');
        s
    }

    /// Full file contents: the body plus its checksum.
    pub fn to_json(&self) -> String {
        let body = self.body_json();
        let crc = fnv1a64(body.as_bytes());
        format!("{body},\"crc\":\"{crc:016x}\"}}")
    }

    /// Parses and checksum-verifies a snapshot file's contents.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde::json::parse(text).map_err(|e| e.0)?;
        let Value::Obj(pairs) = &value else {
            return Err("snapshot is not a JSON object".into());
        };
        let find = |key: &str| -> Result<&Value, String> {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let num = |key: &str| -> Result<u64, String> {
            match find(key)? {
                Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as u64),
                other => Err(format!("field {key:?} is not an integer: {other:?}")),
            }
        };
        let Value::Str(format) = find("format")? else {
            return Err("field \"format\" is not a string".into());
        };
        if format != SNAPSHOT_FORMAT {
            return Err(format!("unknown snapshot format {format:?}"));
        }
        let payload = Self {
            last_seq: num("last_seq")?,
            epoch: num("epoch")?,
            n: num("n")? as usize,
            n_attrs: num("n_attrs")? as usize,
            edges: parse_edges(find("edges")?)?,
            attrs: parse_nested(find("attrs")?, "attrs")?,
            communities: parse_nested(find("communities")?, "communities")?,
            support: parse_support(find("support")?)?,
        };
        let Value::Str(crc_hex) = find("crc")? else {
            return Err("field \"crc\" is not a string".into());
        };
        let declared =
            u64::from_str_radix(crc_hex, 16).map_err(|_| format!("unparseable crc {crc_hex:?}"))?;
        let actual = fnv1a64(payload.body_json().as_bytes());
        if actual != declared {
            return Err(format!(
                "snapshot checksum mismatch: body hashes to {actual:016x} but declares {declared:016x}"
            ));
        }
        Ok(payload)
    }
}

fn push_nested(s: &mut String, lists: &[Vec<u32>]) {
    for (i, list) in lists.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, x) in list.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&x.to_string());
        }
        s.push(']');
    }
}

fn push_example(s: &mut String, ex: &QueryExample) {
    s.push_str("{\"query\":");
    if ex.query == cgnp_data::NO_QUERY {
        s.push_str("-1");
    } else {
        s.push_str(&ex.query.to_string());
    }
    let join = |xs: &[usize]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    s.push_str(&format!(
        ",\"pos\":[{}],\"neg\":[{}]",
        join(&ex.pos),
        join(&ex.neg)
    ));
    s.push_str(",\"truth\":[");
    for (j, &b) in ex.truth.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        s.push(if b { '1' } else { '0' });
    }
    s.push_str("]}");
}

fn parse_u64_item(v: &Value, key: &str) -> Result<u64, String> {
    match v {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as u64),
        other => Err(format!("{key}: expected integer, got {other:?}")),
    }
}

fn parse_edges(v: &Value) -> Result<Vec<(usize, usize)>, String> {
    let Value::Arr(items) = v else {
        return Err("edges is not an array".into());
    };
    items
        .iter()
        .map(|e| {
            let Value::Arr(pair) = e else {
                return Err("edge is not a pair".into());
            };
            if pair.len() != 2 {
                return Err("edge is not a pair".into());
            }
            Ok((
                parse_u64_item(&pair[0], "edge")? as usize,
                parse_u64_item(&pair[1], "edge")? as usize,
            ))
        })
        .collect()
}

fn parse_nested(v: &Value, key: &str) -> Result<Vec<Vec<u32>>, String> {
    let Value::Arr(items) = v else {
        return Err(format!("{key} is not an array"));
    };
    items
        .iter()
        .map(|list| {
            let Value::Arr(xs) = list else {
                return Err(format!("{key} entry is not an array"));
            };
            xs.iter()
                .map(|x| parse_u64_item(x, key).map(|n| n as u32))
                .collect()
        })
        .collect()
}

fn parse_support(v: &Value) -> Result<Vec<QueryExample>, String> {
    let Value::Arr(items) = v else {
        return Err("support is not an array".into());
    };
    items
        .iter()
        .map(|item| {
            let Value::Obj(pairs) = item else {
                return Err("support entry is not an object".into());
            };
            let find = |key: &str| -> Result<&Value, String> {
                pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("support entry missing {key:?}"))
            };
            let query = match find("query")? {
                Value::Num(n) if *n == -1.0 => cgnp_data::NO_QUERY,
                v => parse_u64_item(v, "query")? as usize,
            };
            let ids = |key: &str| -> Result<Vec<usize>, String> {
                let Value::Arr(xs) = find(key)? else {
                    return Err(format!("support field {key:?} is not an array"));
                };
                xs.iter()
                    .map(|x| parse_u64_item(x, key).map(|n| n as usize))
                    .collect()
            };
            let Value::Arr(ts) = find("truth")? else {
                return Err("support field \"truth\" is not an array".into());
            };
            let truth = ts
                .iter()
                .map(|x| match parse_u64_item(x, "truth")? {
                    0 => Ok(false),
                    1 => Ok(true),
                    other => Err(format!("truth entries must be 0/1, got {other}")),
                })
                .collect::<Result<Vec<bool>, String>>()?;
            Ok(QueryExample {
                query,
                pos: ids("pos")?,
                neg: ids("neg")?,
                truth,
            })
        })
        .collect()
}

/// File name for a snapshot at a WAL position. Zero-padded so
/// lexicographic and numeric order agree.
pub fn snapshot_file_name(last_seq: u64) -> String {
    format!("snapshot-{last_seq:020}.json")
}

/// Writes a snapshot durably and atomically into `dir`
/// ([`write_atomic`]). Returns the final path.
pub fn write_snapshot(dir: &Path, payload: &SnapshotPayload) -> std::io::Result<PathBuf> {
    let path = dir.join(snapshot_file_name(payload.last_seq));
    write_atomic(&path, payload.to_json().as_bytes())?;
    Ok(path)
}

/// Scans `dir` newest-first and returns the first checksum-valid
/// snapshot, with the count of newer candidates that were skipped as
/// corrupt or partial (a crash mid-snapshot/mid-rename leaves those;
/// `.tmp.` files are ignored outright). `Ok(None)` when no snapshot
/// loads — a fresh directory, or every candidate damaged.
pub fn load_latest_snapshot(
    dir: &Path,
) -> std::io::Result<Option<(SnapshotPayload, PathBuf, usize)>> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("snapshot-") && name.ends_with(".json") {
                    candidates.push(entry.path());
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    candidates.sort();
    candidates.reverse();
    let mut skipped = 0usize;
    for path in candidates {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| SnapshotPayload::from_json(&text))
        {
            Ok(payload) => return Ok(Some((payload, path, skipped))),
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

/// Deletes all but the newest `keep` snapshots (best-effort).
pub fn prune_snapshots(dir: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut names: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("snapshot-") && n.ends_with(".json")
                })
                .unwrap_or(false)
        })
        .collect();
    names.sort();
    names.reverse();
    for old in names.into_iter().skip(keep) {
        let _ = std::fs::remove_file(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_graph::Graph;

    fn state() -> SnapshotState {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let attrs = vec![vec![0], vec![1], vec![0, 1], vec![], vec![1]];
        let comms = vec![vec![0, 1, 2], vec![2, 3, 4]];
        let mut graph = AttributedGraph::new(g, 2, attrs, comms);
        graph.insert_edge(0, 4).unwrap();
        graph.add_node(vec![0]).unwrap();
        SnapshotState {
            graph,
            support: vec![
                QueryExample {
                    query: 1,
                    pos: vec![0, 2],
                    neg: vec![4],
                    truth: vec![true, true, true, false, false],
                },
                QueryExample {
                    query: cgnp_data::NO_QUERY,
                    pos: vec![],
                    neg: vec![3],
                    truth: vec![],
                },
            ],
        }
    }

    #[test]
    fn payload_roundtrips_bitwise() {
        let st = state();
        let payload = SnapshotPayload::capture(&st, 7);
        let json = payload.to_json();
        let back = SnapshotPayload::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json, "canonical serialisation");
        assert_eq!(back.last_seq, 7);
        assert_eq!(back.epoch, st.graph.epoch());
        let task = back.restore_task().unwrap();
        assert_eq!(task.graph.epoch(), st.graph.epoch());
        assert_eq!(task.graph.n(), st.graph.n());
        for v in 0..st.graph.n() {
            assert_eq!(
                task.graph.graph().neighbors(v),
                st.graph.graph().neighbors(v),
                "adjacency of {v}"
            );
            assert_eq!(task.graph.attrs_of(v), st.graph.attrs_of(v));
        }
        assert_eq!(task.support, st.support);
        assert_eq!(task.graph.communities_of(2), st.graph.communities_of(2));
    }

    #[test]
    fn corrupted_snapshot_fails_its_checksum() {
        let payload = SnapshotPayload::capture(&state(), 3);
        let json = payload.to_json();
        let damaged = json.replacen("\"epoch\":2", "\"epoch\":9", 1);
        assert_ne!(json, damaged, "fixture layout moved");
        let err = SnapshotPayload::from_json(&damaged).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(SnapshotPayload::from_json(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn newest_valid_snapshot_wins_and_damaged_newer_is_skipped() {
        let dir = std::env::temp_dir().join(format!("cgnp-snap-pick-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let st = state();
        write_snapshot(&dir, &SnapshotPayload::capture(&st, 3)).unwrap();
        let newest = write_snapshot(&dir, &SnapshotPayload::capture(&st, 9)).unwrap();
        // Crash mid-snapshot: the newest file is half-written.
        let text = std::fs::read_to_string(&newest).unwrap();
        std::fs::write(&newest, &text[..text.len() / 3]).unwrap();
        // Crash mid-rename leaves a `.tmp.` file; it must be ignored.
        std::fs::write(dir.join("snapshot-99999999999999999999.json.tmp.1"), "{").unwrap();
        let (payload, path, skipped) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(payload.last_seq, 3, "fell back past the damaged newest");
        assert_eq!(skipped, 1);
        assert!(path.to_string_lossy().contains("snapshot-"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest_two() {
        let dir = std::env::temp_dir().join(format!("cgnp-snap-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let st = state();
        for seq in [1u64, 5, 9] {
            write_snapshot(&dir, &SnapshotPayload::capture(&st, seq)).unwrap();
        }
        prune_snapshots(&dir, 2);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, vec![snapshot_file_name(5), snapshot_file_name(9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_loads_none() {
        let dir = std::env::temp_dir().join(format!("cgnp-snap-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
        let missing = dir.join("does-not-exist");
        assert!(load_latest_snapshot(&missing).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
