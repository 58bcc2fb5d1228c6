//! The NDJSON wire protocol: one JSON object per line in, one per line
//! out.
//!
//! Request (only `id` and `nodes` are required):
//!
//! ```json
//! {"id": 1, "nodes": [4, 17], "shots": 3, "attrs": [2], "top_k": 10, "seed": 7}
//! ```
//!
//! * `nodes` — query node ids; one node is the paper's single-query CS,
//!   several ask for the community containing **all** of them.
//! * `shots` — how many of the session's labelled support examples to
//!   condition on (default: all of them).
//! * `attrs` — optional attribute filter: returned members must carry at
//!   least one of the listed attribute ids.
//! * `top_k` — cap on returned members (default: every node scoring
//!   ≥ 0.5).
//! * `seed` — accepted for wire compatibility but currently a no-op:
//!   eval-mode inference is deterministic and contexts are cached per
//!   shot count, so no RNG is consumed. Reserved for future stochastic
//!   decoders, which would have to key the context cache on it.
//!
//! Response:
//!
//! ```json
//! {"id": 1, "ok": true, "error": null, "code": null, "members": [4, 17, 9],
//!  "probs": [0.99, 0.98, 0.71], "shots": 3, "cached": false, "latency_us": 412}
//! ```
//!
//! `members` are ranked by probability (descending, node id breaking
//! ties) and aligned with `probs`. Malformed lines and invalid requests
//! produce `ok: false` responses with `error` (human-readable) and
//! `code` (machine-readable, see [`ErrorCode`]) set — the stream keeps
//! going. Error responses echo the request `id` whenever one was
//! recoverable from the line, so multiplexed clients can correlate
//! failures; lines where no id could be parsed report `id: 0`.
//!
//! # Control frames (live updates)
//!
//! A line carrying an `"op"` key is a control frame, not a query. It
//! mutates the serving state and is answered with the same response
//! shape (`members` empty, `epoch` set to the graph epoch after the
//! update):
//!
//! ```json
//! {"id": 12, "op": "add_edge", "u": 3, "v": 9}
//! {"id": 13, "op": "add_node", "attrs": [0, 2]}
//! {"id": 14, "op": "update_support", "add": {"query": 5, "pos": [1], "neg": [7]}, "expire": 1}
//! ```
//!
//! * `add_edge` — inserts the undirected edge `{u, v}`; inserting an
//!   edge that already exists is an acknowledged no-op (the epoch does
//!   not advance).
//! * `add_node` — appends an isolated node carrying the listed attribute
//!   ids; the response's `members` holds the new node id.
//! * `update_support` — appends one labelled example to the support pool
//!   (`add`, optional) and/or expires the `expire` oldest examples
//!   (default 0). The pool must stay non-empty.
//!
//! Every response — query or update — carries `epoch`: the graph epoch
//! it was answered under. Epochs are monotone per session, so a client
//! that saw `epoch: 7` on an update ack knows any later response with
//! `epoch ≥ 7` reflects that mutation.

use cgnp_data::QueryExample;
use serde::json::Value;
use serde::Serialize;

/// Machine-readable error classes on the wire. Clients branch on these;
/// the human-readable `error` string is for logs only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or failed boundary validation; retrying
    /// it unchanged will fail again.
    BadRequest,
    /// The request's deadline expired before it was scored; retrying may
    /// succeed under lighter load.
    Timeout,
    /// The server shed the request (connection or queue limits); back
    /// off and retry.
    Overloaded,
    /// Scoring failed unexpectedly (a caught panic); the server is still
    /// healthy — other requests are unaffected.
    Internal,
}

impl ErrorCode {
    /// The wire spelling (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ErrorCode {
    fn serialize(&self, out: &mut serde::json::Emitter) {
        out.string(self.as_str());
    }
}

/// One community-search query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Query node ids (non-empty, each `< n`).
    pub nodes: Vec<usize>,
    /// Attribute filter for returned members; empty = no filter.
    pub attrs: Vec<u32>,
    /// Support examples to condition on; `None` = the session default.
    pub shots: Option<usize>,
    /// Cap on returned members; `None` = all nodes with prob ≥ 0.5.
    pub top_k: Option<usize>,
    /// Accepted for wire compatibility; currently a no-op (see the
    /// module docs — deterministic eval consumes no RNG).
    pub seed: Option<u64>,
}

impl QueryRequest {
    /// A request with only the required fields set.
    pub fn new(id: u64, nodes: Vec<usize>) -> Self {
        Self {
            id,
            nodes,
            attrs: Vec::new(),
            shots: None,
            top_k: None,
            seed: None,
        }
    }

    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = Some(shots);
        self
    }

    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }
}

/// Sanity ceiling on `shots`: values beyond any plausible support pool
/// are rejected as `bad_request` instead of silently clamped, so a
/// client sending garbage (e.g. an unconverted `u64::MAX`) hears about
/// it. Values between the pool size and this cap still clamp to the
/// pool, which is the documented "condition on everything" idiom.
pub const MAX_REASONABLE_SHOTS: usize = 1 << 20;

/// Validates a request at the protocol boundary, before it is admitted
/// to scoring: non-empty in-range `nodes`, `shots ≥ 1` (and not absurd
/// — see [`MAX_REASONABLE_SHOTS`]), `top_k ≥ 1` when given. Returns the
/// *effective* shot count — the session default (`max_shots`, the whole
/// pool) unless the request narrows it; always within `1..=max_shots`.
///
/// The gateway calls this before a request can consume a queue slot,
/// and [`crate::query_tick`] again inside the tick, against the state
/// the frames before it left — so the scoring kernels' deep assertions
/// are never the first line of defense against wire input.
pub fn validate_request(
    req: &QueryRequest,
    n_nodes: usize,
    max_shots: usize,
) -> Result<usize, String> {
    if req.nodes.is_empty() {
        return Err("query needs at least one node".into());
    }
    if req.nodes.len() > n_nodes {
        return Err(format!(
            "query lists {} nodes but the graph only has {n_nodes}",
            req.nodes.len()
        ));
    }
    if let Some(&bad) = req.nodes.iter().find(|&&v| v >= n_nodes) {
        return Err(format!(
            "node {bad} out of range (graph has {n_nodes} nodes)"
        ));
    }
    if req.top_k == Some(0) {
        return Err("top_k must be ≥ 1 (omit it for the probability-threshold default)".into());
    }
    match req.shots {
        Some(0) => Err("shots must be ≥ 1".into()),
        Some(s) if s > MAX_REASONABLE_SHOTS => Err(format!(
            "shots {s} is not a plausible support-pool size (max {MAX_REASONABLE_SHOTS})"
        )),
        Some(s) => Ok(s.min(max_shots)),
        None => Ok(max_shots),
    }
}

/// One answered query.
#[derive(Clone, Debug, Serialize)]
pub struct QueryResponse {
    pub id: u64,
    pub ok: bool,
    pub error: Option<String>,
    /// Typed error class when `ok` is false (see [`ErrorCode`]).
    pub code: Option<ErrorCode>,
    /// Member node ids ranked by probability (desc, node id asc on ties).
    pub members: Vec<usize>,
    /// Membership probabilities aligned with `members`.
    pub probs: Vec<f32>,
    /// Support examples the prediction was conditioned on.
    pub shots: usize,
    /// Always false; kept for wire compatibility.
    pub cached: bool,
    /// Wall-clock latency attributed to this request (whole micro-batch).
    pub latency_us: u64,
    /// Graph epoch the response was answered under (monotone per
    /// session; 0 on error paths that never reached a session).
    pub epoch: u64,
}

impl QueryResponse {
    /// An error response for a request id.
    pub fn error(id: u64, code: ErrorCode, msg: impl Into<String>) -> Self {
        Self {
            id,
            ok: false,
            error: Some(msg.into()),
            code: Some(code),
            members: Vec::new(),
            probs: Vec::new(),
            shots: 0,
            cached: false,
            latency_us: 0,
            epoch: 0,
        }
    }

    /// An acknowledgement for an applied update: `ok`, no members, the
    /// post-update graph epoch.
    pub fn ack(id: u64, epoch: u64) -> Self {
        Self {
            id,
            ok: true,
            error: None,
            code: None,
            members: Vec::new(),
            probs: Vec::new(),
            shots: 0,
            cached: false,
            latency_us: 0,
            epoch,
        }
    }

    /// Compact single-line JSON (the NDJSON output format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("response serialisation is infallible")
    }
}

/// A state mutation carried by a control frame.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Insert the undirected edge `{u, v}`.
    AddEdge { u: usize, v: usize },
    /// Append an isolated node carrying `attrs`.
    AddNode { attrs: Vec<u32> },
    /// Append one labelled example and/or expire the `expire` oldest.
    UpdateSupport {
        add: Option<QueryExample>,
        expire: usize,
    },
}

/// One control frame: a correlation id plus the mutation to apply.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateRequest {
    pub id: u64,
    pub op: UpdateOp,
}

impl UpdateRequest {
    /// Serialises the frame back to its wire form — the exact shapes
    /// [`parse_frame`] accepts, so `parse(to_json(u)) == u` and
    /// `to_json(parse(line))` is a canonical form of `line`. The WAL
    /// relies on that canonicality: record checksums are computed over
    /// this serialisation and re-derived after parsing on recovery.
    pub fn to_json(&self) -> String {
        let id = self.id;
        match &self.op {
            UpdateOp::AddEdge { u, v } => {
                format!("{{\"id\":{id},\"op\":\"add_edge\",\"u\":{u},\"v\":{v}}}")
            }
            UpdateOp::AddNode { attrs } => {
                format!(
                    "{{\"id\":{id},\"op\":\"add_node\",\"attrs\":[{}]}}",
                    join_nums(attrs.iter())
                )
            }
            UpdateOp::UpdateSupport { add, expire } => {
                let mut s = format!("{{\"id\":{id},\"op\":\"update_support\"");
                if let Some(ex) = add {
                    s.push_str(",\"add\":{\"query\":");
                    // `NO_QUERY` (usize::MAX) would not survive JSON's f64
                    // number model; it round-trips as -1 instead.
                    if ex.query == cgnp_data::NO_QUERY {
                        s.push_str("-1");
                    } else {
                        s.push_str(&ex.query.to_string());
                    }
                    s.push_str(&format!(
                        ",\"pos\":[{}],\"neg\":[{}]",
                        join_nums(ex.pos.iter()),
                        join_nums(ex.neg.iter())
                    ));
                    if !ex.truth.is_empty() {
                        s.push_str(&format!(
                            ",\"truth\":[{}]",
                            join_nums(ex.truth.iter().map(|&b| b as u8))
                        ));
                    }
                    s.push('}');
                }
                s.push_str(&format!(",\"expire\":{expire}}}"));
                s
            }
        }
    }
}

fn join_nums<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    items.map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

/// Anything a client can put on the wire: a query or a control frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    Query(QueryRequest),
    Update(UpdateRequest),
}

impl Frame {
    /// The correlation id, whichever kind of frame this is.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Query(q) => q.id,
            Frame::Update(u) => u.id,
        }
    }
}

/// Validates a control frame at the protocol boundary: node ids in
/// range, attribute ids within the graph's attribute vocabulary,
/// self-loops rejected. Pool-emptiness for `update_support` is checked
/// by the session, which owns the pool's current size.
pub fn validate_update(req: &UpdateRequest, n_nodes: usize, n_attrs: usize) -> Result<(), String> {
    match &req.op {
        UpdateOp::AddEdge { u, v } => {
            if let Some(&bad) = [u, v].into_iter().find(|&&x| x >= n_nodes) {
                return Err(format!(
                    "node {bad} out of range (graph has {n_nodes} nodes)"
                ));
            }
            if u == v {
                return Err(format!("self-loop ({u},{u}) rejected"));
            }
            Ok(())
        }
        UpdateOp::AddNode { attrs } => {
            if let Some(&bad) = attrs.iter().find(|&&a| a as usize >= n_attrs) {
                return Err(format!(
                    "attribute {bad} out of range (graph has {n_attrs} attributes)"
                ));
            }
            Ok(())
        }
        UpdateOp::UpdateSupport { add, expire } => {
            if add.is_none() && *expire == 0 {
                return Err("update_support must add and/or expire something".into());
            }
            if let Some(ex) = add {
                // `NO_QUERY` marks a support view whose query node lives
                // outside this partition (sharded serving); it is a valid
                // sentinel, never an index, so it skips the range check.
                if let Some(&bad) = std::iter::once(&ex.query)
                    .filter(|&&q| q != cgnp_data::NO_QUERY)
                    .chain(&ex.pos)
                    .chain(&ex.neg)
                    .find(|&&v| v >= n_nodes)
                {
                    return Err(format!(
                        "support node {bad} out of range (graph has {n_nodes} nodes)"
                    ));
                }
            }
            Ok(())
        }
    }
}

/// A request line that could not be parsed. Carries the request `id`
/// whenever one was recoverable from the line (a well-formed JSON object
/// with a valid `id` field but, say, broken `nodes`), so the error
/// response can still be correlated by a multiplexed client.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// The request id, when the line was parseable enough to extract it.
    pub id: Option<u64>,
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            id: None,
            message: message.into(),
        }
    }

    /// The id to echo on the error response (`0` when unrecoverable).
    pub fn response_id(&self) -> u64 {
        self.id.unwrap_or(0)
    }

    /// The `bad_request` line that answers the unparseable one.
    pub fn to_response(&self) -> QueryResponse {
        QueryResponse::error(
            self.response_id(),
            ErrorCode::BadRequest,
            format!("bad request line: {self}"),
        )
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn get<'v>(pairs: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as u64),
        other => Err(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        )),
    }
}

fn as_id_list(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    match v {
        Value::Arr(items) => items.iter().map(|x| as_u64(x, key)).collect(),
        other => Err(format!("field {key:?} must be an array, got {other:?}")),
    }
}

/// Parses one NDJSON line into a [`Frame`], dispatching on the presence
/// of an `"op"` key: lines carrying one are control frames, everything
/// else is a query. Optional fields may be absent (the vendored serde
/// derive has no `#[serde(default)]`, so this is hand-rolled over the
/// parsed [`Value`]). On failure the returned [`ParseError`] carries the
/// request id when the line got far enough for one to be recovered.
pub fn parse_frame(line: &str) -> Result<Frame, ParseError> {
    let value = serde::json::parse(line).map_err(|e| ParseError::new(e.0))?;
    parse_frame_value(&value)
}

/// [`parse_frame`] over an already-parsed [`Value`] — for callers (the
/// WAL reader) that hold frames embedded inside a larger JSON document.
pub fn parse_frame_value(value: &Value) -> Result<Frame, ParseError> {
    let Value::Obj(pairs) = &value else {
        return Err(ParseError::new("request must be a JSON object"));
    };
    // The id is extracted first and attached to every later failure, so
    // a request with a good id but bad fields still gets a correlatable
    // error response.
    let id = get(pairs, "id")
        .ok_or_else(|| ParseError::new("missing field \"id\""))
        .and_then(|v| as_u64(v, "id").map_err(ParseError::new))?;
    match get(pairs, "op") {
        Some(op) => update_from_pairs(id, op, pairs).map(Frame::Update),
        None => query_from_pairs(id, pairs).map(Frame::Query),
    }
}

fn query_from_pairs(id: u64, pairs: &[(String, Value)]) -> Result<QueryRequest, ParseError> {
    let with_id = |message: String| ParseError {
        id: Some(id),
        message,
    };
    let nodes = as_id_list(
        get(pairs, "nodes").ok_or_else(|| with_id("missing field \"nodes\"".into()))?,
        "nodes",
    )
    .map_err(with_id)?
    .into_iter()
    .map(|x| x as usize)
    .collect();
    let attrs = match get(pairs, "attrs") {
        Some(v) => as_id_list(v, "attrs")
            .map_err(with_id)?
            .into_iter()
            .map(|x| x as u32)
            .collect(),
        None => Vec::new(),
    };
    let opt = |key: &str| -> Result<Option<u64>, ParseError> {
        match get(pairs, key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => as_u64(v, key).map(Some).map_err(with_id),
        }
    };
    Ok(QueryRequest {
        id,
        nodes,
        attrs,
        shots: opt("shots")?.map(|x| x as usize),
        top_k: opt("top_k")?.map(|x| x as usize),
        seed: opt("seed")?,
    })
}

fn update_from_pairs(
    id: u64,
    op: &Value,
    pairs: &[(String, Value)],
) -> Result<UpdateRequest, ParseError> {
    let with_id = |message: String| ParseError {
        id: Some(id),
        message,
    };
    let Value::Str(op) = op else {
        return Err(with_id(format!(
            "field \"op\" must be a string, got {op:?}"
        )));
    };
    let req_u64 = |key: &str| -> Result<u64, ParseError> {
        get(pairs, key)
            .ok_or_else(|| with_id(format!("missing field {key:?}")))
            .and_then(|v| as_u64(v, key).map_err(with_id))
    };
    let op = match op.as_str() {
        "add_edge" => UpdateOp::AddEdge {
            u: req_u64("u")? as usize,
            v: req_u64("v")? as usize,
        },
        "add_node" => {
            let attrs = match get(pairs, "attrs") {
                Some(v) => as_id_list(v, "attrs")
                    .map_err(with_id)?
                    .into_iter()
                    .map(|x| x as u32)
                    .collect(),
                None => Vec::new(),
            };
            UpdateOp::AddNode { attrs }
        }
        "update_support" => {
            let add = match get(pairs, "add") {
                None | Some(Value::Null) => None,
                Some(v) => Some(support_example(v).map_err(with_id)?),
            };
            let expire = match get(pairs, "expire") {
                None | Some(Value::Null) => 0,
                Some(v) => as_u64(v, "expire").map_err(with_id)? as usize,
            };
            UpdateOp::UpdateSupport { add, expire }
        }
        other => {
            return Err(with_id(format!(
                "unknown op {other:?} (expected add_edge, add_node, or update_support)"
            )))
        }
    };
    Ok(UpdateRequest { id, op })
}

/// Parses a wire support example: `{"query": q, "pos": [...], "neg":
/// [...]}`. Two extensions exist for WAL round-tripping (clients never
/// send them): `"query": -1` reads back as the `NO_QUERY` sentinel, and
/// an optional `"truth"` array of 0/1 flags restores the evaluation-only
/// ground-truth mask an in-process caller may have attached.
fn support_example(v: &Value) -> Result<QueryExample, String> {
    let Value::Obj(pairs) = v else {
        return Err(format!("field \"add\" must be an object, got {v:?}"));
    };
    let query = match get(pairs, "query").ok_or("missing field \"query\" in support example")? {
        Value::Num(n) if *n == -1.0 => cgnp_data::NO_QUERY,
        v => as_u64(v, "query")? as usize,
    };
    let list = |key: &str| -> Result<Vec<usize>, String> {
        match get(pairs, key) {
            None | Some(Value::Null) => Ok(Vec::new()),
            Some(v) => Ok(as_id_list(v, key)?
                .into_iter()
                .map(|x| x as usize)
                .collect()),
        }
    };
    let truth = match get(pairs, "truth") {
        None | Some(Value::Null) => Vec::new(),
        Some(v) => as_id_list(v, "truth")?
            .into_iter()
            .map(|x| match x {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(format!("field \"truth\" entries must be 0/1, got {other}")),
            })
            .collect::<Result<Vec<bool>, String>>()?,
    };
    Ok(QueryExample {
        query,
        pos: list("pos")?,
        neg: list("neg")?,
        truth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`parse_frame`] for a line that is, or fails as, a query.
    fn parse_request(line: &str) -> Result<QueryRequest, ParseError> {
        parse_frame(line).map(|frame| match frame {
            Frame::Query(req) => req,
            Frame::Update(req) => panic!("not a query: {req:?}"),
        })
    }

    #[test]
    fn parses_minimal_request() {
        let r = parse_request(r#"{"id": 3, "nodes": [1, 2]}"#).unwrap();
        assert_eq!(r, QueryRequest::new(3, vec![1, 2]));
    }

    #[test]
    fn parses_full_request() {
        let r = parse_request(
            r#"{"id": 9, "nodes": [0], "attrs": [5, 6], "shots": 2, "top_k": 4, "seed": 11}"#,
        )
        .unwrap();
        assert_eq!(r.attrs, vec![5, 6]);
        assert_eq!(r.shots, Some(2));
        assert_eq!(r.top_k, Some(4));
        assert_eq!(r.seed, Some(11));
    }

    #[test]
    fn null_optionals_mean_absent() {
        let r = parse_request(r#"{"id": 1, "nodes": [0], "shots": null}"#).unwrap();
        assert_eq!(r.shots, None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"[1, 2]"#).is_err());
        assert!(parse_request(r#"{"nodes": [1]}"#).is_err(), "missing id");
        assert!(parse_request(r#"{"id": 1}"#).is_err(), "missing nodes");
        assert!(parse_request(r#"{"id": -1, "nodes": [0]}"#).is_err());
        assert!(parse_request(r#"{"id": 1, "nodes": [0.5]}"#).is_err());
        assert!(parse_request(r#"{"id": 1, "nodes": 7}"#).is_err());
    }

    #[test]
    fn parse_errors_recover_the_id_when_possible() {
        // Good id, bad nodes: the id survives for correlation.
        let e = parse_request(r#"{"id": 7, "nodes": "nope"}"#).unwrap_err();
        assert_eq!(e.id, Some(7));
        assert_eq!(e.response_id(), 7);
        let e = parse_request(r#"{"id": 8}"#).unwrap_err();
        assert_eq!(e.id, Some(8), "missing nodes after a good id");
        let e = parse_request(r#"{"id": 9, "nodes": [0], "shots": -3}"#).unwrap_err();
        assert_eq!(e.id, Some(9), "bad optional field after a good id");
        // No id recoverable: garbage, non-objects, bad id values.
        assert_eq!(parse_request("not json").unwrap_err().id, None);
        assert_eq!(parse_request(r#"{"nodes": [1]}"#).unwrap_err().id, None);
        let e = parse_request(r#"{"id": -1, "nodes": [0]}"#).unwrap_err();
        assert_eq!(e.id, None, "an invalid id is not echoed");
        assert_eq!(e.response_id(), 0);
    }

    #[test]
    fn boundary_validation() {
        let ok = |req: &QueryRequest| validate_request(req, 100, 5);
        assert_eq!(ok(&QueryRequest::new(1, vec![0, 99])).unwrap(), 5);
        assert_eq!(ok(&QueryRequest::new(1, vec![0]).with_shots(2)).unwrap(), 2);
        // Shots beyond the pool clamp (the "condition on everything"
        // idiom) — but absurd values are rejected, not clamped.
        assert_eq!(
            ok(&QueryRequest::new(1, vec![0]).with_shots(64)).unwrap(),
            5
        );
        let absurd = ok(&QueryRequest::new(1, vec![0]).with_shots(MAX_REASONABLE_SHOTS + 1));
        assert!(absurd.unwrap_err().contains("plausible"));
        assert!(ok(&QueryRequest::new(1, vec![])).is_err(), "empty nodes");
        assert!(
            ok(&QueryRequest::new(1, vec![100])).is_err(),
            "node out of range"
        );
        assert!(
            ok(&QueryRequest::new(1, (0..101).collect())).is_err(),
            "more query nodes than the graph has"
        );
        assert!(
            ok(&QueryRequest::new(1, vec![0]).with_shots(0)).is_err(),
            "zero shots"
        );
        assert!(
            ok(&QueryRequest::new(1, vec![0]).with_top_k(0)).is_err(),
            "zero top_k"
        );
    }

    #[test]
    fn response_serialises_to_one_line() {
        let mut r = QueryResponse::error(4, ErrorCode::BadRequest, "node 99 out of range");
        r.latency_us = 12;
        let json = r.to_json();
        assert!(!json.contains('\n'));
        assert!(
            json.contains("\"ok\": false") || json.contains("\"ok\":false"),
            "{json}"
        );
        assert!(json.contains("out of range"));
        assert!(json.contains("bad_request"), "typed code on the wire");
        // Round-trips through the vendored parser.
        let v = serde::json::parse(&json).unwrap();
        let Value::Obj(pairs) = v else {
            panic!("not an object")
        };
        assert!(get(&pairs, "members").is_some());
        assert!(get(&pairs, "latency_us").is_some());
        assert_eq!(get(&pairs, "code"), Some(&Value::Str("bad_request".into())));
    }

    #[test]
    fn parses_control_frames() {
        let f = parse_frame(r#"{"id": 12, "op": "add_edge", "u": 3, "v": 9}"#).unwrap();
        assert_eq!(
            f,
            Frame::Update(UpdateRequest {
                id: 12,
                op: UpdateOp::AddEdge { u: 3, v: 9 }
            })
        );
        let f = parse_frame(r#"{"id": 13, "op": "add_node", "attrs": [0, 2]}"#).unwrap();
        assert_eq!(
            f,
            Frame::Update(UpdateRequest {
                id: 13,
                op: UpdateOp::AddNode { attrs: vec![0, 2] }
            })
        );
        let f = parse_frame(
            r#"{"id": 14, "op": "update_support",
                "add": {"query": 5, "pos": [1, 2], "neg": [7]}, "expire": 1}"#,
        )
        .unwrap();
        let Frame::Update(u) = f else {
            panic!("not an update")
        };
        assert_eq!(u.id, 14);
        let UpdateOp::UpdateSupport { add, expire } = u.op else {
            panic!("wrong op")
        };
        assert_eq!(expire, 1);
        let ex = add.unwrap();
        assert_eq!((ex.query, ex.pos, ex.neg), (5, vec![1, 2], vec![7]));
        assert!(ex.truth.is_empty(), "truth has no wire form");
    }

    #[test]
    fn lines_without_op_stay_queries() {
        let f = parse_frame(r#"{"id": 3, "nodes": [1, 2]}"#).unwrap();
        assert_eq!(f, Frame::Query(QueryRequest::new(3, vec![1, 2])));
        assert_eq!(f.id(), 3);
    }

    #[test]
    fn rejects_malformed_control_frames() {
        let e = parse_frame(r#"{"id": 1, "op": "explode"}"#).unwrap_err();
        assert_eq!(e.id, Some(1), "unknown op keeps the id");
        assert!(e.message.contains("unknown op"));
        let e = parse_frame(r#"{"id": 2, "op": "add_edge", "u": 3}"#).unwrap_err();
        assert!(e.message.contains("\"v\""));
        assert!(
            parse_frame(r#"{"id": 4, "op": 7}"#).is_err(),
            "non-string op"
        );
        let e = parse_frame(r#"{"id": 5, "op": "update_support", "add": 3}"#).unwrap_err();
        assert!(e.message.contains("object"));
    }

    #[test]
    fn update_boundary_validation() {
        let ok = |op: UpdateOp| validate_update(&UpdateRequest { id: 1, op }, 10, 3);
        assert!(ok(UpdateOp::AddEdge { u: 0, v: 9 }).is_ok());
        assert!(
            ok(UpdateOp::AddEdge { u: 0, v: 10 }).is_err(),
            "out of range"
        );
        assert!(ok(UpdateOp::AddEdge { u: 4, v: 4 }).is_err(), "self-loop");
        assert!(ok(UpdateOp::AddNode { attrs: vec![2] }).is_ok());
        assert!(
            ok(UpdateOp::AddNode { attrs: vec![3] }).is_err(),
            "bad attr"
        );
        assert!(
            ok(UpdateOp::UpdateSupport {
                add: None,
                expire: 0
            })
            .is_err(),
            "vacuous update"
        );
        assert!(ok(UpdateOp::UpdateSupport {
            add: None,
            expire: 1
        })
        .is_ok());
        let ex = |q: usize| QueryExample {
            query: q,
            pos: vec![],
            neg: vec![],
            truth: vec![],
        };
        assert!(ok(UpdateOp::UpdateSupport {
            add: Some(ex(9)),
            expire: 0
        })
        .is_ok());
        assert!(
            ok(UpdateOp::UpdateSupport {
                add: Some(ex(10)),
                expire: 0
            })
            .is_err(),
            "support node out of range"
        );
    }

    #[test]
    fn responses_carry_the_epoch() {
        let ack = QueryResponse::ack(5, 42);
        assert!(ack.ok);
        assert_eq!(ack.epoch, 42);
        let json = ack.to_json();
        assert!(
            json.contains("\"epoch\": 42") || json.contains("\"epoch\":42"),
            "{json}"
        );
        assert_eq!(QueryResponse::error(1, ErrorCode::BadRequest, "x").epoch, 0);
    }

    #[test]
    fn error_codes_spell_snake_case() {
        assert_eq!(ErrorCode::BadRequest.as_str(), "bad_request");
        assert_eq!(ErrorCode::Timeout.as_str(), "timeout");
        assert_eq!(ErrorCode::Overloaded.as_str(), "overloaded");
        assert_eq!(ErrorCode::Internal.as_str(), "internal");
        assert_eq!(ErrorCode::Timeout.to_string(), "timeout");
    }

    /// Every update shape must survive `to_json` → `parse_frame` → `to_json`
    /// with the middle value equal and the two serialisations identical —
    /// the canonicality the WAL's record checksums depend on.
    #[test]
    fn update_requests_roundtrip_through_their_wire_form() {
        let cases = vec![
            UpdateRequest {
                id: 1,
                op: UpdateOp::AddEdge { u: 3, v: 9 },
            },
            UpdateRequest {
                id: 2,
                op: UpdateOp::AddNode { attrs: vec![] },
            },
            UpdateRequest {
                id: 3,
                op: UpdateOp::AddNode {
                    attrs: vec![0, 2, 7],
                },
            },
            UpdateRequest {
                id: 4,
                op: UpdateOp::UpdateSupport {
                    add: None,
                    expire: 2,
                },
            },
            UpdateRequest {
                id: 5,
                op: UpdateOp::UpdateSupport {
                    add: Some(QueryExample {
                        query: 5,
                        pos: vec![1, 2],
                        neg: vec![7],
                        truth: vec![],
                    }),
                    expire: 0,
                },
            },
            UpdateRequest {
                id: 6,
                op: UpdateOp::UpdateSupport {
                    add: Some(QueryExample {
                        query: cgnp_data::NO_QUERY,
                        pos: vec![],
                        neg: vec![],
                        truth: vec![true, false, true],
                    }),
                    expire: 1,
                },
            },
        ];
        for req in cases {
            let json = req.to_json();
            let Frame::Update(back) = parse_frame(&json)
                .unwrap_or_else(|e| panic!("wire form of {req:?} failed to parse: {e} ({json})"))
            else {
                panic!("update serialised as a query: {json}");
            };
            assert_eq!(back, req, "value round-trip ({json})");
            assert_eq!(back.to_json(), json, "canonical serialisation");
        }
    }
}
