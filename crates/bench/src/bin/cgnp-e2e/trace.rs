//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's own side of the engine boundary, and the arithmetic that
//! turns them into per-layer time: self time, and the attribution of each
//! client round trip to whatever the server was doing while it waited.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cgnp_serve::{
    QueryEngine, QueryRequest, QueryResponse, ServeSummary, SnapshotState, UpdateRequest,
};

/// One timed call. Times are nanoseconds from the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (the enclosing call on the thread).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ids of the requests the call served.
    pub requests: Vec<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread; engine calls nest on the
    /// gateway's batcher thread, so a thread-local is the whole call stack.
    static CURRENT: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Span sink shared by every traced layer of one run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(Self {
            origin,
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that is a child of the thread's open span.
    pub fn span<R>(&self, name: &'static str, requests: Vec<u64>, f: impl FnOnce() -> R) -> R {
        let parent = CURRENT.with(Cell::get);
        let id = {
            let mut spans = self.spans.lock().expect("a traced call panicked");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
                requests,
            });
            id
        };
        CURRENT.with(|c| c.set(Some(id)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(parent));
        let mut spans = self.spans.lock().expect("a traced call panicked");
        spans[id as usize].start_ns = start_ns;
        spans[id as usize].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced call panicked").clone()
    }
}

/// A call made in a child span of its own before each `answer_batch`.
type BeforeAnswer<E> = (&'static str, fn(&E));

/// A [`QueryEngine`] wrapper that records one span per batch call. Wrap
/// it at every engine boundary (outside the durability wrapper, outside
/// the session) and the nesting gives each layer's self time.
pub struct TracedEngine<E> {
    inner: E,
    tracer: Arc<Tracer>,
    answer_span: &'static str,
    update_span: &'static str,
    /// Called in a child span before each `answer_batch`; a session uses
    /// it to fetch its task context through the public entry point, so a
    /// rebuild after an invalidating update shows as its own span instead
    /// of hiding inside the tick.
    before_answer: Option<BeforeAnswer<E>>,
}

impl<E: QueryEngine> TracedEngine<E> {
    pub fn new(
        inner: E,
        tracer: Arc<Tracer>,
        answer_span: &'static str,
        update_span: &'static str,
    ) -> Self {
        Self {
            inner,
            tracer,
            answer_span,
            update_span,
            before_answer: None,
        }
    }

    pub fn with_before_answer(mut self, span: &'static str, hook: fn(&E)) -> Self {
        self.before_answer = Some((span, hook));
        self
    }
}

impl<E: QueryEngine> QueryEngine for TracedEngine<E> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn n_attrs(&self) -> usize {
        self.inner.n_attrs()
    }

    fn max_shots(&self) -> usize {
        self.inner.max_shots()
    }

    fn batch(&self) -> usize {
        self.inner.batch()
    }

    fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        let ids = reqs.iter().map(|r| r.id).collect();
        self.tracer.span(self.answer_span, ids, || {
            if let Some((name, hook)) = self.before_answer {
                self.tracer.span(name, Vec::new(), || hook(&self.inner));
            }
            self.inner.answer_batch(reqs)
        })
    }

    fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        self.tracer.span(self.update_span, vec![req.id], || {
            self.inner.apply_update(req)
        })
    }

    fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        let ids = reqs.iter().map(|r| r.id).collect();
        self.tracer
            .span(self.update_span, ids, || self.inner.apply_updates(reqs))
    }

    fn session_summary(&self) -> Option<ServeSummary> {
        self.inner.session_summary()
    }

    fn snapshot_state(&self) -> Option<SnapshotState> {
        self.inner.snapshot_state()
    }

    fn sync_durability(&self) -> Result<(), String> {
        self.inner.sync_durability()
    }
}

/// A stretch of time during which exactly one span was the innermost
/// open one — its self time, as an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    pub start_ns: u64,
    pub end_ns: u64,
    pub name: &'static str,
}

/// Cuts every span into the parts of its interval no child covers. With
/// sequential calls on one thread the result is disjoint; it is returned
/// sorted by start.
pub fn self_segments(spans: &[Span]) -> Vec<Segment> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Vec::new();
    for s in spans {
        let mut cursor = s.start_ns;
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        for (start, end) in kids {
            let (start, end) = (start.clamp(cursor, s.end_ns), end.clamp(cursor, s.end_ns));
            if start > cursor {
                out.push(Segment {
                    start_ns: cursor,
                    end_ns: start,
                    name: s.name,
                });
            }
            cursor = cursor.max(end);
        }
        if s.end_ns > cursor {
            out.push(Segment {
                start_ns: cursor,
                end_ns: s.end_ns,
                name: s.name,
            });
        }
    }
    out.sort_unstable_by_key(|seg| (seg.start_ns, seg.end_ns));
    out
}

/// Total self time and call count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().1 += 1;
    }
    for seg in self_segments(spans) {
        out.entry(seg.name).or_default().0 += seg.end_ns - seg.start_ns;
    }
    out
}

/// One client round trip, on the tracer's clock.
#[derive(Clone, Copy, Debug)]
pub struct RoundTrip {
    pub id: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
}

/// Where the round trips of one phase went.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub round_trips: u64,
    pub total_rtt_ns: u64,
    /// Round-trip time during which a span of this name was the innermost
    /// one running on the server — the request's own tick or a tick it
    /// queued behind.
    pub by_layer_ns: BTreeMap<&'static str, u64>,
    /// No span running, before the request's own tick started: the
    /// gateway's socket read, framing, parse, admission queue hand-off.
    pub gateway_before_ns: u64,
    /// No span running, after the request's own tick ended: the
    /// gateway's serialise, route, socket write, and the client's read.
    pub gateway_after_ns: u64,
    /// Round-trip time of requests no recorded tick claims.
    pub unaccounted_ns: u64,
    /// Per request: send → own tick starts.
    pub admit_wait_ns: Vec<u64>,
    /// Per request: own tick ends → response line read.
    pub reply_ns: Vec<u64>,
}

impl Attribution {
    /// Share of round-trip time during which some recorded span was
    /// running on the server. The rest — `gateway_before_ns`,
    /// `gateway_after_ns`, `unaccounted_ns` — is time the benchmark has
    /// no span for, and is not counted as accounted.
    pub fn accounted_frac(&self) -> f64 {
        if self.total_rtt_ns == 0 {
            return 0.0;
        }
        self.by_layer_ns.values().sum::<u64>() as f64 / self.total_rtt_ns as f64
    }

    pub fn share(&self, name: &str) -> f64 {
        if self.total_rtt_ns == 0 {
            return 0.0;
        }
        self.by_layer_ns.get(name).copied().unwrap_or(0) as f64 / self.total_rtt_ns as f64
    }
}

/// Attributes each round trip's wall time to the layer that was running.
/// The outermost spans are the ticks: their `requests` say which tick
/// answered a request.
pub fn attribute(trips: &[RoundTrip], spans: &[Span]) -> Attribution {
    let segments = self_segments(spans);
    let mut tick_of: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        for &id in &s.requests {
            tick_of.insert(id, (s.start_ns, s.end_ns));
        }
    }
    let mut out = Attribution::default();
    for trip in trips {
        let rtt = trip.recv_ns.saturating_sub(trip.sent_ns);
        out.round_trips += 1;
        out.total_rtt_ns += rtt;
        let Some(&(tick_start, tick_end)) = tick_of.get(&trip.id) else {
            out.unaccounted_ns += rtt;
            continue;
        };
        out.admit_wait_ns
            .push(tick_start.saturating_sub(trip.sent_ns));
        out.reply_ns.push(trip.recv_ns.saturating_sub(tick_end));
        let mut covered = 0u64;
        let first = segments.partition_point(|seg| seg.end_ns <= trip.sent_ns);
        for seg in segments[first..]
            .iter()
            .take_while(|seg| seg.start_ns < trip.recv_ns)
        {
            let overlap = seg
                .end_ns
                .min(trip.recv_ns)
                .saturating_sub(seg.start_ns.max(trip.sent_ns));
            *out.by_layer_ns.entry(seg.name).or_default() += overlap;
            covered += overlap;
        }
        // What no span covers is the gateway's, which the benchmark
        // cannot look inside: split it at the request's own tick.
        let idle = rtt.saturating_sub(covered);
        let busy_after = segments[segments.partition_point(|seg| seg.end_ns <= tick_end)..]
            .iter()
            .take_while(|seg| seg.start_ns < trip.recv_ns)
            .map(|seg| {
                seg.end_ns
                    .min(trip.recv_ns)
                    .saturating_sub(seg.start_ns.max(tick_end))
            })
            .sum::<u64>();
        let after = trip
            .recv_ns
            .saturating_sub(tick_end)
            .saturating_sub(busy_after)
            .min(idle);
        out.gateway_after_ns += after;
        out.gateway_before_ns += idle - after;
    }
    out
}

/// The trace file: every span, one JSON object per array element.
pub fn spans_to_json(spans: &[Span], trips: &[RoundTrip]) -> String {
    let mut out = String::from("{\"unit\":\"ns\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let requests: Vec<String> = s.requests.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"requests\":[{}]}}{}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            requests.join(","),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("],\"round_trips\":[\n");
    for (i, t) in trips.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":\"client.rtt\",\"request\":{},\"start\":{},\"end\":{}}}{}\n",
            t.id,
            t.sent_ns,
            t.recv_ns,
            if i + 1 < trips.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            requests: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(0, None, "tick", 0, 100),
            span(1, Some(0), "context", 10, 30),
            span(2, Some(0), "session", 50, 70),
            span(3, Some(2), "leaf", 55, 60),
        ];
        let times = self_times(&spans);
        assert_eq!(times["tick"], (60, 1));
        assert_eq!(times["context"], (20, 1));
        assert_eq!(times["session"], (15, 1));
        assert_eq!(times["leaf"], (5, 1));
        let total: u64 = times.values().map(|&(ns, _)| ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
        let segs = self_segments(&spans);
        assert!(segs.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let tracer = Tracer::new(Instant::now());
        tracer.span("outer", vec![1, 2], || {
            tracer.span("inner", Vec::new(), || std::hint::black_box(3));
        });
        tracer.span("next", Vec::new(), || ());
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None, "the stack unwinds after a call");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].requests, vec![1, 2]);
    }

    #[test]
    fn a_queued_request_is_charged_to_the_tick_it_waited_behind() {
        // Tick A (request 1) rebuilds a context for 80 of its 100 ns;
        // request 2 is sent at 10, waits behind A, and is answered by
        // tick B over 110..130, arriving at 140.
        let mut a = span(0, None, "tick", 0, 100);
        a.requests = vec![1];
        let ctx = span(1, Some(0), "context", 10, 90);
        let mut b = span(2, None, "tick", 110, 130);
        b.requests = vec![2];
        let spans = vec![a, ctx, b];
        let trips = [RoundTrip {
            id: 2,
            sent_ns: 10,
            recv_ns: 140,
        }];
        let att = attribute(&trips, &spans);
        assert_eq!(att.total_rtt_ns, 130);
        assert_eq!(att.by_layer_ns["context"], 80);
        assert_eq!(att.by_layer_ns["tick"], 10 + 20);
        assert_eq!(att.gateway_before_ns, 10);
        assert_eq!(att.gateway_after_ns, 10);
        assert_eq!(att.admit_wait_ns, vec![100]);
        assert_eq!(att.reply_ns, vec![10]);
        // 110 of the 130 ns ran inside a span; the gateway's 20 do not
        // count as accounted.
        assert!((att.accounted_frac() - 110.0 / 130.0).abs() < 1e-12);
        assert!(att.share("context") > att.share("tick"));

        let lost = attribute(
            &[RoundTrip {
                id: 9,
                sent_ns: 0,
                recv_ns: 50,
            }],
            &spans,
        );
        assert_eq!(lost.unaccounted_ns, 50);
        assert_eq!(lost.accounted_frac(), 0.0);
    }
}
