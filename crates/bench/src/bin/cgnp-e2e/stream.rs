//! Seeded request streams: every frame and every arrival time is a pure
//! function of `(seed, index)`, so two runs with one seed replay the same
//! bytes and the connections of one run can each take a stride of the
//! stream without coordinating.

use cgnp_graph::AttributedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One update per this many frames on the mixed stream (2 %).
pub const UPDATE_PERIOD: u64 = 50;
/// Size of the hot set the mixed stream draws 80 % of its query nodes
/// from — half the server's default 256-entry LRU, so repeats hit it
/// between invalidations.
pub const HOT_SET: usize = 128;
const HOT_SHARE: f64 = 0.8;
const TWO_NODE_SHARE: f64 = 0.25;
const TOP_K: usize = 10;

const HOT_SALT: u64 = 0x686f_7473;
const ARRIVAL_SALT: u64 = 0x6172_7276;
const BURST_SALT: u64 = 0x6275_7273;
/// Salt of the warm-up stream, so warm-up never replays timed frames.
pub const WARMUP_SALT: u64 = 0x7761_726d;

/// One pre-serialised NDJSON frame, newline included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub line: String,
    pub is_update: bool,
}

fn rng_at(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index))
}

/// A request stream over one serving graph. Frame `i` carries id `i`.
pub struct Stream<'g> {
    seed: u64,
    graph: &'g AttributedGraph,
    /// Empty on the read-only stream (uniform query nodes).
    hot: Vec<usize>,
    updates: bool,
}

impl<'g> Stream<'g> {
    /// Read-only: query nodes uniform over the whole graph, which is far
    /// larger than the prediction LRU, so nearly every query is scored.
    pub fn read(seed: u64, graph: &'g AttributedGraph) -> Self {
        Self {
            seed,
            graph,
            hot: Vec::new(),
            updates: false,
        }
    }

    /// Mixed: every [`UPDATE_PERIOD`]-th frame is an update (rotating
    /// `add_edge`, `add_node`, `update_support` append + expire 1), and
    /// queries are skewed towards a [`HOT_SET`]-node hot set.
    pub fn mixed(seed: u64, graph: &'g AttributedGraph) -> Self {
        let n = graph.n();
        let mut rng = rng_at(seed ^ HOT_SALT, 0);
        let mut nodes: Vec<usize> = (0..n).collect();
        let take = HOT_SET.min(n);
        for i in 0..take {
            let j = rng.gen_range(i..n);
            nodes.swap(i, j);
        }
        nodes.truncate(take);
        Self {
            seed,
            graph,
            hot: nodes,
            updates: true,
        }
    }

    fn query_node(&self, rng: &mut StdRng) -> usize {
        if !self.hot.is_empty() && rng.gen_bool(HOT_SHARE) {
            self.hot[rng.gen_range(0..self.hot.len())]
        } else {
            rng.gen_range(0..self.graph.n())
        }
    }

    pub fn frame(&self, index: u64) -> Frame {
        let mut rng = rng_at(self.seed, index);
        if self.updates && index % UPDATE_PERIOD == UPDATE_PERIOD - 1 {
            return Frame {
                line: self.update(index, index / UPDATE_PERIOD, &mut rng),
                is_update: true,
            };
        }
        let a = self.query_node(&mut rng);
        let line = if rng.gen_bool(TWO_NODE_SHARE) {
            // A distinct second node: the protocol accepts duplicates, but
            // a repeated node would make this a one-node query in disguise.
            let mut b = self.query_node(&mut rng);
            if b == a {
                b = (a + 1) % self.graph.n();
            }
            format!("{{\"id\":{index},\"nodes\":[{a},{b}],\"top_k\":{TOP_K}}}\n")
        } else {
            format!("{{\"id\":{index},\"nodes\":[{a}],\"top_k\":{TOP_K}}}\n")
        };
        Frame {
            line,
            is_update: false,
        }
    }

    /// Updates name only nodes of the initial graph, so every one of them
    /// stays valid however many `add_node` frames came before it.
    fn update(&self, index: u64, rotation: u64, rng: &mut StdRng) -> String {
        let n = self.graph.n();
        match rotation % 3 {
            0 => {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n);
                if v == u {
                    v = (u + 1) % n;
                }
                format!("{{\"id\":{index},\"op\":\"add_edge\",\"u\":{u},\"v\":{v}}}\n")
            }
            1 => {
                let attrs = match self.graph.n_attrs() {
                    0 => String::new(),
                    k => rng.gen_range(0..k).to_string(),
                };
                format!("{{\"id\":{index},\"op\":\"add_node\",\"attrs\":[{attrs}]}}\n")
            }
            _ => {
                let q = rng.gen_range(0..n);
                let mask = self.graph.query_community_mask(q);
                let pick = |want: bool| -> String {
                    let nodes: Vec<String> = (0..n)
                        .filter(|&v| v != q && mask[v] == want)
                        .take(3)
                        .map(|v| v.to_string())
                        .collect();
                    nodes.join(",")
                };
                format!(
                    "{{\"id\":{index},\"op\":\"update_support\",\"add\":{{\"query\":{q},\
                     \"pos\":[{}],\"neg\":[{}]}},\"expire\":1}}\n",
                    pick(true),
                    pick(false)
                )
            }
        }
    }

    /// Frames `0..count`, serialised before any clock starts.
    pub fn frames(&self, count: usize) -> Vec<Frame> {
        (0..count as u64).map(|i| self.frame(i)).collect()
    }

    /// `count` update frames and nothing else, ids `0..count`, rotating
    /// through the three kinds: the write burst the recovery phase logs.
    pub fn update_burst(&self, count: usize) -> Vec<Frame> {
        (0..count as u64)
            .map(|i| Frame {
                line: self.update(i, i, &mut rng_at(self.seed ^ BURST_SALT, i)),
                is_update: true,
            })
            .collect()
    }
}

/// Poisson arrival times (nanoseconds from phase start) at `rate_per_s`
/// for `duration_s`: exponential gaps, each a pure function of
/// `(seed, index)`.
pub fn arrivals_ns(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let horizon = duration_s * 1e9;
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0f64;
    for i in 0u64.. {
        let u: f64 = rng_at(seed ^ ARRIVAL_SALT, i).gen();
        t += -(1.0 - u).ln() / rate_per_s * 1e9;
        if t >= horizon {
            break;
        }
        due.push(t as u64);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_data::{generate_sbm, SbmConfig};
    use cgnp_serve::{parse_frame, validate_request, validate_update, Frame as Wire};

    fn graph() -> AttributedGraph {
        generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let g = graph();
        for mixed in [false, true] {
            let build = |seed| match mixed {
                false => Stream::read(seed, &g),
                true => Stream::mixed(seed, &g),
            };
            let (a, b, c) = (
                build(7).frames(400),
                build(7).frames(400),
                build(8).frames(400),
            );
            assert_eq!(a, b, "same seed must replay byte-identically");
            assert_ne!(a, c, "a different seed must change the stream");
            assert_eq!(build(7).update_burst(9), build(7).update_burst(9));
            assert_ne!(build(7).update_burst(9), build(8).update_burst(9));
        }
        assert_eq!(arrivals_ns(7, 500.0, 1.0), arrivals_ns(7, 500.0, 1.0));
        assert_ne!(arrivals_ns(7, 500.0, 1.0), arrivals_ns(8, 500.0, 1.0));
    }

    #[test]
    fn every_frame_is_valid_on_the_wire() {
        let g = graph();
        let mixed = Stream::mixed(3, &g).frames(1000);
        let updates = mixed.iter().filter(|f| f.is_update).count();
        assert_eq!(
            updates,
            1000 / UPDATE_PERIOD as usize,
            "exactly 2 % updates"
        );
        for (i, f) in mixed.iter().enumerate() {
            assert!(f.line.ends_with('\n'));
            match parse_frame(f.line.trim_end()).expect("frame parses") {
                Wire::Query(q) => {
                    assert_eq!(q.id, i as u64);
                    assert!(!f.is_update);
                    validate_request(&q, g.n(), 5).expect("query validates");
                    assert!(q.nodes.len() <= 2 && q.top_k == Some(10));
                }
                Wire::Update(u) => {
                    assert!(f.is_update);
                    validate_update(&u, g.n(), g.n_attrs()).expect("update validates");
                }
            }
        }
        assert!(Stream::read(3, &g).frames(500).iter().all(|f| !f.is_update));
        for (i, f) in Stream::mixed(3, &g).update_burst(30).iter().enumerate() {
            let Ok(Wire::Update(u)) = parse_frame(f.line.trim_end()) else {
                panic!("burst frame {i} is not an update: {}", f.line)
            };
            assert_eq!(u.id, i as u64);
            validate_update(&u, g.n(), g.n_attrs()).expect("burst update validates");
        }
    }

    #[test]
    fn arrivals_are_increasing_and_near_the_rate() {
        let due = arrivals_ns(11, 1000.0, 4.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 4_000_000_000);
        let n = due.len() as f64;
        assert!(
            (n - 4000.0).abs() < 4.0 * 4000f64.sqrt(),
            "got {n} arrivals"
        );
    }
}
