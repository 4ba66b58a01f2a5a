//! What the three workloads share: the methods and their Table II
//! configurations, owner setup, the point / batch / stream request
//! paths with their spans, the per-thread client log, and the output
//! check against an unverified reference search.

use crate::trace::Spans;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::enc::DecodeError;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, Published, SetupConfig};
use spnet_core::wire::{decode_batch_answer, encode_batch_answer};
use spnet_core::{Client, Session, SessionError, SpService};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::order::NodeOrdering;
use spnet_graph::{Graph, NodeId, SearchWorkspace};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Seed of the owner's RSA key. Fixed rather than drawn from `--seed`:
/// the key is owner configuration, not a workload input, and a fixed
/// key makes every run do the same prime search, so `setup_s` compares
/// code rather than the luck of the draw (1024-bit key generation takes
/// 7–16 s depending on the seed).
pub const OWNER_KEY_SEED: u64 = 0;

/// Generator seed of the served graph and of the owner's setup (leaf
/// ordering, landmarks). Like the paper's datasets, the published
/// network is fixed; `--seed` draws the queries and the updates. With
/// the graph drawn from `--seed` too, the LDM latency tail alone moved
/// `query_p99_ms` by over 50% between seeds.
pub const GRAPH_SEED: u64 = 42;

/// Queries per batch request.
pub const BATCH_LEN: usize = 32;
/// Queries per stream request.
pub const STREAM_LEN: usize = 64;
/// Queries per stream chunk.
pub const STREAM_CHUNK: usize = 8;

/// The four verification methods of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    Dij,
    Full,
    Ldm,
    Hyp,
}

impl Method {
    /// All four, in the paper's order.
    pub const ALL: [Method; 4] = [Method::Dij, Method::Full, Method::Ldm, Method::Hyp];

    /// Display name, used as the per-method metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Method::Dij => "DIJ",
            Method::Full => "FULL",
            Method::Ldm => "LDM",
            Method::Hyp => "HYP",
        }
    }

    /// Wire code for `SpService::open_session_for`.
    pub fn code(self) -> u8 {
        match self {
            Method::Dij => 1,
            Method::Full => 2,
            Method::Ldm => 3,
            Method::Hyp => 4,
        }
    }

    /// The paper's Table II configuration (LDM c=200, b=12, ξ=50; HYP
    /// p=100), scaled down for the tiny self-test sizes.
    pub fn config(self, size: &Size) -> MethodConfig {
        match self {
            Method::Dij => MethodConfig::Dij,
            Method::Full => MethodConfig::Full {
                use_floyd_warshall: false,
            },
            Method::Ldm => MethodConfig::Ldm(LdmConfig {
                landmarks: size.landmarks,
                ..LdmConfig::default()
            }),
            Method::Hyp => MethodConfig::Hyp { cells: size.cells },
        }
    }
}

/// Input sizes and run parameters: the benchmark's sizes, or the tiny
/// ones the self-test uses.
#[derive(Debug, Clone)]
pub struct Size {
    /// RSA modulus bits of the owner key.
    pub key_bits: usize,
    /// `Dataset::De` scale of the `serve` and `churn` graph.
    pub de_scale: f64,
    /// Lattice side of the `cold-start` road network.
    pub road_side: usize,
    /// LDM landmark count `c`.
    pub landmarks: usize,
    /// HYP cell count `p`.
    pub cells: usize,
    /// Query range of `serve` and `churn`.
    pub range: f64,
    /// Query range of `cold-start`.
    pub cold_range: f64,
    /// Point requests per method visit in `serve`.
    pub points_per_visit: usize,
    /// Point requests per method visit of a `churn` reader: few enough
    /// that a run opens about 20 sessions per method, for a steady
    /// `session_open_ms`, and more than `serve`'s, because the readers
    /// stall behind every update and must still make over 1,000 point
    /// requests in a run.
    pub churn_points_per_visit: usize,
    /// Point requests per restart in `cold-start`.
    pub points_per_restart: usize,
    /// Seconds between two scheduled `churn` updates.
    pub update_interval: f64,
}

impl Size {
    /// The benchmark's sizes (`tiny = false`) or the self-test's.
    pub fn new(tiny: bool) -> Self {
        if tiny {
            Size {
                key_bits: 512,
                de_scale: 0.01,
                road_side: 40,
                landmarks: 8,
                cells: 9,
                range: 600.0,
                cold_range: 40.0,
                points_per_visit: 4,
                churn_points_per_visit: 8,
                points_per_restart: 8,
                update_interval: 0.4,
            }
        } else {
            Size {
                key_bits: 1024,
                de_scale: 0.1,
                road_side: 500,
                landmarks: 200,
                cells: 100,
                range: 2000.0,
                cold_range: 40.0,
                points_per_visit: 16,
                churn_points_per_visit: 32,
                points_per_restart: 64,
                update_interval: 7.0,
            }
        }
    }

    /// Owner setup parameters: hbt (Hilbert) leaf ordering, fanout 2.
    pub fn setup(&self) -> SetupConfig {
        SetupConfig {
            ordering: NodeOrdering::Hilbert,
            fanout: 2,
            seed: GRAPH_SEED,
            rsa_bits: self.key_bits,
        }
    }
}

/// Generates the owner key, recording `owner.keygen_s`.
pub fn keygen(size: &Size, spans: &mut Spans) -> RsaKeyPair {
    let a = Instant::now();
    let mut rng = StdRng::seed_from_u64(OWNER_KEY_SEED);
    let key = RsaKeyPair::generate(&mut rng, size.key_bits);
    spans.secs("owner.keygen_s", None, a, Instant::now());
    key
}

/// Publishes `method` over `g` with the owner key, recording
/// `owner.publish_s.<m>`.
pub fn publish(
    g: &Graph,
    method: Method,
    size: &Size,
    key: &RsaKeyPair,
    spans: &mut Spans,
) -> Published {
    let a = Instant::now();
    let p = DataOwner::publish_with_key(g, &method.config(size), &size.setup(), key);
    spans.secs("owner.publish_s", Some(method), a, Instant::now());
    p
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Samples per block of [`block_median`].
pub const BLOCK: usize = 7;

/// The median of a run on a host whose speed changes during the run:
/// the samples, in time order, are cut into blocks of [`BLOCK`] (one
/// block when there are fewer), and the mean of the blocks' medians is
/// returned. A block spans a few seconds at most, so its median follows
/// the host's speed at that time and ignores an outlier in the block,
/// such as a request blocked behind an update; the mean over blocks
/// moves in proportion to the share of the run the host spent slow. The
/// benchmark host switches every few seconds between two speeds about
/// 1.4x apart, and a single median over the run jumped from one speed's
/// cluster to the other's between seeds (up to 25% of the median).
pub fn block_median(samples: &[(Instant, f64)]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by_key(|&(t, _)| t);
    let xs: Vec<f64> = s.into_iter().map(|(_, x)| x).collect();
    if xs.len() < BLOCK {
        return median(&xs);
    }
    let blocks = xs.chunks_exact(BLOCK);
    let n = blocks.len();
    blocks.map(median).sum::<f64>() / n as f64
}

/// Mean over methods of each method's [`block_median`]. The workloads
/// serve their methods in equal counts, and the methods' latencies form
/// separate clusters, so a pooled median would fall between two
/// clusters and jump between them from run to run.
pub fn median_of_methods(v: &[(Method, Instant, f64)]) -> f64 {
    let medians: Vec<f64> = Method::ALL
        .iter()
        .map(|&m| {
            v.iter()
                .filter(|(vm, _, _)| *vm == m)
                .map(|&(_, t, x)| (t, x))
                .collect::<Vec<_>>()
        })
        .filter(|xs| !xs.is_empty())
        .map(|xs| block_median(&xs))
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Nearest-rank percentile `p` of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// One verified distance, kept for the output check.
#[derive(Debug, Clone, Copy)]
pub struct Verified {
    /// Operation (request) that produced it.
    pub op: u64,
    /// Epoch the answer was verified against.
    pub epoch: u64,
    /// Method that served it.
    pub method: Method,
    /// The query.
    pub query: (NodeId, NodeId),
    /// The verified distance.
    pub distance: f64,
}

/// Why a request failed.
#[derive(Debug)]
pub enum Failure {
    /// The session refused or rejected the request.
    Session(SessionError),
    /// The encoded answer did not decode.
    Decode(DecodeError),
    /// Anything else (a short stream, a failed update).
    Other(String),
}

impl From<SessionError> for Failure {
    fn from(e: SessionError) -> Self {
        Failure::Session(e)
    }
}

/// Span keys of a point request: prove, encode, decode, verify, and
/// the encoded bytes per query.
const POINT_SPANS: [&str; 5] = [
    "provider.prove_ms",
    "wire.encode_ms",
    "wire.decode_ms",
    "client.verify_ms",
    "wire.bytes_per_query",
];

/// The same for a batch request, whose spans are per query.
const BATCH_SPANS: [&str; 5] = [
    "provider.batch_prove_ms",
    "wire.batch_encode_ms",
    "wire.batch_decode_ms",
    "client.batch_verify_ms",
    "wire.batch_bytes_per_query",
];

/// One completed client request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Client thread (its operation id base).
    pub thread: u64,
    /// Point, batch or stream.
    pub kind: Kind,
    /// Method that served it.
    pub method: Method,
    /// Queries it answered.
    pub queries: u32,
    /// When it started and ended.
    pub span: (Instant, Instant),
    /// Encoded answer bytes (0 for streams).
    pub bytes: u64,
}

impl Request {
    /// Latency, ms.
    pub fn ms(&self) -> f64 {
        (self.span.1 - self.span.0).as_secs_f64() * 1e3
    }
}

/// Kinds of client request whose throughput the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Point,
    Batch,
    Stream,
}

/// Everything one client thread observed.
#[derive(Debug, Clone)]
pub struct Log {
    /// Id space of this thread's operations (`thread << 32`).
    base: u64,
    /// Operations attempted so far.
    pub attempted: u64,
    /// Ids of operations that failed.
    pub failed: HashSet<u64>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Rejections by `VerifyError` variant.
    pub rejections: BTreeMap<String, u64>,
    /// `EpochInvalidated` errors seen.
    pub epoch_invalidated: u64,
    /// Every completed request.
    pub requests: Vec<Request>,
    /// Session opens: method, start and latency in ms.
    pub open_ms: Vec<(Method, Instant, f64)>,
    /// Every verified distance, for the output check.
    pub verified: Vec<Verified>,
    /// This thread's spans.
    pub spans: Spans,
}

impl Log {
    /// An empty log for client thread `thread`.
    pub fn new(thread: u64, trace: bool) -> Self {
        Log {
            base: thread << 32,
            attempted: 0,
            failed: HashSet::new(),
            errors: Vec::new(),
            rejections: BTreeMap::new(),
            epoch_invalidated: 0,
            requests: Vec::new(),
            open_ms: Vec::new(),
            verified: Vec::new(),
            spans: Spans::new(trace),
        }
    }

    /// Starts an operation and returns its id.
    pub fn begin(&mut self) -> u64 {
        self.attempted += 1;
        self.base + self.attempted
    }

    /// Marks operation `op` failed because of `f`.
    pub fn fail(&mut self, op: u64, f: Failure) {
        self.failed.insert(op);
        match &f {
            Failure::Session(SessionError::Verify(v)) => {
                let dbg = format!("{v:?}");
                let variant = dbg
                    .split(|c: char| !c.is_alphanumeric())
                    .next()
                    .unwrap_or("Unknown")
                    .to_string();
                *self.rejections.entry(variant).or_default() += 1;
            }
            Failure::Session(SessionError::EpochInvalidated { .. }) => self.epoch_invalidated += 1,
            _ => {}
        }
        if self.errors.len() < 8 {
            self.errors.push(format!("op {op}: {f:?}"));
        }
    }

    fn done(
        &mut self,
        kind: Kind,
        method: Method,
        queries: usize,
        span: (Instant, Instant),
        bytes: usize,
    ) {
        self.requests.push(Request {
            thread: self.base,
            kind,
            method,
            queries: queries as u32,
            span,
            bytes: bytes as u64,
        });
    }

    fn keep(
        &mut self,
        op: u64,
        session: &Session,
        method: Method,
        qs: &[(NodeId, NodeId)],
        ds: &[f64],
    ) {
        for (&query, &distance) in qs.iter().zip(ds) {
            self.verified.push(Verified {
                op,
                epoch: session.epoch(),
                method,
                query,
                distance,
            });
        }
    }

    /// Opens a session for `method`, recording `service.open_ms.<m>`.
    pub fn open(
        &mut self,
        service: &SpService,
        client: &Client,
        method: Method,
    ) -> Option<Session> {
        let op = self.begin();
        let a = Instant::now();
        match service.open_session_for(client.clone(), method.code()) {
            Ok(s) => {
                let b = Instant::now();
                self.open_ms.push((method, a, (b - a).as_secs_f64() * 1e3));
                self.spans.ms("service.open_ms", Some(method), a, b, 1.0);
                Some(s)
            }
            Err(e) => {
                self.fail(op, e.into());
                None
            }
        }
    }

    /// One point request: `answer_batch(&[q])` → encode → decode →
    /// `verify_batch`. Returns the request's span on success.
    pub fn point(
        &mut self,
        session: &Session,
        method: Method,
        q: (NodeId, NodeId),
    ) -> Option<(Instant, Instant)> {
        self.exchange(session, method, &[q], Kind::Point)
    }

    /// One batch request: the point path with every query of `qs` in
    /// one pooled proof.
    pub fn batch(&mut self, session: &Session, method: Method, qs: &[(NodeId, NodeId)]) {
        self.exchange(session, method, qs, Kind::Batch);
    }

    /// `answer_batch(qs)` → encode → decode → `verify_batch`, with a
    /// span around each call. Batch spans are per query.
    fn exchange(
        &mut self,
        session: &Session,
        method: Method,
        qs: &[(NodeId, NodeId)],
        kind: Kind,
    ) -> Option<(Instant, Instant)> {
        let [prove, encode, decode, verify, bytes_key] = match kind {
            Kind::Point => POINT_SPANS,
            _ => BATCH_SPANS,
        };
        let op = self.begin();
        let n = qs.len() as f64;
        let t0 = Instant::now();
        let run = || -> Result<_, Failure> {
            let ans = session.answer_batch(qs)?;
            let t1 = Instant::now();
            let bytes = encode_batch_answer(&ans);
            let t2 = Instant::now();
            let dec = decode_batch_answer(&bytes).map_err(Failure::Decode)?;
            let t3 = Instant::now();
            let ds = session.verify_batch(qs, &dec)?;
            Ok((ds, bytes.len(), [t1, t2, t3, Instant::now()]))
        };
        match run() {
            Ok((ds, len, [t1, t2, t3, t4])) => {
                self.done(kind, method, qs.len(), (t0, t4), len);
                let m = Some(method);
                self.spans.ms(prove, m, t0, t1, n);
                self.spans.ms(encode, m, t1, t2, n);
                self.spans.ms(decode, m, t2, t3, n);
                self.spans.ms(verify, m, t3, t4, n);
                self.spans.count(bytes_key, m, len as f64 / n);
                self.keep(op, session, method, qs, &ds);
                Some((t0, t4))
            }
            Err(f) => {
                self.fail(op, f);
                None
            }
        }
    }

    /// One stream request of `qs` through
    /// `Session::query_stream_chunked`, recording each chunk's
    /// `stream.chunk_ms.<m>`.
    pub fn stream(&mut self, session: &Session, method: Method, qs: &[(NodeId, NodeId)]) {
        let op = self.begin();
        let t0 = Instant::now();
        let mut ds = Vec::with_capacity(qs.len());
        let mut stream = session.query_stream_chunked(qs, STREAM_CHUNK);
        loop {
            let a = Instant::now();
            let Some(chunk) = stream.next() else { break };
            match chunk {
                Ok(answers) => {
                    self.spans
                        .ms("stream.chunk_ms", Some(method), a, Instant::now(), 1.0);
                    ds.extend(answers.iter().map(|x| x.distance));
                }
                Err(e) => {
                    self.fail(op, e.into());
                    return;
                }
            }
        }
        let t1 = Instant::now();
        if ds.len() != qs.len() {
            self.fail(
                op,
                Failure::Other(format!(
                    "stream yielded {} of {} answers",
                    ds.len(),
                    qs.len()
                )),
            );
            return;
        }
        self.done(Kind::Stream, method, qs.len(), (t0, t1), 0);
        self.keep(op, session, method, qs, &ds);
    }

    /// Moves `other` into this log.
    pub fn merge(&mut self, other: Log) {
        self.attempted += other.attempted;
        self.failed.extend(other.failed);
        self.errors.extend(other.errors);
        for (k, v) in other.rejections {
            *self.rejections.entry(k).or_default() += v;
        }
        self.epoch_invalidated += other.epoch_invalidated;
        self.requests.extend(other.requests);
        self.open_ms.extend(other.open_ms);
        self.verified.extend(other.verified);
        self.spans.merge(other.spans);
    }

    /// Point requests: method, start and latency in ms.
    pub fn point_ms(&self) -> Vec<(Method, Instant, f64)> {
        self.requests
            .iter()
            .filter(|r| r.kind == Kind::Point)
            .map(|r| (r.method, r.span.0, r.ms()))
            .collect()
    }

    /// Queries per second of `kind` requests and the queries completed.
    /// Each client thread's rate is its `kind` queries over the time its
    /// `kind` requests took, less any time they overlapped a `blocked`
    /// span; the rates are summed over threads.
    pub fn qps(&self, kind: Kind, blocked: &[(Instant, Instant)]) -> (f64, usize) {
        let mut threads: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        for r in self.requests.iter().filter(|r| r.kind == kind) {
            let (a, b) = r.span;
            let overlap: f64 = blocked
                .iter()
                .map(|&(ua, ub)| ub.min(b).saturating_duration_since(ua.max(a)).as_secs_f64())
                .sum();
            let t = threads.entry(r.thread).or_default();
            t.0 += u64::from(r.queries);
            t.1 += (b - a).as_secs_f64() - overlap;
        }
        let rate = threads
            .values()
            .filter(|&&(_, s)| s > 0.0)
            .map(|&(q, s)| q as f64 / s)
            .sum();
        let total = threads.values().map(|&(q, _)| q as usize).sum();
        (rate, total)
    }
}

/// Checks every verified distance against `SearchWorkspace::distance`
/// on the graph at that answer's epoch. `graph_at(e)` must return the
/// graph after the first `e` updates; answers are checked in epoch
/// order, so it is called once per epoch. DIJ, FULL and LDM must match
/// bit for bit; HYP sums along hyper-edges in another order and must
/// match within 1e-12 relative. Failing operations are added to
/// `log.failed`; `graph.reference_ms` records each reference search.
pub fn check_outputs(log: &mut Log, mut graph_at: impl FnMut(u64) -> Graph) -> usize {
    let mut verified = std::mem::take(&mut log.verified);
    verified.sort_by_key(|v| v.epoch);
    let mut mismatches = 0;
    let mut ws = SearchWorkspace::new();
    let mut epoch = None;
    let mut graph = None;
    let mut reference: HashMap<(NodeId, NodeId), f64> = HashMap::new();
    for v in &verified {
        if epoch != Some(v.epoch) {
            epoch = Some(v.epoch);
            graph = Some(graph_at(v.epoch));
            reference.clear();
        }
        let g = graph.as_ref().expect("graph set with the epoch");
        let want = match reference.get(&v.query) {
            Some(&d) => d,
            None => {
                let a = Instant::now();
                let d = ws.distance(g, v.query.0, v.query.1).unwrap_or(f64::NAN);
                log.spans
                    .ms("graph.reference_ms", None, a, Instant::now(), 1.0);
                reference.insert(v.query, d);
                d
            }
        };
        let ok = match v.method {
            Method::Hyp => (v.distance - want).abs() <= 1e-12 * want.abs(),
            _ => v.distance.to_bits() == want.to_bits(),
        };
        if !ok {
            mismatches += 1;
            log.fail(
                v.op,
                Failure::Other(format!(
                    "{} epoch {} query {:?}: verified {} but the reference is {}",
                    v.method.name(),
                    v.epoch,
                    v.query,
                    v.distance,
                    want
                )),
            );
        }
    }
    log.verified = verified;
    mismatches
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `len` queries of `pool` from position `i` on, wrapping around.
pub fn queries_at(pool: &[(NodeId, NodeId)], i: usize, len: usize) -> Vec<(NodeId, NodeId)> {
    (0..len).map(|k| pool[(i + k) % pool.len()]).collect()
}
