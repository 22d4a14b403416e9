//! The batched evaluation service: request-driven traffic on top of the
//! grid machinery.
//!
//! The grid engine ([`crate::grid`]) evaluates a *static*
//! machine × workload table. This module serves *ad-hoc* evaluation
//! traffic: a stream of [`EvalRequest`]s naming a machine, workload and
//! method by name. Each batch handed to [`EvalService::serve`] is
//!
//! 1. **resolved** against the service's catalog (unknown names become
//!    per-request error responses, never panics);
//! 2. **sharded** by `(machine, workload)` pair, so every request touching
//!    a pair rides on the same expensive state;
//! 3. fanned across a worker pool (the grid's process-wide pool of parked
//!    threads, [`crate::grid::for_each_index`]) in two waves: shards
//!    first *attach* to their pair state through the LRU-bounded
//!    [`ProfileCache`] (one task per shard — a reference profile and
//!    CFG are built **at most once per pair per cache residency**, and
//!    at most once per pair per batch regardless of cache capacity,
//!    because the batch holds the attached parts for its whole
//!    lifetime), then each shard *evaluates* in groups of its requests:
//!    every run on a pair sees the same retirement stream, so all of a
//!    group's runs share passes of one simulation. A shard splits into
//!    groups only as far as it takes to keep every worker busy (at least
//!    `threads` tasks whenever the batch has that many requests), so even
//!    a fully skewed batch — all requests on one hot pair — spreads
//!    across every worker;
//! 4. answered **in request order**, with per-run seeds derived from the
//!    request itself ([`request_seed`]), never from scheduling.
//!
//! # Pipelined intake
//!
//! [`EvalService::serve`] answers one batch handed to it whole. For
//! continuous streams, [`EvalService::serve_pipelined`] reads JSON lines
//! from any [`std::io::BufRead`] one chunk of [`PipelineOptions::chunk`]
//! lines at a time and answers each chunk with the same plan → attach →
//! evaluate steps before reading the next, so a stream of any length is
//! served in bounded memory and answered in stream order. Malformed
//! lines become in-order error responses and reading goes on; a line
//! longer than [`proto::MAX_FRAME_PAYLOAD`] is answered with an error
//! and ends the stream. Protocol v2 ([`proto`]) runs the same loop over
//! frames: one line parser and one chunk answerer serve both.
//!
//! # Catalogs and tenants
//!
//! A [`Catalog`] is a named, registrable value: machines + workloads +
//! the default [`MethodOptions`] requests against it are instantiated
//! with. A service constructed with [`EvalService::new`] owns a single
//! default catalog; [`EvalService::with_registry`] serves a whole
//! [`CatalogRegistry`] of named catalogs behind **one** shared
//! [`ProfileCache`]. Requests pick their catalog with the optional
//! `catalog` field ([`EvalRequest::catalog`]); absent means the default
//! catalog, and the wire format without the field is
//! byte-identical to the single-catalog service's. Cache keys are
//! namespaced by catalog index ([`PairKey::catalog`]), so tenants never
//! collide even when they bind the same names to different programs.
//!
//! # Per-tenant accounting
//!
//! Every tenant shares one LRU cache and one worker pool, and each chunk
//! runs its work in stream order. Each catalog's requests, hits, builds,
//! errors and latency are counted in [`ServeStats::tenants`], and its
//! cache hits, misses, evictions and residency in
//! [`CacheStats::tenants`].
//!
//! # Network intake
//!
//! [`net::EvalServer`] is the TCP front door: it accepts loopback (or
//! any) connections and drives each through [`EvalService::serve_pipelined`]
//! on its own worker, with a connection cap, graceful shutdown and
//! per-connection error isolation. See the [`net`] module docs.
//!
//! # Latency accounting
//!
//! [`PipelineOptions::record_latency`] (off by default) stamps every
//! pipelined response with queue/build/eval microseconds
//! ([`EvalResponse::latency`]; a request's eval time is its group's)
//! and feeds p50/p99 aggregates into [`ServeStats`]. It is opt-in
//! precisely because timing is not deterministic: with it off — the
//! default — the determinism contract below is untouched.
//!
//! # Determinism contract
//!
//! Identical request streams yield byte-identical responses for any
//! worker-thread count, cache capacity and chunk size: cache contents
//! are pure functions of the pair, so eviction and rebuild change
//! *when* work happens, never *what* a response contains — and for a
//! well-formed stream the pipelined output is byte-identical to the
//! batched output. Timing-
//! dependent numbers (hit rates, latency) live in [`ServeStats`],
//! [`PipelineStats`] and the cache counters, outside the response stream
//! — unless a request explicitly opts into latency stamping
//! ([`PipelineOptions::record_latency`]).
//!
//! # Examples
//!
//! A request round-trips through JSON (the service's wire format is
//! JSON lines, one request or response per line):
//!
//! ```
//! use countertrust::serve::EvalRequest;
//!
//! let request = EvalRequest {
//!     machine: "Ivy Bridge (Xeon E3-1265L)".to_string(),
//!     workload: "demo".to_string(),
//!     method: "lbr".to_string(),
//!     runs: 2,
//!     seed: 7,
//!     catalog: None,
//! };
//! let json = serde_json::to_string(&request).unwrap();
//! // No catalog: the wire shape is the pre-registry five-field object.
//! assert!(!json.contains("catalog"));
//! let back: EvalRequest = serde_json::from_str(&json).unwrap();
//! assert_eq!(request, back);
//!
//! let tenant = request.in_catalog("kernels");
//! let json = serde_json::to_string(&tenant).unwrap();
//! assert!(json.ends_with("\"catalog\":\"kernels\"}"));
//! let back: EvalRequest = serde_json::from_str(&json).unwrap();
//! assert_eq!(tenant, back);
//! ```
//!
//! End to end — identical streams are byte-identical no matter how many
//! threads serve them:
//!
//! ```
//! use countertrust::grid::WorkloadSpec;
//! use countertrust::methods::MethodOptions;
//! use countertrust::serve::{EvalRequest, EvalService};
//! use ct_isa::asm::assemble;
//! use ct_sim::{MachineModel, RunConfig};
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 20000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let run_config = RunConfig::default();
//! let workloads = [WorkloadSpec { name: "demo", program: &program, run_config: &run_config }];
//! let machines = [MachineModel::ivy_bridge()];
//! let requests = vec![
//!     EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "demo", "classic", 1, 1),
//!     EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "demo", "lbr", 1, 2),
//! ];
//!
//! let serial = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast())
//!     .threads(1);
//! let parallel = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast())
//!     .threads(8);
//! assert_eq!(
//!     serial.serve_jsonl(&requests),
//!     parallel.serve_jsonl(&requests),
//! );
//! assert_eq!(serial.stats().cache_hits, 1); // second request shared the build
//! ```
//!
//! Pipelined intake reads the same wire format straight from any
//! [`std::io::BufRead`] — malformed lines answer in place instead of
//! stopping the stream:
//!
//! ```
//! use countertrust::grid::WorkloadSpec;
//! use countertrust::methods::MethodOptions;
//! use countertrust::serve::{EvalService, PipelineOptions};
//! use ct_isa::asm::assemble;
//! use ct_sim::{MachineModel, RunConfig};
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 20000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let run_config = RunConfig::default();
//! let workloads = [WorkloadSpec { name: "demo", program: &program, run_config: &run_config }];
//! let machines = [MachineModel::ivy_bridge()];
//! let service = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast());
//!
//! let wire = "\
//! {\"machine\":\"Ivy Bridge (Xeon E3-1265L)\",\"workload\":\"demo\",\"method\":\"lbr\",\"runs\":1,\"seed\":7}\n\
//! this is not json\n\
//! {\"machine\":\"Ivy Bridge (Xeon E3-1265L)\",\"workload\":\"demo\",\"method\":\"classic\",\"runs\":1,\"seed\":8}\n";
//! let mut out = Vec::new();
//! let stats = service
//!     .serve_pipelined(wire.as_bytes(), &mut out, &PipelineOptions::new().chunk(2))
//!     .unwrap();
//! assert_eq!((stats.requests, stats.parse_errors, stats.responses), (2, 1, 3));
//! let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
//! assert!(lines[1].contains("parse error on line 2"));
//! ```

pub mod net;
pub mod proto;
mod reactor;

use crate::cache::{CacheStats, PairKey, PairParts, ProfileCache};
use crate::evaluate::{ErrorStats, Tally};
use crate::grid::{default_threads, for_each_index, mix64, WorkloadSpec};
use crate::methods::{MethodInstance, MethodKind, MethodOptions};
use ct_isa::{Cfg, Program};
use ct_sim::{MachineModel, RunConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The most measurement runs one request may ask for. A request above it
/// is answered with an in-order error before any work starts: a
/// request's runs share one pool thread, and their seeds are allocated
/// up front. The paper repeats each measurement five times.
pub const MAX_RUNS: usize = 1_000;

/// One evaluation request: machine, workload and method by name, plus the
/// measurement shape (`runs` repeats from base `seed`) and an optional
/// catalog (tenant) name.
///
/// Serialization is hand-written (not derived) for one wire-format
/// reason: a request without a catalog must serialize to exactly the
/// pre-registry five-field JSON object, so every existing stream — and
/// every response echoing such a request — stays byte-identical. The
/// `catalog` key only appears on the wire when it is `Some`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRequest {
    /// Machine name, matched exactly against the catalog.
    pub machine: String,
    /// Workload name, matched exactly against the catalog.
    pub workload: String,
    /// Method label as in [`MethodKind::label`] (e.g. `"lbr"`).
    pub method: String,
    /// Number of repeated measurements (`0` is served as `1`; above
    /// [`MAX_RUNS`] the request is rejected).
    pub runs: usize,
    /// Base seed; per-run seeds derive from it via [`request_seed`].
    pub seed: u64,
    /// Catalog (tenant) name, resolved through the service's
    /// [`CatalogRegistry`]; `None` means the default catalog.
    pub catalog: Option<String>,
}

impl EvalRequest {
    /// Convenience constructor (default catalog).
    #[must_use]
    pub fn new(machine: &str, workload: &str, method: &str, runs: usize, seed: u64) -> Self {
        Self {
            machine: machine.to_string(),
            workload: workload.to_string(),
            method: method.to_string(),
            runs,
            seed,
            catalog: None,
        }
    }

    /// Targets the request at a named catalog of the registry.
    #[must_use]
    pub fn in_catalog(mut self, catalog: &str) -> Self {
        self.catalog = Some(catalog.to_string());
        self
    }

    /// The number of measurement runs actually performed (`runs`, with
    /// `0` clamped to one run).
    #[must_use]
    pub fn effective_runs(&self) -> usize {
        self.runs.max(1)
    }
}

impl Serialize for EvalRequest {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("machine".to_string(), self.machine.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("method".to_string(), self.method.to_value()),
            ("runs".to_string(), self.runs.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        if let Some(catalog) = &self.catalog {
            fields.push(("catalog".to_string(), catalog.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for EvalRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            machine: serde::field(v, "machine")?,
            workload: serde::field(v, "workload")?,
            method: serde::field(v, "method")?,
            runs: serde::field(v, "runs")?,
            seed: serde::field(v, "seed")?,
            // A missing key reads as `None`: pre-registry streams parse
            // unchanged into default-catalog requests.
            catalog: serde::field(v, "catalog")?,
        })
    }
}

/// Per-request latency breakdown, in microseconds, recorded only when
/// [`PipelineOptions::record_latency`] is on.
///
/// Queue and build time are chunk-granular (every request of a chunk
/// shares them); evaluation time is that of the request's group, the
/// requests on one pair whose runs share passes. v1 lines and v2 frames
/// are stamped alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestLatency {
    /// Intake-to-build-start: time from the end of reading the
    /// request's chunk to the start of its attach step, which is the
    /// time spent planning the chunk.
    pub queue_us: u64,
    /// Attach wall time of the request's chunk (cache lookups and
    /// reference builds).
    pub build_us: u64,
    /// Evaluation wall time of the request's group: every request
    /// evaluated in the same shared passes reads the same value (`0` for
    /// requests that never evaluated — resolution failures).
    pub eval_us: u64,
}

impl RequestLatency {
    /// Total intake-to-response latency.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.build_us + self.eval_us
    }
}

/// One evaluation response: the request echoed back plus either its error
/// statistics or a failure description.
///
/// Like [`EvalRequest`], serialization is hand-written so the optional
/// `latency` key is entirely absent — not `null` — when latency
/// recording is off, keeping the default wire format byte-identical to
/// the pre-latency one.
#[derive(Debug, Clone)]
pub struct EvalResponse {
    /// The request this response answers.
    pub request: EvalRequest,
    /// The evaluation result; `None` when the request failed.
    pub stats: Option<ErrorStats>,
    /// The failure description; `None` when the request succeeded.
    pub error: Option<String>,
    /// The latency breakdown; `None` unless the serving mode recorded it
    /// ([`PipelineOptions::record_latency`]).
    pub latency: Option<RequestLatency>,
}

impl Serialize for EvalResponse {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("request".to_string(), self.request.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            ("error".to_string(), self.error.to_value()),
        ];
        if let Some(latency) = &self.latency {
            fields.push(("latency".to_string(), latency.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for EvalResponse {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            request: serde::field(v, "request")?,
            stats: serde::field(v, "stats")?,
            error: serde::field(v, "error")?,
            latency: serde::field(v, "latency")?,
        })
    }
}

impl EvalResponse {
    fn err(request: EvalRequest, error: String) -> Self {
        Self {
            request,
            stats: None,
            error: Some(error),
            latency: None,
        }
    }

    /// The response to an unparseable request line: an error response
    /// echoing an empty request (there is no request to echo), emitted at
    /// the line's original stream position.
    fn parse_err(error: String) -> Self {
        Self {
            request: EvalRequest::new("", "", "", 0, 0),
            stats: None,
            error: Some(error),
            latency: None,
        }
    }

    /// Whether the request succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.stats.is_some()
    }
}

/// A response minus the request it answers: what the attach/evaluate
/// steps actually compute. Slots hold bodies so the final in-order
/// assembly can *move* each request out of the batch into its response —
/// the echoed request is never cloned on the serve hot path.
struct ResponseBody {
    stats: Option<ErrorStats>,
    error: Option<String>,
}

impl ResponseBody {
    fn ok(stats: ErrorStats) -> Self {
        Self {
            stats: Some(stats),
            error: None,
        }
    }

    fn err(error: String) -> Self {
        Self {
            stats: None,
            error: Some(error),
        }
    }

    fn into_response(self, request: EvalRequest) -> EvalResponse {
        EvalResponse {
            request,
            stats: self.stats,
            error: self.error,
            latency: None,
        }
    }
}

/// The evaluate step's tasks: each attached shard `(index, members)`
/// split into contiguous groups of its members. A shard gets a share of
/// `min(workers, requests)` groups in proportion to its requests,
/// rounded up, so there are at least as many groups as that and never
/// more than a shard's own requests.
fn split_into_groups<'a>(
    shards: &[(usize, &'a [usize])],
    workers: usize,
) -> Vec<(usize, &'a [usize])> {
    let requests: usize = shards.iter().map(|(_, members)| members.len()).sum();
    let target = workers.min(requests);
    let mut groups = Vec::new();
    for &(s, members) in shards {
        let n = members.len();
        let k = (n * target).div_ceil(requests).clamp(1, n);
        groups.extend((0..k).map(|j| (s, &members[n * j / k..n * (j + 1) / k])));
    }
    groups
}

/// Derives the seed of one measurement run from a request's base seed.
///
/// Seeds are a pure function of `(base_seed, run)` — never of the
/// catalog, the batch composition or scheduling — so the same request
/// always produces the same response, on any service.
#[must_use]
pub fn request_seed(base_seed: u64, run: usize) -> u64 {
    let mut h = mix64(base_seed ^ 0xA24B_AED4_963E_E407);
    h ^= run as u64;
    mix64(h)
}

/// Per-catalog (tenant) slice of [`ServeStats`], one per registered
/// catalog in registry order.
///
/// A request is attributed to the catalog it named (or the default) as
/// long as that *catalog* resolved — including requests that then
/// failed machine/workload/method resolution, so a tenant generating
/// error traffic is visible as such. Only a request naming an unknown
/// catalog has no tenant to charge and is counted solely in the global
/// [`ServeStats::errors`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantServeStats {
    /// The catalog's registered name.
    pub catalog: String,
    /// Requests attributed to this catalog (explicitly or as the
    /// default), whether or not they went on to resolve and evaluate.
    pub requests: u64,
    /// This catalog's requests that reused existing pair state.
    pub cache_hits: u64,
    /// This catalog's requests whose pair state had to be built.
    pub builds: u64,
    /// This catalog's requests answered with an error response
    /// (resolution, build or evaluation failures).
    pub errors: u64,
    /// This catalog's requests that carried a latency stamp.
    pub timed_requests: u64,
    /// Median total per-request latency (µs) over this catalog's most
    /// recent [`LATENCY_WINDOW`] timed requests.
    pub latency_p50_us: u64,
    /// 99th-percentile total per-request latency (µs) over the same
    /// window.
    pub latency_p99_us: u64,
}

impl TenantServeStats {
    /// Fraction of this catalog's pair attachments served without a
    /// reference build.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let attached = self.cache_hits + self.builds;
        if attached == 0 {
            0.0
        } else {
            self.cache_hits as f64 / attached as f64
        }
    }
}

/// Cumulative per-request counters of an [`EvalService`].
///
/// Unlike [`CacheStats`] (one lookup per shard), these count *requests*:
/// a request is a cache hit when the pair state it rode on already
/// existed — resident in the cache, or built moments earlier by another
/// request of the same batch shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests received. Malformed pipeline lines never parse into a
    /// request and are **not** counted here (see
    /// [`PipelineStats::parse_errors`]).
    pub requests: u64,
    /// Requests that reused existing pair state.
    pub cache_hits: u64,
    /// Requests whose pair state had to be built (one instrumented
    /// reference execution each).
    pub builds: u64,
    /// Lines answered with an error response: request failures
    /// (resolution, build or evaluation) plus, under pipelined intake,
    /// parse errors — so this can exceed `requests` minus successes on
    /// a malformed stream.
    pub errors: u64,
    /// Requests that carried a latency stamp
    /// ([`PipelineOptions::record_latency`]).
    pub timed_requests: u64,
    /// Median total (queue+build+eval) per-request latency in
    /// microseconds, nearest-rank over the most recent
    /// [`LATENCY_WINDOW`] timed requests (`0` when nothing was timed).
    pub latency_p50_us: u64,
    /// 99th-percentile total per-request latency in microseconds over
    /// the same window (`0` when nothing was timed).
    pub latency_p99_us: u64,
    /// Per-catalog breakdown, one entry per registered catalog in
    /// registry order (a single-catalog service has exactly one).
    pub tenants: Vec<TenantServeStats>,
}

impl ServeStats {
    /// Fraction of pair attachments served without a reference build.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let attached = self.cache_hits + self.builds;
        if attached == 0 {
            0.0
        } else {
            self.cache_hits as f64 / attached as f64
        }
    }
}

/// The nearest-rank `p`-th percentile of an ascending-sorted sample.
///
/// Boundary semantics (locked by unit tests): an empty sample reports
/// `0` (there is no distribution to summarize), a single sample answers
/// every percentile, `p` is clamped into `[0, 1]`, `p = 0` reports the
/// minimum and `p = 1` the maximum, and even-length medians take the
/// *lower* of the two middle samples (nearest-rank never interpolates).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// How many timed-request samples the latency window retains: old
/// samples rotate out so a long-running server neither grows without
/// bound nor pays more than a bounded sort per [`EvalService::stats`]
/// snapshot.
pub const LATENCY_WINDOW: usize = 4096;

/// A bounded sliding window of per-request latency samples (ring buffer
/// once full) plus the all-time count.
#[derive(Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    /// Ring cursor: the slot the next sample overwrites once full.
    next: usize,
    /// All-time number of recorded samples (never truncated).
    total: u64,
}

impl LatencyWindow {
    fn record(&mut self, us: u64) {
        self.total += 1;
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(us);
        } else {
            self.samples[self.next] = us;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// Snapshot: the window's samples sorted ascending, plus the
    /// all-time count.
    fn sorted_samples(&self) -> (Vec<u64>, u64) {
        let mut samples = self.samples.clone();
        samples.sort_unstable();
        (samples, self.total)
    }
}

/// One catalog's cumulative per-request counters inside an
/// [`EvalService`] (aggregated into [`TenantServeStats`] snapshots).
#[derive(Default)]
struct TenantCounters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    builds: AtomicU64,
    errors: AtomicU64,
    latencies: Mutex<LatencyWindow>,
}

/// The name a single-catalog service registers its catalog under, and
/// the catalog requests without a `catalog` field resolve to.
pub const DEFAULT_CATALOG: &str = "default";

/// One workload of an owned [`Catalog`]: the resolved name, program and
/// run configuration a request's `workload` field binds to.
///
/// The program rides in an `Arc` so registering the same workload into
/// several catalogs shares one copy.
#[derive(Debug, Clone)]
pub struct CatalogWorkload {
    pub name: String,
    pub program: Arc<Program>,
    pub run_config: RunConfig,
}

impl From<ct_workloads::Workload> for CatalogWorkload {
    fn from(w: ct_workloads::Workload) -> Self {
        Self {
            name: w.name,
            program: Arc::new(w.program),
            run_config: w.run_config,
        }
    }
}

/// A named, registrable evaluation catalog: the machines and workloads
/// requests resolve their names against, plus the default
/// [`MethodOptions`] those requests are instantiated with.
///
/// Catalogs **own** their data (machines by value, programs behind
/// `Arc`s), so a catalog can outlive whatever produced it — the
/// property that lets [`Catalog::from_dir`] turn a directory of
/// `.ctasm`/manifest files into a served tenant catalog. They are
/// registered into a [`CatalogRegistry`]; the registry index becomes
/// the cache namespace ([`PairKey::catalog`]).
pub struct Catalog {
    machines: Vec<MachineModel>,
    workloads: Vec<CatalogWorkload>,
    opts: MethodOptions,
    /// Per-workload CFGs, built lazily (a CFG depends only on the
    /// program) and shared with every cached pair of that workload.
    cfgs: Vec<OnceLock<Arc<Cfg>>>,
}

impl Catalog {
    /// A catalog over the given machines and workloads, with default
    /// method options. The borrowed specs are cloned into owned
    /// storage.
    #[must_use]
    pub fn new(machines: &[MachineModel], workloads: &[WorkloadSpec<'_>]) -> Self {
        Self::from_parts(
            machines.to_vec(),
            workloads
                .iter()
                .map(|w| CatalogWorkload {
                    name: w.name.to_string(),
                    program: Arc::new(w.program.clone()),
                    run_config: w.run_config.clone(),
                })
                .collect(),
        )
    }

    /// A catalog from already-owned parts (no cloning).
    #[must_use]
    pub fn from_parts(machines: Vec<MachineModel>, workloads: Vec<CatalogWorkload>) -> Self {
        let cfgs = (0..workloads.len()).map(|_| OnceLock::new()).collect();
        Self {
            machines,
            workloads,
            opts: MethodOptions::default(),
            cfgs,
        }
    }

    /// A catalog compiled from a directory of `.ctasm` + JSON manifest
    /// pairs through [`ct_workloads::loader`]: every program is
    /// assembler-validated and size/step-limited
    /// ([`ct_workloads::LoaderLimits`]), so a malformed or oversized
    /// tenant file is a typed error here — nothing invalid ever reaches
    /// the evaluation cache. `scale` applies the manifests' `scaled`
    /// sizing rule (1.0 = the checked-in base sizes).
    pub fn from_dir(
        machines: &[MachineModel],
        dir: impl AsRef<Path>,
        scale: f64,
    ) -> Result<Self, ct_workloads::LoaderError> {
        let limits = ct_workloads::LoaderLimits::default();
        let loaded = ct_workloads::loader::load_dir(dir, scale, &limits)?;
        Ok(Self::from_parts(
            machines.to_vec(),
            loaded.into_iter().map(CatalogWorkload::from).collect(),
        ))
    }

    /// Sets the method options requests against this catalog are
    /// instantiated with.
    #[must_use]
    pub fn method_options(mut self, opts: MethodOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The catalog's machines.
    #[must_use]
    pub fn machines(&self) -> &[MachineModel] {
        &self.machines
    }

    /// The catalog's workloads.
    #[must_use]
    pub fn workloads(&self) -> &[CatalogWorkload] {
        &self.workloads
    }

    /// The workload's CFG, built on first use and shared thereafter.
    fn workload_cfg(&self, w: usize) -> Arc<Cfg> {
        self.cfgs[w]
            .get_or_init(|| Arc::new(Cfg::build(&self.workloads[w].program)))
            .clone()
    }
}

/// An ordered collection of named [`Catalog`]s — the resolution root of
/// a multi-tenant [`EvalService`].
///
/// The first registered catalog is the **default**: requests without a
/// `catalog` field resolve to it, whatever it is named. Registration
/// order is the cache namespace order, so keep it stable across runs
/// that share persisted expectations.
pub struct CatalogRegistry {
    catalogs: Vec<(String, Catalog)>,
}

impl CatalogRegistry {
    /// A registry holding one default catalog under
    /// [`DEFAULT_CATALOG`].
    #[must_use]
    pub fn new(default: Catalog) -> Self {
        Self {
            catalogs: vec![(DEFAULT_CATALOG.to_string(), default)],
        }
    }

    /// Registers `catalog` under `name`, replacing any catalog already
    /// registered under that name (re-registering the default's name
    /// swaps the default in place).
    #[must_use]
    pub fn register(mut self, name: &str, catalog: Catalog) -> Self {
        match self.catalogs.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = catalog,
            None => self.catalogs.push((name.to_string(), catalog)),
        }
        self
    }

    /// The registered catalog names, default first.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.catalogs.iter().map(|(n, _)| n.as_str())
    }

    /// The catalog registered under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Catalog> {
        self.catalogs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }

    /// Number of registered catalogs (always ≥ 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.catalogs.len()
    }

    /// Whether the registry is empty (it never is — construction
    /// requires a default catalog).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.catalogs.is_empty()
    }

    /// Resolves a request's catalog name to its index: `None` is the
    /// default catalog (index 0), a name must be registered.
    fn index_of(&self, name: Option<&str>) -> Result<usize, String> {
        match name {
            None => Ok(0),
            Some(name) => self
                .catalogs
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| format!("unknown catalog `{name}`")),
        }
    }

    fn catalog(&self, index: usize) -> &Catalog {
        &self.catalogs[index].1
    }
}

/// A resolved request: registry + catalog indices plus the instantiated
/// method.
struct Resolved {
    catalog: usize,
    machine: usize,
    workload: usize,
    label: String,
    instance: MethodInstance,
}

/// One batch moving through the serve steps: planned requests, their
/// pair shards, per-request response slots, and (after the attach step)
/// the attached pair state each shard rides on.
///
/// [`EvalService::serve`] and the chunk loop behind
/// [`EvalService::serve_pipelined`] and protocol v2 push batches through
/// the same three steps — plan, attach, evaluate — so batched and
/// streamed responses are computed by identical code and stay
/// byte-identical.
struct Batch {
    requests: Vec<EvalRequest>,
    resolved: Vec<Result<Resolved, String>>,
    /// Shards by catalog-namespaced `(machine, workload)` pair, in
    /// first-appearance order; each holds the indices of its member
    /// requests.
    shards: Vec<(PairKey, Vec<usize>)>,
    /// One response-body slot per request, filled by the attach step
    /// (build failures) or the evaluate step; the request itself is
    /// moved in during the final in-order assembly.
    slots: Vec<Mutex<Option<ResponseBody>>>,
    /// One attachment per shard (`None` until attached, or on build
    /// failure — those members' slots already hold error responses).
    attachments: Vec<Option<Arc<PairParts>>>,
    /// Latency bookkeeping; `Some` only when the serving mode records
    /// latency ([`PipelineOptions::record_latency`]).
    timing: Option<BatchTiming>,
}

/// Wall-clock bookkeeping of one timed batch. Queue and build times are
/// batch-granular (the loop answers a chunk at a time); evaluation times
/// are per group of requests sharing passes.
struct BatchTiming {
    /// When intake finished reading the chunk.
    parsed_at: Instant,
    /// Micros between `parsed_at` and the start of the attach step
    /// (planning), filled by the attach step.
    queue_us: u64,
    /// Micros the attach step spent attaching the chunk's shards.
    build_us: u64,
    /// Per-request evaluation micros, filled by the evaluate step with
    /// the request's group time (`0` for requests that never evaluated).
    eval_us: Vec<AtomicU64>,
}

impl BatchTiming {
    fn new(parsed_at: Instant, requests: usize) -> Self {
        Self {
            parsed_at,
            queue_us: 0,
            build_us: 0,
            eval_us: (0..requests).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn latency_of(&self, request: usize) -> RequestLatency {
        RequestLatency {
            queue_us: self.queue_us,
            build_us: self.build_us,
            eval_us: self.eval_us[request].load(Ordering::Relaxed),
        }
    }
}

/// Saturating microseconds since `from` (latency accounting only — never
/// part of a response's deterministic payload).
fn micros_since(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Shape of the chunked intake behind [`EvalService::serve_pipelined`]
/// and protocol v2 connections.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Lines per chunk (values below 1 are served as 1): how many
    /// requests are read, then planned, attached and evaluated as one
    /// batch before their responses go out. On v2 it caps a burst.
    pub chunk: usize,
    /// Stamps every response with its queue/build/eval micros
    /// ([`EvalResponse::latency`]) and feeds the [`ServeStats`] latency
    /// percentiles. **Off by default**: latency values are wall-clock
    /// measurements, so turning this on intentionally steps outside the
    /// byte-identical determinism contract.
    pub record_latency: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            chunk: 64,
            record_latency: false,
        }
    }
}

impl PipelineOptions {
    /// Default shape: 64-request chunks, no latency recording.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the chunk size (clamped to at least 1 at use).
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Enables or disables per-request latency stamping.
    #[must_use]
    pub fn record_latency(mut self, on: bool) -> Self {
        self.record_latency = on;
        self
    }
}

/// Counters of one [`EvalService::serve_pipelined`] run or one v2
/// connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Non-empty input lines consumed.
    pub lines: u64,
    /// Lines that parsed into an [`EvalRequest`].
    pub requests: u64,
    /// Lines answered with a parse-error response, plus a v2 protocol
    /// error.
    pub parse_errors: u64,
    /// Chunks answered.
    pub chunks: u64,
    /// Responses written (one per non-empty line).
    pub responses: u64,
}

/// One chunk of intake, v1 lines or v2 frames: the requests that
/// parsed, plus every line to answer in arrival order with its
/// transport tag (`()` for v1, the stream id for v2) and its parse
/// error, if it has one.
#[derive(Default)]
struct Chunk<T> {
    lines: Vec<(T, Option<String>)>,
    requests: Vec<EvalRequest>,
}

impl<T> Chunk<T> {
    /// Parses line `line_no` of its stream. A blank line counts toward
    /// the line numbers but is never answered; invalid UTF-8 and
    /// malformed JSON are answered in place by a parse error naming the
    /// line.
    fn push_line(&mut self, tag: T, line_no: u64, bytes: &[u8]) {
        let parsed = match std::str::from_utf8(bytes).map(str::trim) {
            Ok("") => return,
            Ok(text) => serde_json::from_str::<EvalRequest>(text).map_err(|e| e.to_string()),
            Err(e) => Err(format!("invalid UTF-8: {e}")),
        };
        match parsed {
            Ok(request) => {
                self.requests.push(request);
                self.lines.push((tag, None));
            }
            Err(e) => self.push_error(tag, format!("parse error on line {line_no}: {e}")),
        }
    }

    /// Queues an error response at this point of the stream.
    fn push_error(&mut self, tag: T, error: String) {
        self.lines.push((tag, Some(error)));
    }
}

/// The batched evaluation service. Construct with [`EvalService::new`]
/// (single catalog) or [`EvalService::with_registry`] (multi-tenant),
/// configure with the builder methods, then feed request batches to
/// [`EvalService::serve`] (the cache persists across batches and is
/// shared by every catalog).
pub struct EvalService {
    registry: CatalogRegistry,
    threads: usize,
    cache: ProfileCache,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    builds: AtomicU64,
    errors: AtomicU64,
    /// Sliding window of total (queue+build+eval) micros of
    /// latency-stamped requests, aggregated into the [`ServeStats`]
    /// percentiles.
    latencies_us: Mutex<LatencyWindow>,
    /// Per-catalog counters, one per registered catalog in registry
    /// order (aggregated into [`ServeStats::tenants`]).
    tenants: Vec<TenantCounters>,
    /// Memoized [`crate::store::pair_fingerprint`]s, keyed by pair.
    /// Fingerprints hash the machine model and whole program, so they
    /// are computed once per pair (and only when a snapshot store is
    /// attached), not once per miss.
    snapshot_fingerprints: Mutex<HashMap<PairKey, u64>>,
}

impl EvalService {
    /// A service over a single default catalog: default method options,
    /// all available hardware parallelism, unbounded cache.
    #[must_use]
    pub fn new(machines: &[MachineModel], workloads: &[WorkloadSpec<'_>]) -> Self {
        Self::with_registry(CatalogRegistry::new(Catalog::new(machines, workloads)))
    }

    /// A service over a whole registry of named catalogs sharing one
    /// cache. Requests pick their catalog with the `catalog` field;
    /// absent means the registry's default.
    #[must_use]
    pub fn with_registry(registry: CatalogRegistry) -> Self {
        let tenants = (0..registry.len())
            .map(|_| TenantCounters::default())
            .collect();
        Self {
            registry,
            threads: default_threads(),
            cache: ProfileCache::unbounded(),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latencies_us: Mutex::new(LatencyWindow::default()),
            tenants,
            snapshot_fingerprints: Mutex::new(HashMap::new()),
        }
    }

    /// The service's catalog registry.
    #[must_use]
    pub fn registry(&self) -> &CatalogRegistry {
        &self.registry
    }

    /// Appends a tenant catalog compiled from a directory of
    /// `.ctasm` + manifest files (see [`Catalog::from_dir`]),
    /// registered under the directory's file name and resolving against
    /// the paper's three machine models. Loading failures are typed
    /// [`ct_workloads::LoaderError`]s — a malformed or over-limit file
    /// rejects the whole directory before anything reaches the cache.
    ///
    /// A name already registered replaces that catalog in place, under
    /// the same cache namespace, so every resident reference is dropped:
    /// the replaced tenant is never answered from its old programs.
    pub fn workload_dir(
        mut self,
        dir: impl AsRef<Path>,
        scale: f64,
    ) -> Result<Self, ct_workloads::LoaderError> {
        let dir = dir.as_ref();
        let name = dir
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("dir")
            .to_string();
        let machines = MachineModel::paper_machines();
        let catalog = Catalog::from_dir(&machines, dir, scale)?;
        match self.registry.catalogs.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => {
                slot.1 = catalog;
                self.cache.clear();
                self.snapshot_fingerprints
                    .get_mut()
                    .expect("fingerprint memo lock never poisoned")
                    .clear();
            }
            None => {
                self.registry.catalogs.push((name, catalog));
                self.tenants.push(TenantCounters::default());
            }
        }
        Ok(self)
    }

    /// Sets how many pool threads one fan-out may use (see
    /// [`for_each_index`]); `0` restores the default (available hardware
    /// parallelism). Responses do not depend on this.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { default_threads() } else { n };
        self
    }

    /// Bounds the profile cache to `capacity` pairs with LRU eviction
    /// (`0` means unbounded). Responses do not depend on this — only
    /// build counts do.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        let snapshot = self.cache.snapshot.take();
        self.cache = ProfileCache::with_capacity(capacity);
        self.cache.snapshot = snapshot;
        self
    }

    /// Backs the profile cache with an on-disk snapshot store over `dir`
    /// (see [`crate::store`]): cache misses read through validated
    /// snapshots instead of re-running references, and cold builds write
    /// behind into the directory — so a service restarted on the same
    /// directory warm-starts at full hit rate with **zero** instrumented
    /// executions, byte-identical to the cold run. Survives
    /// [`Self::cache_capacity`] in either order.
    #[must_use]
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache.attach_snapshot_store(dir);
        self
    }

    /// Sets the method options requests against the **default** catalog
    /// are instantiated with. Other catalogs of a registry keep the
    /// options they were registered with
    /// ([`Catalog::method_options`]).
    #[must_use]
    pub fn method_options(mut self, opts: MethodOptions) -> Self {
        self.registry.catalogs[0].1.opts = opts;
        self
    }

    /// Serves one batch of requests, returning one response per request
    /// **in request order**.
    ///
    /// Requests are sharded by `(machine, workload)` pair and shards run
    /// in parallel; each shard attaches to its pair state through the
    /// cache once and holds it for every member request, so a batch
    /// performs at most one reference build per distinct pair no matter
    /// how small the cache is.
    pub fn serve(&self, requests: &[EvalRequest]) -> Vec<EvalResponse> {
        let mut batch = self.plan_batch(requests.to_vec(), None);
        self.attach_batch(&mut batch);
        self.evaluate_batch(batch)
    }

    /// Plan step: resolves every request through the catalog registry
    /// and shards the resolvable ones by catalog-namespaced
    /// `(machine, workload)` pair, in first-appearance order.
    /// `parsed_at` carries the intake timestamp of a latency-recording
    /// chunk (`None` everywhere else).
    fn plan_batch(&self, requests: Vec<EvalRequest>, parsed_at: Option<Instant>) -> Batch {
        let resolved: Vec<Result<Resolved, String>> =
            requests.iter().map(|r| self.resolve(r)).collect();
        let mut shard_of: HashMap<PairKey, usize> = HashMap::new();
        let mut shards: Vec<(PairKey, Vec<usize>)> = Vec::new();
        for (i, r) in resolved.iter().enumerate() {
            if let Ok(res) = r {
                let key = PairKey::new(res.catalog, res.machine, res.workload);
                let s = *shard_of.entry(key).or_insert_with(|| {
                    shards.push((key, Vec::new()));
                    shards.len() - 1
                });
                shards[s].1.push(i);
            }
        }
        let slots = requests.iter().map(|_| Mutex::new(None)).collect();
        let attachments = shards.iter().map(|_| None).collect();
        let timing = parsed_at.map(|at| BatchTiming::new(at, requests.len()));
        Batch {
            requests,
            resolved,
            shards,
            slots,
            attachments,
            timing,
        }
    }

    /// Attach step: one task per shard acquires (or builds) the pair
    /// state through the cache, so a batch performs at most one
    /// reference build per distinct pair whatever the capacity. A timed
    /// batch records its queue and build micros here.
    fn attach_batch(&self, batch: &mut Batch) {
        let started = batch.timing.as_mut().map(|timing| {
            timing.queue_us = micros_since(timing.parsed_at);
            Instant::now()
        });
        let attachments: Vec<Mutex<Option<Arc<PairParts>>>> =
            batch.shards.iter().map(|_| Mutex::new(None)).collect();
        for_each_index(self.threads, batch.shards.len(), |s| {
            let (key, members) = &batch.shards[s];
            if let Some(parts) = self.attach_shard(*key, members, &batch.slots) {
                *attachments[s].lock().expect("no poisoned slots") = Some(parts);
            }
        });
        batch.attachments = attachments
            .into_iter()
            .map(|a| a.into_inner().expect("no poisoned slots"))
            .collect();
        if let (Some(timing), Some(at)) = (&mut batch.timing, started) {
            timing.build_us = micros_since(at);
        }
    }

    /// Evaluate step: one task per *group* of a shard's requests, and
    /// all of a group's runs share passes, since every run on a pair sees
    /// the same retirement stream. Shards split into groups only as far
    /// as it takes to keep every worker busy: a chunk of at least
    /// `threads` requests runs as at least `threads` tasks, so skewed
    /// traffic (many requests on one hot pair) still spreads across
    /// every worker. Responses come back in request order; requests that
    /// never reached a shard failed resolution and are answered here.
    fn evaluate_batch(&self, batch: Batch) -> Vec<EvalResponse> {
        let Batch {
            requests,
            resolved,
            shards,
            slots,
            attachments,
            timing,
        } = batch;
        let attached: Vec<(usize, &[usize])> = shards
            .iter()
            .enumerate()
            .filter(|(s, _)| attachments[*s].is_some())
            .map(|(s, (_, members))| (s, members.as_slice()))
            .collect();
        let tasks = split_into_groups(&attached, self.threads);
        let timing_ref = timing.as_ref();
        for_each_index(self.threads, tasks.len(), |t| {
            let (s, members) = tasks[t];
            let parts = attachments[s].as_ref().expect("attached shards only");
            let started = timing_ref.map(|_| Instant::now());
            let bodies = self.evaluate_group(&requests, &resolved, members, shards[s].0, parts);
            for (&i, body) in members.iter().zip(bodies) {
                if let (Some(tm), Some(at)) = (timing_ref, started) {
                    tm.eval_us[i].store(micros_since(at), Ordering::Relaxed);
                }
                *slots[i].lock().expect("no poisoned slots") = Some(body);
            }
        });

        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);

        let responses: Vec<EvalResponse> = requests
            .into_iter()
            .zip(resolved)
            .zip(slots)
            .enumerate()
            .map(|(i, ((request, resolution), slot))| {
                // The tenant to charge. A request whose names failed to
                // resolve still belongs to its catalog as long as the
                // catalog itself resolved — only an unknown catalog
                // leaves no tenant to attribute to.
                let catalog = match &resolution {
                    Ok(res) => Some(res.catalog),
                    Err(_) => self.registry.index_of(request.catalog.as_deref()).ok(),
                };
                let unresolved = resolution.is_err();
                let mut response = match slot.into_inner().expect("no poisoned slots") {
                    Some(body) => body.into_response(request),
                    None => {
                        let error = resolution.err().expect("unfilled slots are unresolved");
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        EvalResponse::err(request, error)
                    }
                };
                if let Some(c) = catalog {
                    self.tenants[c].requests.fetch_add(1, Ordering::Relaxed);
                    if unresolved {
                        self.tenants[c].errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Some(tm) = &timing {
                    response.latency = Some(tm.latency_of(i));
                    if let (Some(c), Some(latency)) = (catalog, response.latency) {
                        self.tenants[c]
                            .latencies
                            .lock()
                            .expect("no poisoned stats")
                            .record(latency.total_us());
                    }
                }
                response
            })
            .collect();

        if timing.is_some() {
            let mut window = self.latencies_us.lock().expect("no poisoned stats");
            for us in responses
                .iter()
                .filter_map(|r| r.latency.map(|l| l.total_us()))
            {
                window.record(us);
            }
        }
        responses
    }

    /// Serves a single request — batching degenerates gracefully, and the
    /// cache still amortizes builds across calls.
    pub fn serve_one(&self, request: &EvalRequest) -> EvalResponse {
        self.serve(std::slice::from_ref(request))
            .pop()
            .expect("one response per request")
    }

    /// Serves a batch and serializes each response as one JSON line —
    /// the byte-identity unit of the determinism contract.
    pub fn serve_jsonl(&self, requests: &[EvalRequest]) -> String {
        let mut out = String::new();
        for response in self.serve(requests) {
            serde_json::to_string_into(&response, &mut out).expect("responses always serialize");
            out.push('\n');
        }
        out
    }

    /// Serves a JSON-lines request stream one chunk at a time:
    ///
    /// ```text
    /// reader ──read chunk──▶ plan ──▶ attach ──▶ evaluate ──▶ emit ──▶ writer
    ///          (≤ chunk lines) (shard) (cache)  (fan-out)  (in order)
    /// ```
    ///
    /// The calling thread reads a chunk of up to
    /// [`PipelineOptions::chunk`] non-empty lines, answers it as one
    /// batch — attach and evaluate fan out over the service's worker
    /// threads — and only then reads the next chunk, so responses trail
    /// the input by up to one chunk.
    ///
    /// Responses are written **in stream order**, one JSON line per
    /// non-empty input line (blank lines are skipped). A malformed line
    /// (invalid UTF-8 or JSON) becomes an in-order error response naming
    /// its line number, and reading goes on. A line longer than
    /// [`proto::MAX_FRAME_PAYLOAD`] bytes, the v2 frame limit, is
    /// answered in order with an error too, and then reading stops: the
    /// rest of the stream is never read. For a well-formed stream the
    /// output is byte-identical to [`EvalService::serve_jsonl`] over the
    /// same requests, for any thread count or chunk size.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error raised by `reader` or `writer`;
    /// evaluation failures are never I/O errors (they are responses).
    pub fn serve_pipelined<R, W>(
        &self,
        mut reader: R,
        writer: &mut W,
        options: &PipelineOptions,
    ) -> std::io::Result<PipelineStats>
    where
        R: BufRead,
        W: Write,
    {
        let cap = proto::MAX_FRAME_PAYLOAD as usize;
        let mut stats = PipelineStats::default();
        let mut json = String::new();
        let mut line = Vec::new();
        let mut line_no: u64 = 0;
        let mut reading = true;
        while reading {
            let mut chunk = Chunk::default();
            while chunk.lines.len() < options.chunk.max(1) {
                line.clear();
                // One byte past the cap tells an over-long line from one
                // that fits.
                if (&mut reader)
                    .take(cap as u64 + 1)
                    .read_until(b'\n', &mut line)?
                    == 0
                {
                    reading = false;
                    break;
                }
                line_no += 1;
                if line.strip_suffix(b"\n").unwrap_or(&line).len() > cap {
                    let error = format!("parse error on line {line_no}: longer than {cap} bytes");
                    chunk.push_error((), error);
                    reading = false;
                    break;
                }
                chunk.push_line((), line_no, &line);
            }
            self.answer_chunk(chunk, options, &mut json, &mut stats, |(), response| {
                writer.write_all(response)
            })?;
        }
        Ok(stats)
    }

    /// The chunk answerer of both transports: plans, attaches and
    /// evaluates the chunk's requests as one batch, then serializes each
    /// line's response, in arrival order, as one JSON line into `json`
    /// (the stream's reusable buffer) and hands it to `emit` with the
    /// line's tag. An empty chunk answers nothing.
    fn answer_chunk<T>(
        &self,
        chunk: Chunk<T>,
        options: &PipelineOptions,
        json: &mut String,
        stats: &mut PipelineStats,
        mut emit: impl FnMut(T, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        if chunk.lines.is_empty() {
            return Ok(());
        }
        stats.chunks += 1;
        let parsed_at = options.record_latency.then(Instant::now);
        let mut batch = self.plan_batch(chunk.requests, parsed_at);
        self.attach_batch(&mut batch);
        let mut responses = self.evaluate_batch(batch).into_iter();
        for (tag, error) in chunk.lines {
            stats.lines += 1;
            let response = match error {
                None => {
                    stats.requests += 1;
                    responses.next().expect("one response per request")
                }
                Some(error) => {
                    stats.parse_errors += 1;
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    EvalResponse::parse_err(error)
                }
            };
            json.clear();
            serde_json::to_string_into(&response, json).expect("responses always serialize");
            json.push('\n');
            emit(tag, json.as_bytes())?;
            stats.responses += 1;
        }
        Ok(())
    }

    /// A snapshot of the cumulative per-request counters. The latency
    /// percentiles cover the most recent [`LATENCY_WINDOW`]
    /// latency-stamped requests (zero when nothing opted into
    /// [`PipelineOptions::record_latency`]), so snapshot cost stays
    /// bounded on a long-running server.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let (timed, total) = self
            .latencies_us
            .lock()
            .expect("no poisoned stats")
            .sorted_samples();
        let tenants = self
            .registry
            .catalogs
            .iter()
            .zip(&self.tenants)
            .map(|((name, _), counters)| {
                let (samples, timed_requests) = counters
                    .latencies
                    .lock()
                    .expect("no poisoned stats")
                    .sorted_samples();
                TenantServeStats {
                    catalog: name.clone(),
                    requests: counters.requests.load(Ordering::Relaxed),
                    cache_hits: counters.cache_hits.load(Ordering::Relaxed),
                    builds: counters.builds.load(Ordering::Relaxed),
                    errors: counters.errors.load(Ordering::Relaxed),
                    timed_requests,
                    latency_p50_us: percentile_us(&samples, 0.50),
                    latency_p99_us: percentile_us(&samples, 0.99),
                }
            })
            .collect();
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            timed_requests: total,
            latency_p50_us: percentile_us(&timed, 0.50),
            latency_p99_us: percentile_us(&timed, 0.99),
            tenants,
        }
    }

    /// A snapshot of the underlying cache counters (per-shard lookups,
    /// evictions, residency).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Attaches one pair shard to its (cached or freshly built) pair
    /// state, recording per-request hit/build accounting. On build
    /// failure, fills every member's slot with an error body and
    /// returns `None`.
    fn attach_shard(
        &self,
        key: PairKey,
        members: &[usize],
        slots: &[Mutex<Option<ResponseBody>>],
    ) -> Option<Arc<PairParts>> {
        let catalog = self.registry.catalog(key.catalog);
        let machine = &catalog.machines[key.machine];
        let workload = &catalog.workloads[key.workload];
        // Fingerprints only matter (and only cost anything) when a
        // snapshot store is attached; without one the call is exactly
        // the plain get_or_build.
        let fingerprint = self
            .cache
            .has_snapshot_store()
            .then(|| self.pair_fingerprint(key));
        let built = self
            .cache
            .get_or_build_with_fingerprint(key, fingerprint, || {
                PairParts::collect(
                    machine,
                    &workload.program,
                    &workload.run_config,
                    catalog.workload_cfg(key.workload),
                )
            });
        let tenant = &self.tenants[key.catalog];
        let (parts, hit) = match built {
            Ok(ok) => ok,
            Err(e) => {
                self.errors
                    .fetch_add(members.len() as u64, Ordering::Relaxed);
                tenant
                    .errors
                    .fetch_add(members.len() as u64, Ordering::Relaxed);
                for &i in members {
                    *slots[i].lock().expect("no poisoned slots") = Some(ResponseBody::err(
                        format!("reference collection failed: {e}"),
                    ));
                }
                return None;
            }
        };
        // Per-request accounting: the build (if any) is charged to one
        // member; every other member shared existing state.
        let hits = if hit {
            members.len() as u64
        } else {
            self.builds.fetch_add(1, Ordering::Relaxed);
            tenant.builds.fetch_add(1, Ordering::Relaxed);
            members.len() as u64 - 1
        };
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        tenant.cache_hits.fetch_add(hits, Ordering::Relaxed);
        Some(parts)
    }

    /// The pair generation fingerprint for `key`
    /// ([`crate::store::pair_fingerprint`] over the catalog name and the
    /// resolved machine/program/run-config/options), memoized per
    /// service.
    fn pair_fingerprint(&self, key: PairKey) -> u64 {
        let mut memo = self
            .snapshot_fingerprints
            .lock()
            .expect("fingerprint memo lock never poisoned");
        if let Some(&fp) = memo.get(&key) {
            return fp;
        }
        let (name, catalog) = &self.registry.catalogs[key.catalog];
        let workload = &catalog.workloads[key.workload];
        let fp = crate::store::pair_fingerprint(
            name,
            &catalog.machines[key.machine],
            &workload.program,
            &workload.run_config,
            &catalog.opts,
        );
        memo.insert(key, fp);
        fp
    }

    /// Evaluates a group of one shard's requests against the shard's
    /// shared pair state, every run of every member in shared passes,
    /// and returns one response body per member (the requests are moved
    /// in later, by the in-order assembly — never cloned here).
    fn evaluate_group(
        &self,
        requests: &[EvalRequest],
        resolved: &[Result<Resolved, String>],
        members: &[usize],
        key: PairKey,
        parts: &PairParts,
    ) -> Vec<ResponseBody> {
        let catalog = self.registry.catalog(key.catalog);
        let machine = &catalog.machines[key.machine];
        let workload = &catalog.workloads[key.workload];
        let mut session = parts.session(machine, &workload.program, workload.run_config.clone());
        let resolved: Vec<&Resolved> = members
            .iter()
            .map(|&i| resolved[i].as_ref().expect("sharded requests resolved"))
            .collect();
        // Each run's entry, and the member it belongs to.
        let mut runs = Vec::new();
        let mut owners = Vec::new();
        for (member, (&i, res)) in members.iter().zip(&resolved).enumerate() {
            let request = &requests[i];
            for r in 0..request.effective_runs() {
                runs.push((&res.instance, request_seed(request.seed, r)));
                owners.push(member);
            }
        }
        let mut tallies: Vec<Tally> = members.iter().map(|_| Tally::default()).collect();
        session.run_methods(&runs, |e, run| tallies[owners[e]].add(run));
        tallies
            .into_iter()
            .zip(resolved)
            .map(|(tally, res)| match tally.finish(&res.label) {
                Ok(stats) => ResponseBody::ok(stats),
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    self.tenants[key.catalog]
                        .errors
                        .fetch_add(1, Ordering::Relaxed);
                    ResponseBody::err(format!("evaluation failed: {e}"))
                }
            })
            .collect()
    }

    /// Checks a request's run count against [`MAX_RUNS`], then resolves
    /// its names through the registry: the catalog first (absent =
    /// default), then machine, workload and method within it. Every
    /// failure is a per-request error string — an unknown catalog
    /// answers exactly like an unknown machine, in order, never a panic.
    fn resolve(&self, request: &EvalRequest) -> Result<Resolved, String> {
        if request.runs > MAX_RUNS {
            return Err(format!(
                "runs {} exceeds the limit of {MAX_RUNS}",
                request.runs
            ));
        }
        let catalog_index = self.registry.index_of(request.catalog.as_deref())?;
        let catalog = self.registry.catalog(catalog_index);
        let machine = catalog
            .machines
            .iter()
            .position(|m| m.name == request.machine)
            .ok_or_else(|| format!("unknown machine `{}`", request.machine))?;
        let workload = catalog
            .workloads
            .iter()
            .position(|w| w.name == request.workload)
            .ok_or_else(|| format!("unknown workload `{}`", request.workload))?;
        let kind = MethodKind::from_label(&request.method)
            .ok_or_else(|| format!("unknown method `{}`", request.method))?;
        let instance = kind
            .instantiate(&catalog.machines[machine], &catalog.opts)
            .ok_or_else(|| {
                format!(
                    "method `{}` unavailable on {}",
                    request.method, catalog.machines[machine].name
                )
            })?;
        Ok(Resolved {
            catalog: catalog_index,
            machine,
            workload,
            label: request.method.clone(),
            instance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::asm::assemble;
    use ct_isa::Program;
    use ct_sim::RunConfig;

    fn kernel(n: u64) -> Program {
        assemble(
            "k",
            &format!(
                r#"
                .func main
                    movi r1, {n}
                top:
                    addi r2, r2, 1
                    subi r1, r1, 1
                    brnz r1, top
                    halt
                .endfunc
            "#
            ),
        )
        .unwrap()
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let program = kernel(20_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
        let requests = vec![
            EvalRequest::new("Westmere (Xeon X5650)", "k", "classic", 1, 1),
            EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 1, 2),
            EvalRequest::new("Westmere (Xeon X5650)", "k", "precise", 2, 3),
            EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 4),
        ];
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(4);
        let responses = service.serve(&requests);
        assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(&response.request, request);
            assert!(response.is_ok(), "{:?}", response.error);
        }
        assert_eq!(responses[2].stats.as_ref().unwrap().runs.len(), 2);
        // 4 requests over 2 pairs: 2 builds, 2 hits.
        let stats = service.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn bad_requests_become_error_responses() {
        let program = kernel(5_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::magny_cours()];
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(2);
        let requests = vec![
            EvalRequest::new("No Such Machine", "k", "classic", 1, 1),
            EvalRequest::new("Magny-Cours (Opteron 6164 HE)", "nope", "classic", 1, 1),
            EvalRequest::new("Magny-Cours (Opteron 6164 HE)", "k", "frobnicate", 1, 1),
            // LBR does not exist on AMD: resolvable names, unavailable method.
            EvalRequest::new("Magny-Cours (Opteron 6164 HE)", "k", "lbr", 1, 1),
            EvalRequest::new("Magny-Cours (Opteron 6164 HE)", "k", "classic", 1, 1),
        ];
        let responses = service.serve(&requests);
        assert!(responses[0]
            .error
            .as_ref()
            .unwrap()
            .contains("unknown machine"));
        assert!(responses[1]
            .error
            .as_ref()
            .unwrap()
            .contains("unknown workload"));
        assert!(responses[2]
            .error
            .as_ref()
            .unwrap()
            .contains("unknown method"));
        assert!(responses[3].error.as_ref().unwrap().contains("unavailable"));
        assert!(responses[4].is_ok());
        let stats = service.stats();
        assert_eq!(stats.errors, 4);
        // All five requests — including the four resolution failures —
        // belong to the default catalog, and its error count sees them.
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].catalog, DEFAULT_CATALOG);
        assert_eq!(stats.tenants[0].requests, 5);
        assert_eq!(stats.tenants[0].errors, 4);
    }

    #[test]
    fn latency_window_rotates_and_keeps_the_all_time_count() {
        let mut window = LatencyWindow::default();
        for us in 0..(LATENCY_WINDOW as u64 + 10) {
            window.record(us);
        }
        assert_eq!(window.total, LATENCY_WINDOW as u64 + 10);
        assert_eq!(window.samples.len(), LATENCY_WINDOW, "bounded retention");
        // The oldest 10 samples rotated out; the newest 10 overwrote them.
        assert!(!window.samples.contains(&0));
        assert!(window.samples.contains(&(LATENCY_WINDOW as u64 + 9)));
        assert_eq!(window.next, 10);
    }

    #[test]
    fn percentile_us_nearest_rank_boundaries() {
        // Empty window: no distribution, report 0 for every p.
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_us(&[], p), 0);
        }
        // A single sample answers every percentile.
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_us(&[42], p), 42);
        }
        // p50 on len 2 is the LOWER sample (nearest rank: ceil(0.5*2)=1,
        // 1-indexed) — not the mean, not the upper.
        assert_eq!(percentile_us(&[10, 20], 0.50), 10);
        assert_eq!(percentile_us(&[10, 20], 0.51), 20);
        // p0 is the minimum, p1 the maximum; out-of-range p is clamped.
        assert_eq!(percentile_us(&[10, 20, 30], 0.0), 10);
        assert_eq!(percentile_us(&[10, 20, 30], 1.0), 30);
        assert_eq!(percentile_us(&[10, 20, 30], -0.5), 10);
        assert_eq!(percentile_us(&[10, 20, 30], 7.0), 30);
        // Exact-rank boundaries: p99 of 100 samples is the 99th value.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&hundred, 0.99), 99);
        assert_eq!(percentile_us(&hundred, 0.50), 50);
    }

    #[test]
    fn latency_percentiles_cover_only_the_post_wraparound_window() {
        // Fill the window with large values, then wrap it completely
        // with small ones: percentiles must reflect only the surviving
        // window, with no stale sample leaking through the ring cursor.
        let mut window = LatencyWindow::default();
        for _ in 0..LATENCY_WINDOW {
            window.record(1_000_000);
        }
        for us in 0..LATENCY_WINDOW as u64 {
            window.record(us);
        }
        let (samples, total) = window.sorted_samples();
        assert_eq!(total, 2 * LATENCY_WINDOW as u64);
        assert_eq!(samples.len(), LATENCY_WINDOW);
        assert_eq!(percentile_us(&samples, 1.0), LATENCY_WINDOW as u64 - 1);
        assert!(
            percentile_us(&samples, 0.99) < 1_000_000,
            "old samples rotated out"
        );
        // A partial wrap keeps the mixed window: the cursor overwrites
        // the oldest slots first.
        let mut partial = LatencyWindow::default();
        for _ in 0..LATENCY_WINDOW {
            partial.record(7);
        }
        partial.record(9);
        let (samples, _) = partial.sorted_samples();
        assert_eq!(samples.iter().filter(|&&s| s == 9).count(), 1);
        assert_eq!(samples.len(), LATENCY_WINDOW);
    }

    #[test]
    fn groups_cover_every_request_in_order_and_keep_every_worker_busy() {
        let members: Vec<usize> = (0..12).collect();
        let shards = [
            (0, &members[0..1]),
            (1, &members[1..3]),
            (2, &members[3..12]),
        ];
        for workers in 1..=16 {
            let groups = split_into_groups(&shards, workers);
            assert!(groups.len() >= workers.min(12), "{workers} workers");
            assert!(groups.iter().all(|(_, g)| !g.is_empty()));
            let flat: Vec<usize> = groups.iter().flat_map(|(_, g)| g.iter().copied()).collect();
            assert_eq!(flat, members, "{workers} workers");
            for (s, g) in &groups {
                assert!(g.iter().all(|i| shards[*s].1.contains(i)));
            }
        }
        // Fewer requests than workers: every request is its own task.
        assert_eq!(split_into_groups(&shards[..2], 8).len(), 3);
        // Even shards and enough of them for every worker: one group each.
        let even = [
            (0, &members[0..4]),
            (1, &members[4..8]),
            (2, &members[8..12]),
        ];
        assert_eq!(split_into_groups(&even, 2).len(), 3);
        // A shard splits in proportion to its share of the requests.
        assert_eq!(split_into_groups(&shards, 2).len(), 4);
        assert!(split_into_groups(&[], 4).is_empty());
    }

    #[test]
    fn request_seeds_are_stable_and_distinct() {
        assert_eq!(request_seed(7, 0), request_seed(7, 0));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16 {
            for run in 0..8 {
                assert!(seen.insert(request_seed(seed, run)));
            }
        }
    }

    #[test]
    fn zero_runs_are_served_as_one() {
        let program = kernel(5_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads).method_options(MethodOptions::fast());
        let response = service.serve_one(&EvalRequest::new(
            "Ivy Bridge (Xeon E3-1265L)",
            "k",
            "classic",
            0,
            9,
        ));
        assert_eq!(response.stats.unwrap().runs.len(), 1);
    }

    #[test]
    fn runs_above_the_cap_are_rejected_before_any_work() {
        let program = kernel(200);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads).method_options(MethodOptions::fast());
        let at_cap = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", MAX_RUNS, 9);
        let over = EvalRequest {
            runs: MAX_RUNS + 1,
            ..at_cap.clone()
        };
        let response = service.serve_one(&over);
        assert!(response.stats.is_none());
        assert_eq!(
            response.error.as_deref(),
            Some("runs 1001 exceeds the limit of 1000")
        );
        assert_eq!(service.stats().errors, 1);
        assert_eq!(service.cache_stats().builds, 0, "rejected before attach");
        let response = service.serve_one(&at_cap);
        assert_eq!(response.stats.unwrap().runs.len(), MAX_RUNS);
    }

    #[test]
    fn pipelined_output_matches_batched_output() {
        let program = kernel(10_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
        let requests = [
            EvalRequest::new("Westmere (Xeon X5650)", "k", "classic", 1, 1),
            EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 1, 2),
            EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "precise", 1, 3),
            EvalRequest::new("Westmere (Xeon X5650)", "k", "precise", 2, 4),
            EvalRequest::new("Westmere (Xeon X5650)", "k", "no such method", 1, 5),
        ];
        let wire: String = requests
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();

        let batched = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(4);
        let mut expected = String::new();
        for chunk in requests.chunks(2) {
            expected.push_str(&batched.serve_jsonl(chunk));
        }

        for chunk in [2, 1, 64] {
            let service = EvalService::new(&machines, &workloads)
                .method_options(MethodOptions::fast())
                .threads(4);
            let mut out = Vec::new();
            let stats = service
                .serve_pipelined(
                    wire.as_bytes(),
                    &mut out,
                    &PipelineOptions::new().chunk(chunk),
                )
                .unwrap();
            assert_eq!(stats.requests, 5);
            assert_eq!(stats.parse_errors, 0);
            assert_eq!(stats.responses, 5);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                expected,
                "chunk {chunk} must match batched output"
            );
        }
    }

    #[test]
    fn pipelined_empty_stream_is_empty_output() {
        let program = kernel(5_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads).method_options(MethodOptions::fast());
        let mut out = Vec::new();
        let stats = service
            .serve_pipelined("".as_bytes(), &mut out, &PipelineOptions::default())
            .unwrap();
        assert_eq!(stats, PipelineStats::default());
        assert!(out.is_empty());
        // Blank lines are skipped, not answered.
        let stats = service
            .serve_pipelined("\n  \n\n".as_bytes(), &mut out, &PipelineOptions::default())
            .unwrap();
        assert_eq!(stats.responses, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn pipelined_chunk_zero_is_clamped() {
        let program = kernel(5_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads).method_options(MethodOptions::fast());
        let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 3);
        let wire = serde_json::to_string(&request).unwrap() + "\n";
        let mut out = Vec::new();
        let stats = service
            .serve_pipelined(wire.as_bytes(), &mut out, &PipelineOptions::new().chunk(0))
            .unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.chunks, 1);
        assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), 1);
    }

    #[test]
    fn pipelined_write_errors_surface() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let program = kernel(5_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads).method_options(MethodOptions::fast());
        let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 3);
        let wire = serde_json::to_string(&request).unwrap() + "\n";
        let err = service
            .serve_pipelined(
                wire.as_bytes(),
                &mut FailingWriter,
                &PipelineOptions::default(),
            )
            .unwrap_err();
        assert_eq!(err.to_string(), "sink full");
    }

    #[test]
    fn identical_requests_get_identical_responses_across_batches() {
        let program = kernel(10_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::westmere()];
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .cache_capacity(1);
        let request = EvalRequest::new("Westmere (Xeon X5650)", "k", "precise+prime+rand", 3, 11);
        let a = serde_json::to_string(&service.serve_one(&request)).unwrap();
        let b = serde_json::to_string(&service.serve_one(&request)).unwrap();
        assert_eq!(a, b, "replayed request must be byte-identical");
    }
}
