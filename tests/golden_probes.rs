//! Golden determinism probes: eight small, single-threaded runs of the
//! serving tier, the grid engine and the interpreter, each pinned by
//! four values in [`GOLDEN`]:
//!
//! * the fingerprint of its configuration — FNV-1a of
//!   `name;key=value;…` over the probe's settings, in a fixed order;
//! * an FNV-1a hash of its response bytes (JSON lines for the serving
//!   probes, the report JSON for the grid sweep, one summary line per
//!   run for the interpreter replay);
//! * the reference builds [`CollectionAudit`] counted while it ran (the
//!   grid sweep builds one per workload, the serving probes one per
//!   cached pair);
//! * its request (or grid-cell, or run) count.
//!
//! A refactor or optimization that moves one response byte, or builds
//! one reference more or fewer, fails here. Two cross-checks ride
//! along: the four probes of the shared zipfian stream (pipelined
//! intake, v1 TCP, v2 framing, a warm restart on a snapshot directory)
//! must hash equal, and a warm restart and pure interpreter replay must
//! build no reference at all.
//!
//! There is no regeneration switch. A failure prints the observed row
//! in hex; after a deliberate semantic change, copy it over the row in
//! [`GOLDEN`] and record why in CHANGES.md.
//!
//! [`CollectionAudit`] counts process-wide, so every test in this binary
//! serializes on [`GUARD`].

use countertrust::grid::GridRunner;
use countertrust::methods::MethodOptions;
use countertrust::serve::net::{exchange, NetOptions};
use countertrust::serve::proto::exchange_v2;
use countertrust::serve::{Catalog, CatalogRegistry, EvalRequest, EvalService, PipelineOptions};
use countertrust::store::checksum;
use ct_bench::streams::{request_stream, to_wire, StreamConfig, StreamPattern, MIXED_COLD_CATALOG};
use ct_bench::workload_specs;
use ct_instrument::CollectionAudit;
use ct_sim::MachineModel;
use ct_workloads::Workload;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, PoisonError};
use support::with_server;

#[path = "support/loopback.rs"]
mod support;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per probe: name, config fingerprint, response hash, reference
/// builds and requests.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, u64, u64); 8] = [
    ("grid_sweep", 0x7889_7164_1978_96e0, 0xaec7_8d00_e349_2c6e, 4, 12),
    ("serve_batched", 0x308d_08f8_3fb1_1771, 0xfc0e_b0eb_c33d_f48f, 3, 24),
    ("serve_pipelined", 0xba1f_20ad_3322_e503, 0x5914_297d_86c1_dbd1, 9, 24),
    ("tcp_loopback", 0x5573_759e_96c8_67ea, 0x5914_297d_86c1_dbd1, 9, 24),
    ("v2_loopback", 0x1d2f_c9f4_8d50_0a23, 0x5914_297d_86c1_dbd1, 9, 24),
    ("mixed_tenant_zipfian", 0x76d8_efd0_6bb2_613c, 0x1904_91cb_9389_33b5, 9, 24),
    ("warm_start", 0x1648_0774_ad09_c9a4, 0x5914_297d_86c1_dbd1, 0, 24),
    ("sim_replay", 0x680c_e14a_1132_2629, 0x74d0_8dec_254f_4431, 0, 24),
];

const SCALE: f64 = 0.01;
const SEED: u64 = 1_000;
const REQUESTS: usize = 24;
/// Batch size of the batched probe and chunk size of the pipelined ones.
const BATCH: usize = 8;

/// What one probe observed, in [`GOLDEN`] column order.
#[derive(Debug, Clone, Copy)]
struct Observed {
    config: u64,
    response_hash: u64,
    reference_builds: u64,
    requests: u64,
}

/// Runs `probe` under a collection audit. `probe` returns the bytes to
/// hash and the request count.
fn audited(
    name: &str,
    config: &[(&str, String)],
    probe: impl FnOnce() -> (String, usize),
) -> Observed {
    let mut text = String::from(name);
    for (key, value) in config {
        write!(text, ";{key}={value}").expect("writing to a String never fails");
    }
    let audit = CollectionAudit::begin();
    let (bytes, requests) = probe();
    Observed {
        config: checksum(text.as_bytes()),
        response_hash: checksum(bytes.as_bytes()),
        reference_builds: audit.collections(),
        requests: requests as u64,
    }
}

/// Asserts `o` is `name`'s row of [`GOLDEN`], printing the observed row
/// in hex when it is not.
fn assert_pinned(name: &str, o: Observed) {
    let row = (
        name,
        o.config,
        o.response_hash,
        o.reference_builds,
        o.requests,
    );
    assert!(
        GOLDEN.contains(&row),
        "{name} drifted from its GOLDEN row; observed: \
         (\"{name}\", 0x{:016x}, 0x{:016x}, {}, {})",
        o.config,
        o.response_hash,
        o.reference_builds,
        o.requests
    );
}

/// The settings every stream probe shares, first in its config.
fn stream_config(
    pattern: StreamPattern,
    extra: &[(&'static str, String)],
) -> Vec<(&'static str, String)> {
    let mut config = vec![
        ("pattern", pattern.name().to_string()),
        ("requests", REQUESTS.to_string()),
        ("seed", SEED.to_string()),
        ("runs", "1".to_string()),
        ("scale", SCALE.to_string()),
        ("opts", "fast".to_string()),
        ("threads", "1".to_string()),
    ];
    config.extend_from_slice(extra);
    config
}

/// The paper machines over the kernel set with fast method options.
struct Fixture {
    machines: Vec<MachineModel>,
    workloads: Vec<Workload>,
    opts: MethodOptions,
}

impl Fixture {
    fn new() -> Self {
        Self {
            machines: MachineModel::paper_machines(),
            workloads: ct_workloads::kernel_set(SCALE),
            opts: MethodOptions::fast(),
        }
    }

    fn stream(&self, pattern: StreamPattern) -> Vec<EvalRequest> {
        let config = StreamConfig {
            pattern,
            requests: REQUESTS,
            seed: SEED,
            runs: 1,
        };
        request_stream(&self.machines, &self.workloads, &self.opts, &config)
    }

    /// A one-thread service over the fixture's catalog, with a second
    /// copy registered as the cold tenant when `pattern` names one.
    fn service(&self, pattern: StreamPattern, capacity: usize) -> EvalService {
        let specs = workload_specs(&self.workloads);
        let catalog = || Catalog::new(&self.machines, &specs).method_options(self.opts);
        let mut registry = CatalogRegistry::new(catalog());
        if pattern.is_multi_tenant() {
            registry = registry.register(MIXED_COLD_CATALOG, catalog());
        }
        EvalService::with_registry(registry)
            .threads(1)
            .cache_capacity(capacity)
    }

    /// [`Fixture::service`] with an unbounded cache.
    fn plain_service(&self, pattern: StreamPattern) -> EvalService {
        self.service(pattern, 0)
    }
}

fn serve_pipelined(
    service: &EvalService,
    requests: &[EvalRequest],
    pipeline: &PipelineOptions,
) -> String {
    let mut out = Vec::new();
    let stats = service
        .serve_pipelined(to_wire(requests).as_bytes(), &mut out, pipeline)
        .expect("in-memory pipeline never hits I/O errors");
    assert_eq!(stats.parse_errors, 0, "generated streams are well-formed");
    String::from_utf8(out).expect("responses are UTF-8")
}

/// Serves `service` on a one-connection loopback listener while
/// `client` talks to it, then shuts the listener down.
fn over_loopback(
    service: &EvalService,
    pipeline: PipelineOptions,
    client: impl FnOnce(SocketAddr) -> String,
) -> String {
    let options = NetOptions::new().pipeline(pipeline).max_connections(1);
    with_server(service, options, client).0
}

#[test]
fn grid_sweep_probe_is_pinned() {
    let _guard = lock();
    let fx = Fixture::new();
    let specs = workload_specs(&fx.workloads);
    let config = vec![
        ("grid", "kernels".to_string()),
        ("repeats", "1".to_string()),
        ("seed", SEED.to_string()),
        ("scale", SCALE.to_string()),
        ("opts", "fast".to_string()),
        ("threads", "1".to_string()),
    ];
    let observed = audited("grid_sweep", &config, || {
        let evals =
            GridRunner::new()
                .threads(1)
                .run_standard(&fx.machines, &specs, &fx.opts, 1, SEED);
        (countertrust::report::to_json(&evals), evals.len())
    });
    assert_pinned("grid_sweep", observed);
}

#[test]
fn serve_batched_probe_is_pinned() {
    let _guard = lock();
    let fx = Fixture::new();
    let requests = fx.stream(StreamPattern::Hot);
    let service = fx.plain_service(StreamPattern::Hot);
    let config = stream_config(StreamPattern::Hot, &[]);
    let observed = audited("serve_batched", &config, || {
        let jsonl: String = requests
            .chunks(BATCH)
            .map(|chunk| service.serve_jsonl(chunk))
            .collect();
        (jsonl, REQUESTS)
    });
    assert_pinned("serve_batched", observed);
}

#[test]
fn zipfian_probes_are_pinned_and_agree_across_transports_and_restarts() {
    let _guard = lock();
    let fx = Fixture::new();
    let zipf = StreamPattern::Zipfian;
    let requests = fx.stream(zipf);
    let wire = to_wire(&requests);
    let pipeline = PipelineOptions::new().chunk(BATCH);
    let config = |extra: &[(&'static str, String)]| {
        let pipelined = [("chunk", BATCH.to_string())];
        stream_config(zipf, &[pipelined.as_slice(), extra].concat())
    };

    let service = fx.plain_service(zipf);
    let in_memory = audited("serve_pipelined", &config(&[]), || {
        (serve_pipelined(&service, &requests, &pipeline), REQUESTS)
    });

    let tcp_config = config(&[("connections", "1".to_string())]);
    let service = fx.plain_service(zipf);
    let tcp = audited("tcp_loopback", &tcp_config, || {
        let response = over_loopback(&service, pipeline, |addr| {
            exchange(addr, &wire).expect("loopback exchange")
        });
        (response, REQUESTS)
    });

    let v2_config = config(&[("proto", "v2".to_string()), ("streams", "1".to_string())]);
    let service = fx.plain_service(zipf);
    let v2 = audited("v2_loopback", &v2_config, || {
        let response = over_loopback(&service, pipeline, |addr| {
            let mut streams = exchange_v2(addr, std::slice::from_ref(&wire)).expect("v2 exchange");
            streams.pop().expect("one stream, one response")
        });
        (response, REQUESTS)
    });

    // A throwaway service fills the snapshot directory through
    // write-behind, unaudited; a fresh service on the same directory is
    // the probe. The directory is not part of the config.
    let dir = std::env::temp_dir().join(format!("ctstore_golden_probe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot_service = || fx.plain_service(zipf).snapshot_dir(&dir);
    let _ = serve_pipelined(&snapshot_service(), &requests, &pipeline);
    let warm_config = config(&[("snapshot", "warm".to_string())]);
    let service = snapshot_service();
    let warm = audited("warm_start", &warm_config, || {
        (serve_pipelined(&service, &requests, &pipeline), REQUESTS)
    });
    let _ = std::fs::remove_dir_all(&dir);

    for (name, other) in [
        ("tcp_loopback", tcp),
        ("v2_loopback", v2),
        ("warm_start", warm),
    ] {
        assert_eq!(
            other.response_hash, in_memory.response_hash,
            "{name} must serve the same bytes as in-memory pipelined intake"
        );
    }
    assert_eq!(
        warm.reference_builds, 0,
        "a warm restart re-runs no reference"
    );
    assert_pinned("serve_pipelined", in_memory);
    assert_pinned("tcp_loopback", tcp);
    assert_pinned("v2_loopback", v2);
    assert_pinned("warm_start", warm);
}

#[test]
fn mixed_tenant_probe_is_pinned() {
    let _guard = lock();
    let fx = Fixture::new();
    let mixed = StreamPattern::Mixed;
    let capacity = 16;
    let requests = fx.stream(mixed);
    let service = fx.service(mixed, capacity);
    let pipeline = PipelineOptions::new().chunk(BATCH);
    let config = stream_config(
        mixed,
        &[
            ("capacity", capacity.to_string()),
            ("chunk", BATCH.to_string()),
        ],
    );
    let observed = audited("mixed_tenant_zipfian", &config, || {
        (serve_pipelined(&service, &requests, &pipeline), REQUESTS)
    });
    assert_pinned("mixed_tenant_zipfian", observed);
}

#[test]
fn sim_replay_probe_is_pinned() {
    let _guard = lock();
    let fx = Fixture::new();
    const REPLAYS: usize = 2;
    let config = vec![
        ("grid", "kernels".to_string()),
        ("replays", REPLAYS.to_string()),
        ("scale", SCALE.to_string()),
        ("threads", "1".to_string()),
    ];
    // Each run's full summary goes into the hash, so one counter drifting
    // anywhere in the interpreter core moves it. One retained `Cpu` per
    // machine: its scratch tables are reused after the first run.
    let observed = audited("sim_replay", &config, || {
        let mut digest = String::new();
        let mut runs = 0;
        for machine in &fx.machines {
            let mut cpu = ct_sim::Cpu::new(machine);
            for w in &fx.workloads {
                for _ in 0..REPLAYS {
                    let s = cpu
                        .run_silent(&w.program, &w.run_config)
                        .expect("registry kernels run to completion");
                    runs += 1;
                    writeln!(
                        digest,
                        "{};{};{};{};{};{};{};{};{};{};{};{:?}",
                        machine.name,
                        w.name,
                        s.instructions,
                        s.uops,
                        s.cycles,
                        s.taken_branches,
                        s.mispredicts,
                        s.bp_lookups,
                        s.l1_hits,
                        s.l2_hits,
                        s.mem_accesses,
                        s.result,
                    )
                    .expect("writing to a String never fails");
                }
            }
        }
        (digest, runs)
    });
    assert_eq!(
        observed.reference_builds, 0,
        "pure replay collects no reference"
    );
    assert_pinned("sim_replay", observed);
}

mod cache_audit {
    //! The "at most one reference collection per distinct pair" claim on
    //! a cache hammered by several threads, asserted against the
    //! process-global [`CollectionAudit`] counter.

    use countertrust::cache::{PairKey, PairParts, ProfileCache};
    use ct_instrument::CollectionAudit;
    use ct_isa::{asm::assemble, Cfg, Program};
    use ct_sim::{MachineModel, RunConfig};
    use std::sync::Arc;

    fn kernel() -> Program {
        assemble(
            "k",
            r#"
            .func main
                movi r1, 2000
            top:
                addi r2, r2, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap()
    }

    #[test]
    fn concurrent_cache_collects_each_pair_at_most_once() {
        let _guard = super::lock();
        let program = kernel();
        let machine = MachineModel::ivy_bridge();
        let cache = ProfileCache::unbounded();
        let audit = CollectionAudit::begin();
        const THREADS: usize = 6;
        const DISTINCT: usize = 5;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let (program, machine, cache) = (&program, &machine, &cache);
                scope.spawn(move || {
                    for round in 0..3 {
                        for w in 0..DISTINCT {
                            let key = PairKey::new(0, round % 2, w);
                            cache
                                .get_or_build(key, || {
                                    let cfg = Arc::new(Cfg::build(program));
                                    PairParts::collect(machine, program, &RunConfig::default(), cfg)
                                })
                                .unwrap();
                        }
                    }
                });
            }
        });
        // 2 catalog-0 machine indices × DISTINCT workloads were touched.
        let distinct_pairs = (2 * DISTINCT) as u64;
        assert_eq!(
            audit.collections(),
            distinct_pairs,
            "every extra collection is a duplicated instrumented execution"
        );
        assert_eq!(cache.stats().builds, distinct_pairs);
    }
}
