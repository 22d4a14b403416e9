//! Serving-mode benchmark: drives the evaluation service
//! ([`countertrust::serve::EvalService`]) with a synthetic JSON-lines
//! request stream — batched or through the chunked JSON-lines intake — and
//! reports throughput, cache hit rate and latency percentiles.
//!
//! ```text
//! cargo run --release -p ct-bench --bin serve_bench -- \
//!     [--pattern hot|cold|zipfian|mixed] [--requests N] [--batch N] \
//!     [--chunk N] [--admission lru|freq] \
//!     [--capacity N] [--quota N] [--fairness fcfs|weighted] [--runs N] \
//!     [--scale F] [--seed N] [--threads N] [--record-latency] \
//!     [--listen ADDR] [--connect ADDR|self] [--connections N] \
//!     [--proto v1|v2] [--snapshot-dir DIR] [--workload-dir DIR] [--smoke]
//! ```
//!
//! `--workload-dir DIR` swaps the compiled-in workload catalog for one
//! compiled at startup from a directory of `.ctasm` + manifest pairs
//! (`countertrust` loads it through `ct_workloads::loader`, the same
//! path the registry's embedded built-ins take). Every downstream knob —
//! stream generation, smoke replicas, network modes — then serves that
//! catalog, so `--smoke --workload-dir crates/workloads/programs` must
//! produce stdout byte-identical to plain `--smoke`: the CI proof that a
//! data catalog served from disk answers exactly like the compiled-in
//! one. A malformed directory is rejected with the loader's typed error
//! before any request is generated.
//!
//! `--snapshot-dir DIR` backs the reference-profile cache with the
//! on-disk snapshot store (`countertrust::store`): cold builds write
//! validated snapshots behind, later runs on the same directory
//! warm-start — zero instrumented executions (see the audited
//! `reference runs` summary line), byte-identical output. Under
//! `--smoke` the determinism replicas share the directory, so the
//! byte-compares double as a warm-vs-cold identity proof.
//!
//! `--pattern mixed` generates the two-tenant interference stream (90%
//! hot default-catalog zipfian, 10% cold `tenant-b` zipfian) and
//! registers the second catalog automatically; `--quota N` caps each
//! tenant's resident cache entries (0 = unlimited) and `--fairness
//! weighted` interleaves plan/build/evaluate work round-robin across
//! tenants. The summary then adds a per-tenant breakdown (requests, hit
//! rate, errors, and p99 latency under `--record-latency`). Neither knob
//! changes response bytes.
//!
//! Responses go to **stdout** as JSON lines (one per request, in request
//! order) and are byte-identical for any `--threads N`, `--capacity N`,
//! `--admission` and `--chunk N`; all
//! timing-dependent numbers (the summary) go to **stderr**.
//! `--capacity 0` (the default) is an unbounded cache. Loopback mode is
//! the one caveat to stdout ordering: the stream is split round-robin
//! across connections and printed as whole per-connection groups, so
//! stdout is a (deterministic) permutation of request order — the
//! byte-identity contract holds *per connection*, against the offline
//! pipelined run of that connection's sub-stream.
//!
//! `--chunk N` (N ≥ 1) switches from batched serving to JSON-lines
//! intake: the stream is serialized to its wire form and read back by
//! `serve_pipelined`, which reads N lines, answers them, then reads the
//! next N. The network modes always serve that way, N defaulting to
//! `--batch`.
//! `--record-latency` additionally stamps each pipelined response with
//! its queue/build/eval micros and reports p50/p99 per-request latency
//! (opting out of byte-identity — latency is wall clock).
//!
//! Network modes (`countertrust::serve::net`):
//!
//! * `--listen ADDR --connect self` — loopback benchmark: binds ADDR
//!   (port 0 for ephemeral), serves the catalog over TCP, and drives the
//!   generated stream through `--connections N` concurrent client
//!   connections against its own listener. Each connection's response
//!   stream is verified byte-for-byte against a fresh offline pipelined
//!   run of the same sub-stream (skipped under `--record-latency`).
//! * `--listen ADDR` alone — serves forever (kill to stop).
//! * `--connect ADDR` alone — client mode: streams the generated
//!   requests to a remote server and prints its responses.
//!
//! `--proto v2` switches the client side to the keep-alive multiplexed
//! wire protocol: loopback mode opens ONE connection carrying
//! `--connections` logical streams (the same round-robin split v1 spreads
//! over N connections), and client mode multiplexes the stream the same
//! way. The server needs no flag — it auto-negotiates per connection via
//! the version preamble. Byte-identity is verified per *stream* exactly
//! as v1 verifies per connection.
//!
//! `--smoke` runs a small stream across batched, single-threaded, wide
//! and pipelined services and fails loudly if any output differs, so CI
//! exercises the whole serving path (stream generation, sharding, cache,
//! pipeline, JSON — and with `--listen --connect self`, the TCP intake)
//! on every push.

use countertrust::cache::{AdmissionPolicy, CacheQuotas};
use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::net::{exchange, EvalServer, NetOptions};
use countertrust::serve::proto::exchange_v2;
use countertrust::serve::{
    Catalog, CatalogRegistry, EvalRequest, EvalService, FairnessPolicy, PipelineOptions,
};
use ct_bench::streams::{
    distinct_pairs, percentile, request_stream, to_wire, StreamConfig, StreamPattern,
    MIXED_COLD_CATALOG,
};
use ct_bench::{workload_specs, CliOptions};
use ct_instrument::CollectionAudit;
use ct_sim::MachineModel;
use std::time::Instant;

struct ServeCli {
    base: CliOptions,
    pattern: StreamPattern,
    requests: usize,
    batch: usize,
    /// Intake chunk size; `Some` switches local mode to JSON-lines
    /// intake. Defaults to `--batch`.
    chunk: Option<usize>,
    admission: AdmissionPolicy,
    capacity: usize,
    /// Per-tenant cache residency cap (`0` = unlimited).
    quota: usize,
    /// Cross-tenant scheduling inside each chunk.
    fairness: FairnessPolicy,
    runs: usize,
    record_latency: bool,
    /// Bind address for TCP serving (`0` port = ephemeral).
    listen: Option<String>,
    /// Peer address for client mode, or `self` for loopback against our
    /// own listener.
    connect: Option<String>,
    /// Concurrent client connections in loopback mode.
    connections: usize,
    /// Client wire protocol: `false` = one v1 connection per sub-stream,
    /// `true` = one keep-alive v2 connection multiplexing them all.
    proto_v2: bool,
    /// Snapshot-store directory backing the profile cache
    /// (`countertrust::store`); `None` = no persistence.
    snapshot_dir: Option<String>,
    /// Directory of `.ctasm` + manifest pairs replacing the compiled-in
    /// workload catalog; `None` = serve the registry built-ins.
    workload_dir: Option<String>,
    smoke: bool,
}

/// Parses a count flag that must be ≥ 1, matching the `--threads`
/// convention from PR 1: a zero or negative value is **rejected** by
/// clamping to 1 with a warning (silently keeping the default would make
/// `--chunk 0` fall back to batched mode behind the user's back); a
/// non-numeric value warns and keeps the current setting.
fn parse_positive_count(flag: &str, raw: &str) -> Option<usize> {
    match raw.parse::<i128>() {
        Ok(n) if n <= 0 => {
            eprintln!("warning: rejecting {flag} {n} (must be >= 1); clamping to 1");
            Some(1)
        }
        Ok(n) => Some(usize::try_from(n).unwrap_or(usize::MAX)),
        Err(_) => {
            eprintln!("warning: ignoring invalid value {raw:?} for {flag}");
            None
        }
    }
}

/// Whether this CLI combination would silently drop `--fairness`:
/// weighted scheduling lives in the serving side's chunk loop, so it
/// has no effect in local batched mode (no `--chunk`) or in pure client
/// mode (`--connect` without `--listen`, where the remote server's
/// options govern scheduling). Any `--listen` mode serves through the
/// chunk loop and applies it.
fn fairness_needs_pipeline(cli: &ServeCli) -> bool {
    if cli.fairness == FairnessPolicy::Fcfs || cli.listen.is_some() {
        return false;
    }
    // Local batched mode, or client-only mode.
    cli.connect.is_some() || cli.chunk.is_none()
}

fn parse(args: &[String]) -> ServeCli {
    let mut cli = ServeCli {
        base: CliOptions::parse(args),
        pattern: StreamPattern::Zipfian,
        requests: 500,
        batch: 64,
        chunk: None,
        admission: AdmissionPolicy::Lru,
        capacity: 0,
        quota: 0,
        fairness: FairnessPolicy::Fcfs,
        runs: 1,
        record_latency: false,
        listen: None,
        connect: None,
        connections: 4,
        proto_v2: false,
        snapshot_dir: None,
        workload_dir: None,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        // Consumes the flag's value, advancing past it (mirrors
        // CliOptions::parse, so a value is never re-read as a flag).
        let take = |i: &mut usize| -> Option<&String> {
            *i += 1;
            args.get(*i)
        };
        match args[i].as_str() {
            "--pattern" => {
                if let Some(v) = take(&mut i) {
                    match StreamPattern::parse(v) {
                        Some(p) => cli.pattern = p,
                        None => eprintln!(
                            "warning: unknown --pattern {v:?}; keeping {}",
                            cli.pattern.name()
                        ),
                    }
                }
            }
            "--requests" => {
                if let Some(v) = take(&mut i) {
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => cli.requests = n,
                        _ => eprintln!("warning: ignoring invalid --requests {v:?}"),
                    }
                }
            }
            "--batch" => {
                if let Some(v) = take(&mut i) {
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => cli.batch = n,
                        _ => eprintln!("warning: ignoring invalid --batch {v:?}"),
                    }
                }
            }
            "--chunk" => {
                if let Some(v) = take(&mut i) {
                    if let Some(n) = parse_positive_count("--chunk", v) {
                        cli.chunk = Some(n);
                    }
                }
            }
            "--admission" => {
                if let Some(v) = take(&mut i) {
                    match AdmissionPolicy::parse(v) {
                        Some(p) => cli.admission = p,
                        None => eprintln!(
                            "warning: unknown --admission {v:?}; keeping {}",
                            cli.admission.name()
                        ),
                    }
                }
            }
            "--capacity" => {
                if let Some(v) = take(&mut i) {
                    match v.parse::<usize>() {
                        Ok(n) => cli.capacity = n,
                        Err(_) => eprintln!("warning: ignoring invalid --capacity {v:?}"),
                    }
                }
            }
            "--quota" => {
                if let Some(v) = take(&mut i) {
                    match v.parse::<usize>() {
                        // 0 is meaningful here: it lifts the cap.
                        Ok(n) => cli.quota = n,
                        Err(_) => eprintln!("warning: ignoring invalid --quota {v:?}"),
                    }
                }
            }
            "--fairness" => {
                if let Some(v) = take(&mut i) {
                    match FairnessPolicy::parse(v) {
                        Some(p) => cli.fairness = p,
                        None => eprintln!(
                            "warning: unknown --fairness {v:?}; keeping {}",
                            cli.fairness.name()
                        ),
                    }
                }
            }
            "--runs" => {
                if let Some(v) = take(&mut i) {
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => cli.runs = n,
                        _ => eprintln!("warning: ignoring invalid --runs {v:?}"),
                    }
                }
            }
            "--record-latency" => cli.record_latency = true,
            "--listen" => {
                if let Some(v) = take(&mut i) {
                    cli.listen = Some(v.clone());
                }
            }
            "--connect" => {
                if let Some(v) = take(&mut i) {
                    cli.connect = Some(v.clone());
                }
            }
            "--connections" => {
                if let Some(v) = take(&mut i) {
                    if let Some(n) = parse_positive_count("--connections", v) {
                        cli.connections = n;
                    }
                }
            }
            "--proto" => {
                if let Some(v) = take(&mut i) {
                    match v.as_str() {
                        "v1" => cli.proto_v2 = false,
                        "v2" => cli.proto_v2 = true,
                        _ => eprintln!(
                            "warning: unknown --proto {v:?} (expected v1 or v2); keeping {}",
                            if cli.proto_v2 { "v2" } else { "v1" }
                        ),
                    }
                }
            }
            "--snapshot-dir" => {
                if let Some(v) = take(&mut i) {
                    cli.snapshot_dir = Some(v.clone());
                }
            }
            "--workload-dir" => {
                if let Some(v) = take(&mut i) {
                    cli.workload_dir = Some(v.clone());
                }
            }
            "--smoke" => cli.smoke = true,
            _ => {}
        }
        i += 1;
    }
    cli
}

/// Builds the benchmark service: a single default catalog — plus the
/// cold [`MIXED_COLD_CATALOG`] tenant when the stream pattern is
/// multi-tenant — with the capacity/admission/quota knobs applied.
/// Every mode (batched, pipelined, smoke replicas, networked) constructs
/// its services here so the catalogs can never drift apart.
#[allow(clippy::too_many_arguments)]
fn build_service<'a>(
    pattern: StreamPattern,
    machines: &'a [MachineModel],
    specs: &'a [WorkloadSpec<'a>],
    opts: &MethodOptions,
    threads: usize,
    capacity: usize,
    admission: AdmissionPolicy,
    quota: usize,
) -> EvalService {
    let catalog = || Catalog::new(machines, specs).method_options(opts.clone());
    let mut registry = CatalogRegistry::new(catalog());
    if pattern.is_multi_tenant() {
        registry = registry.register(MIXED_COLD_CATALOG, catalog());
    }
    EvalService::with_registry(registry)
        .threads(threads)
        .cache_capacity(capacity)
        .admission(admission)
        .cache_quotas(CacheQuotas::per_catalog(quota))
}

/// Serves `requests` in batches, returning the JSONL output and the
/// per-request wall-clock latencies (each request's latency is its
/// batch's completion time — requests complete when their batch does).
fn drive(
    service: &EvalService,
    requests: &[EvalRequest],
    batch: usize,
) -> (String, Vec<f64>) {
    let mut jsonl = String::new();
    let mut latencies_ms = Vec::with_capacity(requests.len());
    for chunk in requests.chunks(batch) {
        let t = Instant::now();
        jsonl.push_str(&service.serve_jsonl(chunk));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies_ms.extend(std::iter::repeat(ms).take(chunk.len()));
    }
    (jsonl, latencies_ms)
}

/// Serves `requests` through the chunked intake: the stream is
/// serialized to its JSON-lines wire form and read back incrementally,
/// exactly as a network intake would deliver it.
fn drive_pipelined(
    service: &EvalService,
    requests: &[EvalRequest],
    options: &PipelineOptions,
) -> String {
    let wire = to_wire(requests);
    let mut out = Vec::new();
    let stats = service
        .serve_pipelined(wire.as_bytes(), &mut out, options)
        .expect("in-memory pipeline never hits I/O errors");
    assert_eq!(stats.parse_errors, 0, "generated streams are well-formed");
    String::from_utf8(out).expect("responses are UTF-8")
}

/// Formats an optional latency percentile (`None` when no requests ran
/// or the mode has no per-batch timings).
fn fmt_ms(p: Option<f64>) -> String {
    p.map_or_else(|| "n/a".to_string(), |ms| format!("{ms:.2} ms"))
}

/// The summary tail every mode shares — cache, hit rate, throughput and
/// latency lines, formatted once here so the batched, pipelined and
/// loopback reports cannot drift apart. `batch_latencies_ms` is empty
/// in modes without per-batch timings (the latency line then reads
/// `n/a` unless `--record-latency` supplied per-request percentiles).
fn print_summary_tail(
    service: &EvalService,
    requests: usize,
    elapsed: f64,
    record_latency: bool,
    batch_latencies_ms: &[f64],
) {
    let stats = service.stats();
    eprintln!("  cache            {}", service.cache_stats().summary());
    eprintln!(
        "  hit rate         {:.1}% ({} hits / {} builds / {} errors)",
        stats.hit_rate() * 100.0,
        stats.cache_hits,
        stats.builds,
        stats.errors
    );
    eprintln!(
        "  throughput       {:.1} req/s ({:.3} s wall)",
        requests as f64 / elapsed.max(1e-9),
        elapsed
    );
    if record_latency && stats.timed_requests > 0 {
        eprintln!(
            "  latency          p50 {} µs | p99 {} µs (per-request, queue+build+eval, {} timed)",
            stats.latency_p50_us, stats.latency_p99_us, stats.timed_requests
        );
    } else {
        eprintln!(
            "  latency          p50 {} | p99 {} (per-request, batch-completion)",
            fmt_ms(percentile(batch_latencies_ms, 0.50)),
            fmt_ms(percentile(batch_latencies_ms, 0.99))
        );
    }
    // The per-tenant breakdown only earns its lines on a multi-tenant
    // service — a single catalog would just repeat the totals.
    if stats.tenants.len() > 1 {
        for tenant in &stats.tenants {
            let p99 = if tenant.timed_requests > 0 {
                format!("p99 {} µs", tenant.latency_p99_us)
            } else {
                "p99 n/a".to_string()
            };
            eprintln!(
                "  tenant {:<9} requests {} | hit rate {:.1}% ({} hits / {} builds) | {} | errors {}",
                tenant.catalog,
                tenant.requests,
                tenant.hit_rate() * 100.0,
                tenant.cache_hits,
                tenant.builds,
                p99,
                tenant.errors
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = parse(&args);
    let mut scale = cli.base.scale;
    if cli.smoke {
        cli.requests = cli.requests.min(24);
        cli.batch = cli.batch.min(8);
        scale = scale.min(0.01);
        if cli.record_latency {
            eprintln!(
                "warning: --smoke byte-compares outputs; ignoring --record-latency"
            );
            cli.record_latency = false;
        }
    }
    if cli.proto_v2 && cli.listen.is_none() && cli.connect.is_none() {
        eprintln!(
            "warning: --proto v2 is a wire-protocol choice and has no effect in \
             local mode (add --connect, or --listen with --connect self)"
        );
    }
    if fairness_needs_pipeline(&cli) {
        eprintln!(
            "warning: --fairness {} has no effect in this mode — it applies to \
             pipelined serving (add --chunk N, or serve with --listen)",
            cli.fairness.name()
        );
    }
    let pipeline = PipelineOptions::new()
        .chunk(cli.chunk.unwrap_or(cli.batch))
        .record_latency(cli.record_latency)
        .fairness(cli.fairness);

    let machines = MachineModel::paper_machines();
    // The whole benchmark — stream generation, every replica, every
    // network mode — flows from this one catalog, so swapping in a
    // `--workload-dir` here is all it takes for the data-catalog path to
    // inherit every byte-identity check below.
    let workloads = match &cli.workload_dir {
        Some(dir) => {
            let loaded = ct_workloads::loader::load_dir(
                dir.as_str(),
                scale,
                &ct_workloads::LoaderLimits::default(),
            )
            .unwrap_or_else(|e| {
                eprintln!("serve_bench: --workload-dir {dir}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "serve_bench: workload catalog from {dir} ({} workloads)",
                loaded.len()
            );
            loaded
        }
        None => ct_workloads::all(scale),
    };
    let specs = workload_specs(&workloads);
    let opts = if cli.smoke {
        MethodOptions::fast()
    } else {
        MethodOptions::default()
    };
    let stream = request_stream(
        &machines,
        &workloads,
        &opts,
        &StreamConfig {
            pattern: cli.pattern,
            requests: cli.requests,
            seed: cli.base.seed,
            runs: cli.runs,
        },
    );

    if cli.listen.is_some() || cli.connect.is_some() {
        run_networked(&cli, &machines, &specs, &opts, &stream, &pipeline);
        return;
    }

    let service = build_service(
        cli.pattern,
        &machines,
        &specs,
        &opts,
        cli.base.threads.unwrap_or(0),
        cli.capacity,
        cli.admission,
        cli.quota,
    );
    if let Some(dir) = &cli.snapshot_dir {
        service.attach_snapshot_dir(dir.as_str());
        eprintln!("serve_bench: snapshot store at {dir}");
    }

    let audit = CollectionAudit::begin();
    let wall = Instant::now();
    let (jsonl, mut latencies) = if cli.chunk.is_some() {
        (drive_pipelined(&service, &stream, &pipeline), Vec::new())
    } else {
        drive(&service, &stream, cli.batch)
    };
    let elapsed = wall.elapsed().as_secs_f64();
    // Snapshot before the smoke re-serves below: the summary must
    // describe the main run, not the verification replays.
    let collections = audit.collections();

    if cli.smoke {
        // Re-serve the same stream on fresh single-threaded, wide and
        // pipelined services: all outputs must agree byte for byte. The
        // pipelined replica flips every fairness knob (frequency
        // admission, per-tenant quota, weighted scheduling) — none may
        // change a single output byte.
        let narrow = build_service(
            cli.pattern, &machines, &specs, &opts, 1, cli.capacity,
            AdmissionPolicy::Lru, 0,
        );
        let wide = build_service(
            cli.pattern, &machines, &specs, &opts, 8,
            1.max(cli.capacity / 2), AdmissionPolicy::Lru, 0,
        );
        let piped = build_service(
            cli.pattern, &machines, &specs, &opts, 4, cli.capacity,
            AdmissionPolicy::Frequency, 1.max(cli.quota),
        );
        if let Some(dir) = &cli.snapshot_dir {
            // The replicas share the main run's store: every replica
            // warm-starts from the snapshots the main run just wrote, so
            // the byte-compares below are also the warm==cold proof.
            narrow.attach_snapshot_dir(dir.as_str());
            wide.attach_snapshot_dir(dir.as_str());
            piped.attach_snapshot_dir(dir.as_str());
        }
        let (narrow_out, _) = drive(&narrow, &stream, cli.batch);
        let (wide_out, _) = drive(&wide, &stream, stream.len());
        let piped_out = drive_pipelined(
            &piped,
            &stream,
            &PipelineOptions::new()
                .chunk(cli.batch)
                .fairness(FairnessPolicy::Weighted),
        );
        assert_eq!(jsonl, narrow_out, "smoke: threads must not change output");
        assert_eq!(jsonl, wide_out, "smoke: batching/capacity must not change output");
        assert_eq!(
            jsonl, piped_out,
            "smoke: pipelining/admission/quotas/fairness must not change output"
        );
        eprintln!(
            "smoke: determinism contract holds across threads, batch size, capacity, \
             pipelining, admission policy, quotas and fairness"
        );
    }

    print!("{jsonl}");

    latencies.sort_by(f64::total_cmp);
    eprintln!("serve_bench summary");
    eprintln!("  pattern          {}", cli.pattern.name());
    if cli.chunk.is_some() {
        eprintln!(
            "  mode             pipelined (chunk {}, fairness {})",
            pipeline.chunk.max(1),
            pipeline.fairness.name()
        );
    } else {
        eprintln!("  mode             batched (batch {})", cli.batch);
    }
    if cli.quota > 0 {
        eprintln!("  quota            {} resident entries per tenant", cli.quota);
    }
    eprintln!(
        "  requests         {} ({} distinct pairs)",
        stream.len(),
        distinct_pairs(&stream)
    );
    eprintln!("  threads          {}", service.thread_count());
    eprintln!("  reference runs   {collections} instrumented executions (audited)");
    print_summary_tail(&service, stream.len(), elapsed, cli.record_latency, &latencies);
}

/// The TCP serving modes behind `--listen` / `--connect`.
///
/// * both flags — loopback benchmark: bind `--listen` (`--connect self`
///   by convention; the operand is otherwise ignored), drive the stream
///   through `--connections` concurrent client connections against our
///   own listener, and verify each connection's bytes against a fresh
///   offline pipelined run (unless `--record-latency` made responses
///   wall-clock-dependent);
/// * `--listen` alone — serve the catalog forever;
/// * `--connect` alone — stream the generated requests to a peer.
fn run_networked(
    cli: &ServeCli,
    machines: &[MachineModel],
    specs: &[WorkloadSpec<'_>],
    opts: &MethodOptions,
    stream: &[EvalRequest],
    pipeline: &PipelineOptions,
) {
    let service = || {
        build_service(
            cli.pattern,
            machines,
            specs,
            opts,
            cli.base.threads.unwrap_or(0),
            cli.capacity,
            cli.admission,
            cli.quota,
        )
    };

    // Snapshot persistence rides in on the server's options: the dir is
    // attached to the served service before the first accept, so a
    // restarted server on the same directory warm-starts.
    let net_options = |connections: usize| {
        let mut options = NetOptions::new().pipeline(*pipeline).max_connections(connections);
        if let Some(dir) = &cli.snapshot_dir {
            options = options.snapshot_dir(dir.as_str());
            eprintln!("serve_bench: snapshot store at {dir}");
        }
        options
    };

    match (&cli.listen, &cli.connect) {
        (Some(addr), Some(_)) => {
            let connections = cli.connections.max(1);
            let served = service();
            let server = EvalServer::listen(addr.as_str(), net_options(connections))
                .expect("--listen address must bind");
            let local = server.local_addr();
            let handle = server.handle();
            if cli.proto_v2 {
                eprintln!(
                    "serve_bench: loopback on {local}, 1 keep-alive v2 connection \
                     multiplexing {connections} streams"
                );
            } else {
                eprintln!(
                    "serve_bench: loopback on {local}, {connections} concurrent connections"
                );
            }
            // Round-robin split: connection (or v2 stream) c carries
            // requests c, c+N, …
            let subs: Vec<Vec<EvalRequest>> = (0..connections)
                .map(|c| stream.iter().skip(c).step_by(connections).cloned().collect())
                .collect();
            let wall = Instant::now();
            let (outputs, net) = std::thread::scope(|scope| {
                let serving = scope.spawn(|| server.serve(&served));
                let outputs: Vec<String> = if cli.proto_v2 {
                    let wires: Vec<String> = subs.iter().map(|sub| to_wire(sub)).collect();
                    exchange_v2(local, &wires).expect("loopback v2 exchange")
                } else {
                    let clients: Vec<_> = subs
                        .iter()
                        .map(|sub| {
                            scope.spawn(move || {
                                exchange(local, &to_wire(sub)).expect("loopback exchange")
                            })
                        })
                        .collect();
                    clients
                        .into_iter()
                        .map(|c| c.join().expect("client thread"))
                        .collect()
                };
                handle.shutdown();
                let net = serving.join().expect("server thread").expect("accept loop");
                (outputs, net)
            });
            let elapsed = wall.elapsed().as_secs_f64();

            if cli.record_latency {
                eprintln!(
                    "serve_bench: skipping byte-identity verification \
                     (--record-latency stamps responses with wall-clock micros)"
                );
            } else {
                for (c, (sub, got)) in subs.iter().zip(&outputs).enumerate() {
                    let mut expected = Vec::new();
                    service()
                        .serve_pipelined(to_wire(sub).as_bytes(), &mut expected, pipeline)
                        .expect("in-memory pipeline never hits I/O errors");
                    assert_eq!(
                        got.as_bytes(),
                        expected.as_slice(),
                        "{} {c}: TCP responses diverged from the offline pipelined run",
                        if cli.proto_v2 { "stream" } else { "connection" }
                    );
                }
                eprintln!(
                    "serve_bench: {} per-{} streams byte-identical to offline \
                     pipelined runs",
                    subs.len(),
                    if cli.proto_v2 { "stream" } else { "connection" }
                );
            }
            for output in &outputs {
                print!("{output}");
            }

            eprintln!("serve_bench summary");
            eprintln!("  pattern          {}", cli.pattern.name());
            eprintln!(
                "  mode             tcp loopback ({}, {} connections, chunk {})",
                if cli.proto_v2 { "proto v2" } else { "proto v1" },
                net.connections,
                pipeline.chunk.max(1)
            );
            eprintln!(
                "  net              {} requests | {} responses | {} parse errors | \
                 {} io errors | {} worker panics",
                net.requests, net.responses, net.parse_errors, net.io_errors,
                net.worker_panics
            );
            print_summary_tail(&served, stream.len(), elapsed, cli.record_latency, &[]);
        }
        (Some(addr), None) => {
            let served = service();
            let server = EvalServer::listen(addr.as_str(), net_options(cli.connections.max(1)))
                .expect("--listen address must bind");
            eprintln!(
                "serve_bench: serving on {} (kill to stop)",
                server.local_addr()
            );
            let net = server.serve(&served).expect("accept loop");
            eprintln!(
                "serve_bench: served {} connections ({} responses, {} io errors, \
                 {} worker panics)",
                net.connections, net.responses, net.io_errors, net.worker_panics
            );
        }
        (None, Some(addr)) => {
            let wall = Instant::now();
            let response = if cli.proto_v2 {
                // Multiplex the stream over `--connections` logical
                // streams on one keep-alive connection, mirroring the
                // loopback round-robin split.
                let connections = cli.connections.max(1);
                let wires: Vec<String> = (0..connections)
                    .map(|c| {
                        to_wire(
                            &stream
                                .iter()
                                .skip(c)
                                .step_by(connections)
                                .cloned()
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                exchange_v2(addr.as_str(), &wires)
                    .expect("--connect v2 exchange")
                    .concat()
            } else {
                exchange(addr.as_str(), &to_wire(stream)).expect("--connect exchange")
            };
            let elapsed = wall.elapsed().as_secs_f64();
            print!("{response}");
            eprintln!(
                "serve_bench: {} responses from {addr} in {elapsed:.3} s{}",
                response.lines().count(),
                if cli.proto_v2 { " (proto v2)" } else { "" }
            );
        }
        (None, None) => unreachable!("networked mode requires --listen or --connect"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn chunk_zero_is_clamped_to_one() {
        let cli = parse(&args(&["--chunk", "0"]));
        assert_eq!(cli.chunk, Some(1));
        let cli = parse(&args(&["--chunk", "-1"]));
        assert_eq!(cli.chunk, Some(1));
        let cli = parse(&args(&["--chunk", "16"]));
        assert_eq!(cli.chunk, Some(16));
        let cli = parse(&args(&["--chunk", "wide"]));
        assert_eq!(cli.chunk, None);
    }

    #[test]
    fn connections_zero_is_clamped_to_one() {
        let cli = parse(&args(&["--connections", "0"]));
        assert_eq!(cli.connections, 1);
        let cli = parse(&args(&["--connections", "-2"]));
        assert_eq!(cli.connections, 1);
        let cli = parse(&args(&["--connections", "7"]));
        assert_eq!(cli.connections, 7);
        // Non-numeric keeps the default.
        let cli = parse(&args(&["--connections", "many"]));
        assert_eq!(cli.connections, 4);
    }

    #[test]
    fn proto_flag_parses_and_defaults_to_v1() {
        let cli = parse(&args(&[]));
        assert!(!cli.proto_v2, "v1 is the default");
        let cli = parse(&args(&["--proto", "v2"]));
        assert!(cli.proto_v2);
        let cli = parse(&args(&["--proto", "v2", "--proto", "v1"]));
        assert!(!cli.proto_v2, "later flag wins");
        let cli = parse(&args(&["--proto", "v3"]));
        assert!(!cli.proto_v2, "unknown version keeps the current setting");
    }

    #[test]
    fn quota_and_fairness_flags_parse() {
        let cli = parse(&args(&["--quota", "3", "--fairness", "weighted"]));
        assert_eq!(cli.quota, 3);
        assert_eq!(cli.fairness, FairnessPolicy::Weighted);
        // Quota 0 is meaningful (unlimited), not clamped.
        let cli = parse(&args(&["--quota", "0"]));
        assert_eq!(cli.quota, 0);
        let cli = parse(&args(&["--quota", "lots", "--fairness", "unfair"]));
        assert_eq!(cli.quota, 0, "bad quota keeps the default");
        assert_eq!(cli.fairness, FairnessPolicy::Fcfs, "bad fairness keeps the default");
        let cli = parse(&args(&["--pattern", "mixed"]));
        assert_eq!(cli.pattern, StreamPattern::Mixed);
    }

    #[test]
    fn snapshot_dir_flag_parses() {
        let cli = parse(&args(&[]));
        assert_eq!(cli.snapshot_dir, None, "persistence is opt-in");
        let cli = parse(&args(&["--snapshot-dir", "/tmp/snaps"]));
        assert_eq!(cli.snapshot_dir.as_deref(), Some("/tmp/snaps"));
    }

    #[test]
    fn workload_dir_flag_parses() {
        let cli = parse(&args(&[]));
        assert_eq!(cli.workload_dir, None, "built-in catalog is the default");
        let cli = parse(&args(&["--workload-dir", "programs"]));
        assert_eq!(cli.workload_dir.as_deref(), Some("programs"));
    }

    #[test]
    fn modes_that_cannot_apply_fairness_warn_instead_of_silently_dropping_it() {
        // Weighted fairness in batched or client-only mode would be a
        // silent no-op; main() warns exactly when this predicate holds.
        assert!(fairness_needs_pipeline(&parse(&args(&["--fairness", "weighted"]))));
        assert!(
            fairness_needs_pipeline(&parse(&args(&[
                "--fairness", "weighted", "--connect", "host:7070",
            ]))),
            "client mode: the remote server's options govern scheduling"
        );
        assert!(!fairness_needs_pipeline(&parse(&args(&[
            "--fairness", "weighted", "--chunk", "2",
        ]))));
        assert!(!fairness_needs_pipeline(&parse(&args(&[
            "--fairness", "weighted", "--listen", "127.0.0.1:0",
        ]))));
        assert!(!fairness_needs_pipeline(&parse(&args(&[
            "--fairness", "weighted", "--listen", "127.0.0.1:0", "--connect", "self",
        ]))));
        assert!(!fairness_needs_pipeline(&parse(&args(&["--fairness", "fcfs"]))));
    }
}
