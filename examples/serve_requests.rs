//! Multi-tenant serving in miniature: two named catalogs behind one
//! shared LRU profile cache, JSON-lines requests streamed through the
//! chunked intake (read a chunk → plan(registry) → attach → evaluate →
//! emit) with per-request latency stamping, and the per-tenant
//! accounting printed last. A coda serves the same service over TCP
//! and drives it with a keep-alive protocol-v2 client multiplexing two
//! logical streams on one connection.
//!
//! ```text
//! cargo run --release -p countertrust --example serve_requests
//! ```

use countertrust::methods::MethodOptions;
use countertrust::serve::{Catalog, CatalogRegistry, EvalService, PipelineOptions};
use ct_bench_shim::workload_specs;
use ct_sim::MachineModel;

/// The bench crate owns the full stream generators; this example stays
/// dependency-light and inlines the one helper it needs.
mod ct_bench_shim {
    use countertrust::grid::WorkloadSpec;
    use ct_workloads::Workload;

    pub fn workload_specs(workloads: &[Workload]) -> Vec<WorkloadSpec<'_>> {
        workloads
            .iter()
            .map(|w| WorkloadSpec {
                name: &w.name,
                program: &w.program,
                run_config: &w.run_config,
            })
            .collect()
    }
}

fn main() {
    // Tenant "default": the full paper matrix over the kernel set.
    let machines = MachineModel::paper_machines();
    let kernels = ct_workloads::kernel_set(0.02);
    let kernel_specs = workload_specs(&kernels);

    // Tenant "apps": Intel-only machines over the application proxies —
    // same registry, its own method options, sharing the one cache.
    let intel = MachineModel::intel_machines();
    let apps = ct_workloads::applications(0.01);
    let app_specs = workload_specs(&apps);

    let registry = CatalogRegistry::new(Catalog::new(&machines, &kernel_specs))
        .register(
            "apps",
            Catalog::new(&intel, &app_specs).method_options(MethodOptions::fast()),
        );

    // What clients send over the wire: one JSON request per line. Lines
    // 1–2 hit the default catalog (no `catalog` field — the pre-registry
    // wire format), line 3 is not JSON at all, line 4 names a catalog
    // nobody registered, and lines 5–6 are tenant traffic for "apps".
    // Every failure comes back as an in-order error response; the
    // pipeline keeps draining.
    let wire = r#"
{"machine":"Ivy Bridge (Xeon E3-1265L)","workload":"callchain","method":"lbr","runs":3,"seed":7}
{"machine":"Ivy Bridge (Xeon E3-1265L)","workload":"callchain","method":"classic","runs":3,"seed":7}
this line is not a request at all
{"machine":"Ivy Bridge (Xeon E3-1265L)","workload":"callchain","method":"lbr","runs":1,"seed":7,"catalog":"nope"}
{"machine":"Westmere (Xeon X5650)","workload":"mcf","method":"precise","runs":2,"seed":9,"catalog":"apps"}
{"machine":"Ivy Bridge (Xeon E3-1265L)","workload":"povray","method":"lbr","runs":1,"seed":5,"catalog":"apps"}
"#;

    // Both tenants share one 8-slot LRU cache; its capacity changes build
    // counts, never a response byte.
    let service = EvalService::with_registry(registry)
        .method_options(MethodOptions::fast())
        .cache_capacity(8);

    // Requests flow straight from the reader, one chunk at a time: each
    // chunk is read, then its references attach and its requests
    // evaluate across the worker threads before the next chunk is read.
    // Latency stamping adds queue/build/eval micros to every response
    // (and makes the output wall-clock-dependent — leave it off when
    // byte-identity matters).
    println!("# responses");
    let mut stdout = std::io::stdout().lock();
    let pipeline = service
        .serve_pipelined(
            wire.as_bytes(),
            &mut stdout,
            &PipelineOptions::new().chunk(2).record_latency(true),
        )
        .expect("stdout accepts responses");
    drop(stdout);

    let stats = service.stats();
    let cache = service.cache_stats();
    println!("# accounting");
    println!(
        "catalogs {:?} | lines {} | requests {} | parse errors {} | chunks {}",
        service.registry().names().collect::<Vec<_>>(),
        pipeline.lines,
        pipeline.requests,
        pipeline.parse_errors,
        pipeline.chunks
    );
    println!(
        "requests {} | cache hits {} | builds {} | errors {} | hit rate {:.0}%",
        stats.requests,
        stats.cache_hits,
        stats.builds,
        stats.errors,
        stats.hit_rate() * 100.0
    );
    println!(
        "latency p50 {} µs | p99 {} µs over {} timed requests",
        stats.latency_p50_us, stats.latency_p99_us, stats.timed_requests
    );
    for tenant in &stats.tenants {
        println!(
            "tenant {:<7} requests {} | hit rate {:.0}% | p99 {} µs | errors {}",
            tenant.catalog,
            tenant.requests,
            tenant.hit_rate() * 100.0,
            tenant.latency_p99_us,
            tenant.errors
        );
    }
    println!("cache: {cache}");

    // --- Protocol v2 coda: the same service behind a socket --------------
    // One keep-alive connection carries two logical streams of tagged
    // frames — tenant traffic for "apps" on stream 0, default-catalog
    // traffic on stream 1. Within a stream, responses come back in
    // request order and are byte-identical to what a plain v1 connection
    // carrying that stream's lines would return (the server negotiates
    // the protocol per connection; v1 clients need no changes).
    use countertrust::serve::net::{EvalServer, NetOptions};
    use countertrust::serve::proto::exchange_v2;

    let server = EvalServer::listen("127.0.0.1:0", NetOptions::default())
        .expect("loopback listener binds");
    let addr = server.local_addr();
    let handle = server.handle();
    let streams = [
        concat!(
            r#"{"machine":"Westmere (Xeon X5650)","workload":"mcf","method":"precise","runs":2,"seed":9,"catalog":"apps"}"#,
            "\n",
            r#"{"machine":"Ivy Bridge (Xeon E3-1265L)","workload":"povray","method":"lbr","runs":1,"seed":5,"catalog":"apps"}"#,
            "\n"
        )
        .to_string(),
        concat!(
            r#"{"machine":"Ivy Bridge (Xeon E3-1265L)","workload":"callchain","method":"classic","runs":3,"seed":7}"#,
            "\n"
        )
        .to_string(),
    ];
    let replies = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&service));
        let replies = exchange_v2(addr, &streams).expect("v2 loopback exchange");
        handle.shutdown();
        serving
            .join()
            .expect("server thread")
            .expect("accept loop stays clean");
        replies
    });
    println!(
        "# protocol v2: one keep-alive connection, {} multiplexed streams",
        streams.len()
    );
    for (s, reply) in replies.iter().enumerate() {
        for line in reply.lines() {
            println!("stream {s}: {line}");
        }
    }

    // --- Data-catalog coda: a directory served as a tenant ---------------
    // Workloads are data: author a `.ctasm` source and a JSON manifest,
    // register the directory on the service, and it becomes a tenant
    // catalog (named after the directory) — assembled, size-checked and
    // rejected with typed errors *before* anything is served. Requests
    // address it with `"catalog":"<dirname>"`.
    use countertrust::serve::net::exchange;

    let dir = std::env::temp_dir().join(format!("ct_example_catalog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(
        dir.join("00_spin.json"),
        r#"{
  "name": "spin",
  "class": "kernel",
  "source": "00_spin.ctasm",
  "scaled": { "N": { "base": 40000, "min": 100 } }
}
"#,
    )
    .expect("manifest");
    std::fs::write(
        dir.join("00_spin.ctasm"),
        "; A counted loop, sized by the manifest's scaled constant.\n\
         .const N = 40000\n\
         .func main\n    movi r1, N\ntop:\n    addi r2, r2, 1\n    subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n",
    )
    .expect("source");
    let tenant = dir.file_name().unwrap().to_string_lossy().into_owned();

    // A malformed catalog errors out here, not at request time.
    let service = service
        .workload_dir(&dir, 0.5)
        .expect("catalog directory is well-formed");
    let server = EvalServer::listen("127.0.0.1:0", NetOptions::default())
        .expect("loopback listener binds");
    let addr = server.local_addr();
    let handle = server.handle();
    let wire = format!(
        "{{\"machine\":\"Ivy Bridge (Xeon E3-1265L)\",\"workload\":\"spin\",\"method\":\"classic\",\"runs\":2,\"seed\":11,\"catalog\":\"{tenant}\"}}\n"
    );
    let reply = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&service));
        let reply = exchange(addr, &wire).expect("loopback exchange");
        handle.shutdown();
        serving
            .join()
            .expect("server thread")
            .expect("accept loop stays clean");
        reply
    });
    println!("# data catalog: directory {tenant:?} served as a tenant");
    for line in reply.lines() {
        println!("{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
