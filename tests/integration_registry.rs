//! Multi-catalog registry guarantees: requests without a `catalog` field
//! are served byte-identically to the pre-registry single-catalog
//! service, tenants behind one shared cache never collide (the cache key
//! is namespaced by catalog), an unknown catalog name answers as an
//! in-order error response — in both batched and pipelined modes — with
//! the stream draining on, and a tenant replaced on a serving service is
//! never answered from its old references.
//!
//! The reference-collection counter is process-global, so every test
//! serializes on [`GUARD`]: a test building references concurrently
//! would inflate an audited test's exact count (this file owns its
//! whole test binary — see `crates/core/Cargo.toml`).

use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::{
    Catalog, CatalogRegistry, EvalRequest, EvalResponse, EvalService, PipelineOptions,
    DEFAULT_CATALOG,
};
use ct_instrument::CollectionAudit;
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::{MachineModel, RunConfig};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn kernel(name: &str, n: u64) -> Program {
    assemble(
        name,
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

/// A second program under the SAME workload name, with a visibly
/// different dynamic profile — the collision bait for cache namespacing.
fn call_kernel(name: &str, n: u64) -> Program {
    assemble(
        name,
        &format!(
            r#"
            .func main
                movi r1, {n}
            top:
                call leaf
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            .func leaf
                addi r3, r3, 1
                ret
            .endfunc
        "#
        ),
    )
    .unwrap()
}

fn wire(requests: &[EvalRequest]) -> String {
    requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect()
}

/// The response's stats serialized alone — catalog-independent payload
/// equality (responses echo their request, so full lines differ when
/// only the `catalog` field differs).
fn stats_json(response: &EvalResponse) -> String {
    serde_json::to_string(&response.stats).unwrap()
}

#[test]
fn default_catalog_requests_are_byte_identical_to_single_catalog_serving() {
    let _guard = lock();
    let program = kernel("k", 10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let other_program = kernel("other", 4_000);
    let other = [WorkloadSpec {
        name: "other",
        program: &other_program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let requests = vec![
        EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 2, 1),
        EvalRequest::new("Westmere (Xeon X5650)", "k", "classic", 1, 2),
        EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "precise", 1, 3),
    ];

    let single = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(4);
    let expected = single.serve_jsonl(&requests);

    // The same requests against a multi-catalog registry (extra tenants
    // registered, default first) must produce the very same bytes — the
    // registry refactor is invisible to existing streams.
    let registry = CatalogRegistry::new(
        Catalog::new(&machines, &workloads).method_options(MethodOptions::fast()),
    )
    .register("other", Catalog::new(&machines, &other));
    let multi = EvalService::with_registry(registry).threads(2);
    assert_eq!(multi.serve_jsonl(&requests), expected);

    // Naming the default catalog explicitly changes the echoed request
    // (the wire carries the field) but not the evaluation payload.
    let named: Vec<EvalRequest> = requests
        .iter()
        .map(|r| r.clone().in_catalog(DEFAULT_CATALOG))
        .collect();
    for (explicit, implicit) in multi.serve(&named).iter().zip(multi.serve(&requests)) {
        assert_eq!(explicit.request.catalog.as_deref(), Some(DEFAULT_CATALOG));
        assert_eq!(stats_json(explicit), stats_json(&implicit));
    }

    // And the pipelined intake agrees with the batched output for the
    // default-catalog stream, byte for byte.
    let mut out = Vec::new();
    multi
        .serve_pipelined(
            wire(&requests).as_bytes(),
            &mut out,
            &PipelineOptions::new().chunk(2),
        )
        .unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), expected);
}

#[test]
fn tenants_sharing_one_cache_never_collide_on_equal_names() {
    let _guard = lock();
    // Both catalogs bind machine index 0 / workload index 0 under the
    // SAME names ("k" on Ivy Bridge) to DIFFERENT programs. Without
    // catalog-namespaced cache keys, tenant B would ride tenant A's
    // cached reference profile and silently answer with A's numbers.
    let run_config = RunConfig::default();
    let program_a = kernel("k", 10_000);
    let program_b = call_kernel("k", 3_000);
    let workloads_a = [WorkloadSpec {
        name: "k",
        program: &program_a,
        run_config: &run_config,
    }];
    let workloads_b = [WorkloadSpec {
        name: "k",
        program: &program_b,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 2, 11);

    let registry = CatalogRegistry::new(
        Catalog::new(&machines, &workloads_a).method_options(MethodOptions::fast()),
    )
    .register(
        "b",
        Catalog::new(&machines, &workloads_b).method_options(MethodOptions::fast()),
    );
    let service = EvalService::with_registry(registry).threads(2);

    let audit = CollectionAudit::begin();
    let response_a = service.serve_one(&request);
    let response_b = service.serve_one(&request.clone().in_catalog("b"));
    assert!(response_a.is_ok(), "{:?}", response_a.error);
    assert!(response_b.is_ok(), "{:?}", response_b.error);
    assert_eq!(
        audit.collections(),
        2,
        "each tenant must build its own reference — no cross-tenant sharing"
    );
    assert_ne!(
        stats_json(&response_a),
        stats_json(&response_b),
        "different programs under one name must produce different stats"
    );

    // Each tenant's payload matches a dedicated single-catalog service
    // over its own program.
    for (workloads, response) in [(&workloads_a, &response_a), (&workloads_b, &response_b)] {
        let dedicated = EvalService::new(&machines, workloads)
            .method_options(MethodOptions::fast())
            .threads(1);
        assert_eq!(
            stats_json(&dedicated.serve_one(&request)),
            stats_json(response)
        );
    }

    // Replays hit the shared cache — still namespaced, still zero new
    // reference builds.
    let replay_audit = CollectionAudit::begin();
    let replay_b = service.serve_one(&request.clone().in_catalog("b"));
    assert_eq!(replay_audit.collections(), 0, "replay must be fully cached");
    assert_eq!(stats_json(&replay_b), stats_json(&response_b));
}

#[test]
fn unknown_catalog_answers_in_order_batched() {
    let _guard = lock();
    let program = kernel("k", 5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);
    let good = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 1);
    let requests = vec![
        good.clone(),
        good.clone().in_catalog("acme-prod"),
        good.clone(),
    ];
    let responses = service.serve(&requests);
    assert_eq!(responses.len(), 3);
    assert!(responses[0].is_ok());
    assert_eq!(
        responses[1].error.as_deref(),
        Some("unknown catalog `acme-prod`"),
        "unknown catalog must answer like unknown machine/workload: an error response"
    );
    assert!(
        responses[2].is_ok(),
        "requests after the bad one still serve"
    );
    assert_eq!(service.stats().errors, 1);
}

#[test]
fn unknown_catalog_answers_in_order_pipelined_and_the_stream_drains() {
    let _guard = lock();
    let program = kernel("k", 5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);
    let good = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 1);
    let stream = vec![
        good.clone(),
        good.clone().in_catalog("acme-prod"),
        good.clone(),
        good.clone().in_catalog("acme-staging"),
    ];

    let mut out = Vec::new();
    let stats = service
        .serve_pipelined(
            wire(&stream).as_bytes(),
            &mut out,
            &PipelineOptions::new().chunk(2),
        )
        .unwrap();
    assert_eq!(
        (stats.requests, stats.parse_errors, stats.responses),
        (4, 0, 4)
    );

    let text = String::from_utf8(out).unwrap();
    let parsed: Vec<EvalResponse> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(parsed[0].is_ok());
    assert_eq!(
        parsed[1].error.as_deref(),
        Some("unknown catalog `acme-prod`")
    );
    assert!(parsed[2].is_ok());
    assert_eq!(
        parsed[3].error.as_deref(),
        Some("unknown catalog `acme-staging`")
    );
    // Responses echo their requests at their stream positions.
    assert_eq!(parsed[1].request.catalog.as_deref(), Some("acme-prod"));
    assert_eq!(service.stats().errors, 2);
}

#[test]
fn hot_tenant_churn_evicts_the_cold_tenants_reference_from_a_shared_lru() {
    let _guard = lock();
    // One machine; the hot tenant churns over three workloads while the
    // cold tenant owns a single pair. Capacity 3 cannot hold all four
    // pairs, so the hot tenant's third insert evicts the cold reference.
    let run_config = RunConfig::default();
    let k0 = kernel("k0", 4_000);
    let k1 = kernel("k1", 5_000);
    let k2 = kernel("k2", 6_000);
    let cold_program = call_kernel("cold", 2_000);
    let hot_workloads = [
        WorkloadSpec {
            name: "k0",
            program: &k0,
            run_config: &run_config,
        },
        WorkloadSpec {
            name: "k1",
            program: &k1,
            run_config: &run_config,
        },
        WorkloadSpec {
            name: "k2",
            program: &k2,
            run_config: &run_config,
        },
    ];
    let cold_workloads = [WorkloadSpec {
        name: "cold",
        program: &cold_program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let cold_request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "cold", "classic", 1, 3)
        .in_catalog("cold-tenant");

    let registry = CatalogRegistry::new(
        Catalog::new(&machines, &hot_workloads).method_options(MethodOptions::fast()),
    )
    .register(
        "cold-tenant",
        Catalog::new(&machines, &cold_workloads).method_options(MethodOptions::fast()),
    );
    // threads(1) keeps cache access order deterministic.
    let service = EvalService::with_registry(registry)
        .threads(1)
        .cache_capacity(3);
    // Cold tenant settles its reference first.
    assert!(service.serve_one(&cold_request).is_ok());
    // Hot tenant churns through its three pairs, twice.
    for name in ["k0", "k1", "k2", "k0", "k1", "k2"] {
        let response = service.serve_one(&EvalRequest::new(
            "Ivy Bridge (Xeon E3-1265L)",
            name,
            "classic",
            1,
            9,
        ));
        assert!(response.is_ok(), "{:?}", response.error);
    }
    // The measurement: the cold tenant's replay rebuilds.
    let audit = CollectionAudit::begin();
    assert!(service.serve_one(&cold_request).is_ok());
    assert_eq!(
        audit.collections(),
        1,
        "capacity-3 LRU lets hot churn evict the cold reference"
    );

    // The per-tenant accounting tells the same story on both sides.
    let stats = service.stats();
    assert_eq!(stats.tenants.len(), 2);
    assert_eq!(stats.tenants[0].catalog, DEFAULT_CATALOG);
    let cold = stats
        .tenants
        .iter()
        .find(|t| t.catalog == "cold-tenant")
        .unwrap();
    assert_eq!(cold.builds, 2, "the replay rebuilt");
    assert_eq!(
        service.cache_stats().tenants[1].evictions,
        1,
        "the cache charges the eviction to the cold tenant"
    );
}

/// The cold tenant of the two-tenant mix.
const COLD: &str = "tenant-b";

/// A tiny splitmix-style generator so the two-tenant mix is a pure
/// function of its seed (this test binary is wired into countertrust,
/// which cannot depend on ct-bench's stream generators).
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

/// A 90/10 two-tenant mix over four workloads: both tenants draw pairs
/// zipfian-style (50/25/15/10), the default tenant owns ~90% of the
/// stream and [`COLD`] the rest.
fn mixed_stream(workload_names: &[&str; 4], requests: usize, seed: u64) -> Vec<EvalRequest> {
    let mut state = seed;
    (0..requests)
        .map(|i| {
            let w = match next(&mut state) % 100 {
                0..=49 => 0,
                50..=74 => 1,
                75..=89 => 2,
                _ => 3,
            };
            let request = EvalRequest::new(
                "Ivy Bridge (Xeon E3-1265L)",
                workload_names[w],
                "classic",
                1,
                i as u64,
            );
            if next(&mut state).is_multiple_of(10) {
                request.in_catalog(COLD)
            } else {
                request
            }
        })
        .collect()
}

#[test]
fn a_two_tenant_mix_on_a_bounded_cache_serves_batched_bytes() {
    let _guard = lock();
    let run_config = RunConfig::default();
    let programs: Vec<Program> = [3_000u64, 4_000, 5_000, 6_000]
        .iter()
        .enumerate()
        .map(|(i, &n)| kernel(&format!("w{i}"), n))
        .collect();
    let names = ["w0", "w1", "w2", "w3"];
    let workloads: Vec<WorkloadSpec<'_>> = programs
        .iter()
        .zip(names)
        .map(|(program, name)| WorkloadSpec {
            name,
            program,
            run_config: &run_config,
        })
        .collect();
    let machines = [MachineModel::ivy_bridge()];
    let stream = mixed_stream(&names, 120, 0xFA1E);
    let cold_requests = stream.iter().filter(|r| r.catalog.is_some()).count();
    assert!(
        (8..=24).contains(&cold_requests),
        "the mix must be roughly 90/10, got {cold_requests}/120 cold"
    );

    // Capacity 4 holds one tenant's four pairs, never both tenants'
    // eight, so the tenants keep evicting each other.
    let service = || {
        let catalog = || Catalog::new(&machines, &workloads).method_options(MethodOptions::fast());
        EvalService::with_registry(CatalogRegistry::new(catalog()).register(COLD, catalog()))
            .threads(1)
            .cache_capacity(4)
    };
    let pipelined = service();
    let mut out = Vec::new();
    let stats = pipelined
        .serve_pipelined(
            wire(&stream).as_bytes(),
            &mut out,
            &PipelineOptions::new().chunk(8),
        )
        .expect("in-memory pipeline never hits I/O errors");
    assert_eq!(stats.parse_errors, 0);
    let batched = service();
    let expected: String = stream
        .chunks(8)
        .map(|chunk| batched.serve_jsonl(chunk))
        .collect();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        expected,
        "pipelined vs batched divergence"
    );

    let cold = pipelined
        .stats()
        .tenants
        .iter()
        .find(|t| t.catalog == COLD)
        .cloned();
    assert_eq!(
        cold.expect("cold tenant registered").requests,
        cold_requests as u64
    );
    assert_eq!(pipelined.cache_stats().tenants.len(), 2);
}

#[test]
fn re_registering_a_served_tenant_never_serves_its_old_references() {
    let _guard = lock();
    let root = std::env::temp_dir().join(format!("ct_registry_reregister_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("tenantx");
    let write_tenant = |iterations: u64| {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("00_spin.json"),
            "{\"name\": \"spin\", \"class\": \"kernel\", \"source\": \"00_spin.ctasm\"}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("00_spin.ctasm"),
            format!(
                ".func main\n    movi r1, {iterations}\ntop:\n    addi r2, r2, 1\n    \
                 subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n"
            ),
        )
        .unwrap();
    };
    let program = kernel("k", 4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "spin", "classic", 1, 5)
        .in_catalog("tenantx");

    // Once on the cache alone, once through a snapshot store, whose
    // lookups go through the service's memoized pair fingerprints.
    for snapshots in [None, Some(root.join("snapshots"))] {
        let base = || {
            let service = EvalService::new(&machines, &workloads)
                .method_options(MethodOptions::fast())
                .threads(1);
            match &snapshots {
                Some(store) => service.snapshot_dir(store),
                None => service,
            }
        };
        write_tenant(20_000);
        let served = base()
            .workload_dir(&dir, 1.0)
            .expect("well-formed catalog dir");
        assert!(served.serve_one(&request).is_ok());

        write_tenant(80_000);
        let replaced = served
            .workload_dir(&dir, 1.0)
            .expect("well-formed catalog dir");
        let fresh = base()
            .workload_dir(&dir, 1.0)
            .expect("well-formed catalog dir");
        let request = std::slice::from_ref(&request);
        assert_eq!(
            replaced.serve_jsonl(request),
            fresh.serve_jsonl(request),
            "the replaced tenant answered from its old reference (snapshots: {snapshots:?})"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn registry_registration_order_and_replacement() {
    let _guard = lock();
    let program = kernel("k", 4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let other_program = kernel("o", 4_000);
    let other = [WorkloadSpec {
        name: "o",
        program: &other_program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::westmere()];

    let registry = CatalogRegistry::new(Catalog::new(&machines, &workloads))
        .register("tenant", Catalog::new(&machines, &workloads))
        .register("tenant", Catalog::new(&machines, &other));
    assert_eq!(
        registry.names().collect::<Vec<_>>(),
        vec![DEFAULT_CATALOG, "tenant"],
        "re-registering a name replaces in place, never duplicates"
    );
    assert_eq!(registry.len(), 2);
    assert!(!registry.is_empty());
    assert_eq!(registry.get("tenant").unwrap().workloads()[0].name, "o");
    assert!(registry.get("nope").is_none());

    // The replaced catalog is what serves.
    let service = EvalService::with_registry(registry)
        .method_options(MethodOptions::fast())
        .threads(1);
    let response = service.serve_one(
        &EvalRequest::new("Westmere (Xeon X5650)", "o", "classic", 1, 3).in_catalog("tenant"),
    );
    assert!(response.is_ok(), "{:?}", response.error);
    let stale = service.serve_one(
        &EvalRequest::new("Westmere (Xeon X5650)", "k", "classic", 1, 3).in_catalog("tenant"),
    );
    assert_eq!(stale.error.as_deref(), Some("unknown workload `k`"));
}
