//! Network-intake guarantees: the TCP front door
//! ([`countertrust::serve::net::EvalServer`]) serves ≥4 concurrent
//! loopback connections with per-connection response streams
//! byte-identical to offline pipelined runs, isolates per-connection
//! failures, drains gracefully on shutdown, and (opt-in) stamps
//! responses with per-request latency without disturbing untimed runs.

use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::net::{exchange, EvalServer, NetOptions, NetStats};
use countertrust::serve::{EvalRequest, EvalResponse, EvalService, PipelineOptions};
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::{MachineModel, RunConfig};
use ct_workloads::LoaderError;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

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

fn wire(requests: &[EvalRequest]) -> String {
    requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect()
}

/// One request sub-stream per connection: distinct methods/seeds so no
/// two connections expect the same bytes.
fn connection_streams(machines: &[MachineModel], connections: usize) -> Vec<Vec<EvalRequest>> {
    (0..connections)
        .map(|c| {
            let methods = ["classic", "lbr", "precise", "precise+rand"];
            (0..3)
                .map(|i| {
                    EvalRequest::new(
                        &machines[(c + i) % machines.len()].name,
                        "k",
                        methods[(c + i) % methods.len()],
                        1,
                        (c * 17 + i) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

/// Binds a loopback server, runs `clients` against it inside one scope,
/// shuts down gracefully, and returns each client's result plus the
/// server's stats.
fn serve_loopback<R: Send>(
    service: &EvalService,
    options: NetOptions,
    clients: impl Fn(std::net::SocketAddr, usize) -> R + Sync,
    connections: usize,
) -> (Vec<R>, NetStats) {
    let server = EvalServer::listen("127.0.0.1:0", options).expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let clients = &clients;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(service));
        let workers: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || clients(addr, c)))
            .collect();
        let results: Vec<R> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        handle.shutdown();
        let stats = serving.join().expect("server thread").expect("accept loop");
        (results, stats)
    })
}

#[test]
fn concurrent_connections_match_offline_pipelined_runs() {
    let program = kernel(10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let streams = connection_streams(&machines, 5);
    let pipeline = PipelineOptions::new().chunk(2);

    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(4);
    let (outputs, stats) = serve_loopback(
        &service,
        NetOptions::new().pipeline(pipeline).max_connections(5),
        |addr, c| exchange(addr, &wire(&streams[c])).expect("loopback exchange"),
        streams.len(),
    );

    assert_eq!(stats.connections, 5, "all five concurrent connections served");
    assert_eq!(stats.io_errors, 0);
    assert_eq!(stats.requests, 15);
    assert_eq!(stats.responses, 15);

    // The acceptance contract: every connection's stream is
    // byte-identical to a fresh offline pipelined run of the same
    // requests — the socket adds transport, never content.
    for (c, (sub, got)) in streams.iter().zip(&outputs).enumerate() {
        let offline = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(4);
        let mut expected = Vec::new();
        offline
            .serve_pipelined(wire(sub).as_bytes(), &mut expected, &pipeline)
            .unwrap();
        assert_eq!(
            got.as_bytes(),
            expected.as_slice(),
            "connection {c} diverged from its offline pipelined run"
        );
    }
}

#[test]
fn connection_cap_one_still_serves_every_connection() {
    let program = kernel(5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 5);
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    // Cap 1 serializes connections; waiting clients sit in the listen
    // backlog rather than being refused, so all four still complete.
    let (outputs, stats) = serve_loopback(
        &service,
        NetOptions::new().max_connections(1),
        |addr, _| exchange(addr, &wire(std::slice::from_ref(&request))).expect("exchange"),
        4,
    );
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.responses, 4);
    assert!(outputs.iter().all(|o| o == &outputs[0]), "identical requests, identical bytes");
}

#[test]
fn malformed_and_aborted_connections_never_poison_their_siblings() {
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let good = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 2, 9);
    let good_wire = wire(std::slice::from_ref(&good));
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let (outputs, stats) = serve_loopback(
        &service,
        NetOptions::default(),
        |addr, c| match c {
            // Connection 0: pure garbage — answered with in-order parse
            // errors, not an I/O failure.
            0 => exchange(addr, "this is not json\nneither is this\n").expect("exchange"),
            // Connection 1: writes a request and hangs up without ever
            // reading; whatever happens (EOF-served, reset, broken
            // pipe) stays on its worker.
            1 => {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(good_wire.as_bytes()).expect("write");
                drop(stream);
                String::new()
            }
            // Connections 2–3: well-behaved.
            _ => exchange(addr, &good_wire).expect("exchange"),
        },
        4,
    );
    // The hang-up client may race shutdown before its connection is
    // even accepted; everyone who waited for a response was served.
    assert!(stats.connections >= 3, "{stats:?}");
    assert_eq!(stats.parse_errors, 2, "garbage lines answered, not fatal");

    let garbage: Vec<EvalResponse> = outputs[0]
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(garbage.len(), 2);
    assert!(garbage[0].error.as_ref().unwrap().contains("parse error on line 1"));

    // The well-behaved connections got exactly the offline bytes even
    // with the rogue siblings in flight.
    let offline = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);
    let mut expected = Vec::new();
    offline
        .serve_pipelined(good_wire.as_bytes(), &mut expected, &PipelineOptions::default())
        .unwrap();
    for c in [2, 3] {
        assert_eq!(outputs[c].as_bytes(), expected.as_slice(), "connection {c}");
    }
}

#[test]
fn over_long_v1_line_closes_its_connection_and_spares_its_siblings() {
    use countertrust::serve::proto::MAX_FRAME_PAYLOAD;
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let good = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 3);
    let good_wire = wire(std::slice::from_ref(&good));
    // A good line, a line twice the cap, and a good line the server
    // must never read.
    let hostile = format!("{good_wire}{}\n{good_wire}", "x".repeat(2 * MAX_FRAME_PAYLOAD as usize));
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let (outputs, stats) = serve_loopback(
        &service,
        NetOptions::default(),
        |addr, c| match c {
            // Connection 0 writes from its own thread: the server stops
            // reading at the cap and closes, so that write may fail with
            // a reset, which this client shrugs off.
            0 => {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
                stream.set_write_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let mut writer = &stream;
                        if writer.write_all(hostile.as_bytes()).is_ok() {
                            let _ = stream.shutdown(Shutdown::Write);
                        }
                    });
                    let mut out = Vec::new();
                    let _ = (&stream).read_to_end(&mut out);
                    String::from_utf8_lossy(&out).into_owned()
                })
            }
            _ => exchange(addr, &good_wire).expect("exchange"),
        },
        2,
    );

    assert_eq!(stats.connections, 2);
    assert_eq!(stats.io_errors, 0, "an over-long line is answered, not a failed connection");
    assert_eq!(stats.parse_errors, 1, "{stats:?}");
    assert_eq!(
        stats.responses, 3,
        "the hostile connection gets its good line and the error, nothing after"
    );

    let offline = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);
    let mut expected = Vec::new();
    offline
        .serve_pipelined(good_wire.as_bytes(), &mut expected, &PipelineOptions::default())
        .unwrap();
    assert_eq!(outputs[1].as_bytes(), expected.as_slice(), "the well-behaved sibling");
}

#[test]
fn over_cap_runs_get_an_in_order_error_and_spare_their_siblings() {
    use countertrust::serve::MAX_RUNS;
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let good = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 3);
    // Before the cap, this line made the server try to allocate 32 GB of
    // seeds and abort the whole process.
    let hostile = [
        good.clone(),
        EvalRequest { runs: 4_000_000_000, ..good.clone() },
        EvalRequest { seed: 4, ..good.clone() },
    ];
    let sibling = connection_streams(&machines, 1).remove(0);
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let (outputs, stats) = serve_loopback(
        &service,
        NetOptions::default(),
        |addr, c| match c {
            // The hostile client, then a fresh connection from it once
            // its stream is answered: the server is still serving.
            0 => [wire(&hostile), wire(&hostile[..1])]
                .iter()
                .map(|w| exchange(addr, w).expect("exchange"))
                .collect(),
            _ => vec![exchange(addr, &wire(&sibling)).expect("exchange")],
        },
        2,
    );
    assert_eq!(stats.connections, 3);
    assert_eq!((stats.io_errors, stats.worker_panics, stats.parse_errors), (0, 0, 0));
    assert_eq!(stats.responses, 3 + 1 + 3);

    let offline = |requests: &[EvalRequest]| {
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(1);
        let mut out = Vec::new();
        service
            .serve_pipelined(wire(requests).as_bytes(), &mut out, &PipelineOptions::default())
            .unwrap();
        String::from_utf8(out).unwrap()
    };
    let lines: Vec<&str> = outputs[0][0].lines().collect();
    assert_eq!(lines.len(), 3, "one response per line, in order");
    let rejected: EvalResponse = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(rejected.request, hostile[1]);
    assert!(rejected.stats.is_none());
    let expected = format!("runs 4000000000 exceeds the limit of {MAX_RUNS}");
    assert_eq!(rejected.error.as_deref(), Some(expected.as_str()));
    assert_eq!(format!("{}\n", lines[0]), offline(&hostile[..1]));
    assert_eq!(format!("{}\n", lines[2]), offline(&hostile[2..]));
    assert_eq!(outputs[0][1], offline(&hostile[..1]), "the follow-up connection");
    assert_eq!(outputs[1][0], offline(&sibling), "the well-behaved sibling");
}

#[test]
fn shutdown_drains_in_flight_connections() {
    let program = kernel(20_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "precise", 3, 2);
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let server = EvalServer::listen("127.0.0.1:0", NetOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let response = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&service));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(wire(std::slice::from_ref(&request)).as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Wait until the server demonstrably took the connection in,
        // then shut down while the request is (at most) mid-flight: the
        // accept loop must stop, but the open connection must drain
        // fully before `serve` returns.
        while server.connections_accepted() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        handle.shutdown();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let stats = serving.join().unwrap().unwrap();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.io_errors, 0);
        response
    });
    let parsed: EvalResponse = serde_json::from_str(response.trim()).unwrap();
    assert!(parsed.is_ok(), "{:?}", parsed.error);
    assert_eq!(parsed.request, request);
}

#[test]
fn panicking_connection_worker_leaves_the_server_serving() {
    let program = kernel(5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 7);
    let good_wire = wire(std::slice::from_ref(&request));
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    // max_connections(1) makes the regression observable: before the
    // fix, a panicking worker leaked its `active` slot (so the second
    // connection would never be accepted — this test would hang, loudly)
    // and the panic propagated out of the thread scope, tearing down
    // `serve` itself (so the join below would panic).
    let server =
        EvalServer::listen("127.0.0.1:0", NetOptions::new().max_connections(1)).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let accepted = std::sync::atomic::AtomicUsize::new(0);
    let (first, second, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            server.serve_with(&service, |service, stream, pipeline| {
                if accepted.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    panic!("injected worker panic");
                }
                // The well-behaved path, exactly as `EvalServer::serve`
                // drives it.
                stream.set_nonblocking(false)?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                let mut writer = std::io::BufWriter::new(stream);
                let stats = service.serve_pipelined(reader, &mut writer, pipeline)?;
                std::io::Write::flush(&mut writer)?;
                let _ = stream.shutdown(Shutdown::Write);
                Ok(stats)
            })
        });
        // First connection hits the injected panic; whatever the client
        // observes (empty response or a reset) must stay on that
        // connection.
        let first = exchange(addr, &good_wire);
        // The second connection must be accepted (the panicking worker's
        // slot was released) and served normally.
        let second = exchange(addr, &good_wire).expect("server must keep serving");
        handle.shutdown();
        let stats = serving
            .join()
            .expect("a worker panic must never unwind out of serve")
            .expect("accept loop");
        (first, second, stats)
    });

    assert_eq!(stats.connections, 2);
    assert_eq!(stats.worker_panics, 1, "the panic is counted as a worker panic");
    assert_eq!(stats.io_errors, 0, "a crashed handler is not blamed on the client");
    assert_eq!(stats.responses, 1, "only the clean connection contributes responses");
    if let Ok(first) = first {
        assert!(first.is_empty(), "the panicked connection never got bytes");
    }

    // The survivor's bytes are exactly the offline pipelined bytes.
    let offline = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);
    let mut expected = Vec::new();
    offline
        .serve_pipelined(good_wire.as_bytes(), &mut expected, &PipelineOptions::default())
        .unwrap();
    assert_eq!(second.as_bytes(), expected.as_slice());
}

#[test]
fn idle_server_shutdown_is_prompt_because_accept_blocks_on_readiness() {
    // The accept loop parks in the kernel instead of sleep-polling; the
    // shutdown handle's loopback wake-up must unpark it essentially
    // immediately. (Bound generously for loaded CI machines — the old
    // 1 ms poll would also pass this latency-wise, but the real guard
    // is that a *blocking* accept without the wake-up would hang here
    // forever.)
    let program = kernel(1_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);

    let server = EvalServer::listen("127.0.0.1:0", NetOptions::default()).unwrap();
    let handle = server.handle();
    let (elapsed, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&service));
        // Give the server time to park in accept with no traffic at all.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let started = std::time::Instant::now();
        handle.shutdown();
        let stats = serving.join().unwrap().unwrap();
        (started.elapsed(), stats)
    });
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "idle shutdown took {elapsed:?}"
    );
    assert_eq!(stats.connections, 0, "the wake-up connection is not traffic");
    assert_eq!(server.active_connections(), 0);
}

#[test]
fn a_bounded_cache_shared_by_concurrent_connections_serves_offline_bytes() {
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let streams = connection_streams(&machines, 3);

    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(4)
        .cache_capacity(2);
    let (outputs, stats) = serve_loopback(
        &service,
        NetOptions::new().pipeline(PipelineOptions::new().chunk(2)).max_connections(3),
        |addr, c| exchange(addr, &wire(&streams[c])).expect("loopback exchange"),
        streams.len(),
    );
    assert_eq!(stats.io_errors, 0);

    // Three connections evict each other's references from the one
    // two-slot cache: the served bytes still equal a default offline
    // pipelined run of each connection's stream.
    for (c, (sub, got)) in streams.iter().zip(&outputs).enumerate() {
        let offline = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(4);
        let mut expected = Vec::new();
        offline
            .serve_pipelined(wire(sub).as_bytes(), &mut expected, &PipelineOptions::default())
            .unwrap();
        assert_eq!(got.as_bytes(), expected.as_slice(), "connection {c}");
    }
}

#[test]
fn record_latency_stamps_networked_responses() {
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let requests = vec![
        EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 1),
        EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 1, 2),
    ];
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let (outputs, _) = serve_loopback(
        &service,
        NetOptions::new()
            .pipeline(PipelineOptions::new().chunk(1).record_latency(true)),
        |addr, _| exchange(addr, &wire(&requests)).expect("exchange"),
        1,
    );
    let parsed: Vec<EvalResponse> = outputs[0]
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(parsed.len(), 2);
    for response in &parsed {
        let latency = response.latency.expect("timed responses carry latency");
        assert!(latency.eval_us > 0, "evaluation takes measurable time");
        assert_eq!(latency.total_us(), latency.queue_us + latency.build_us + latency.eval_us);
    }
    let stats = service.stats();
    assert_eq!(stats.timed_requests, 2);
    assert!(stats.latency_p99_us >= stats.latency_p50_us);
    assert!(stats.latency_p50_us > 0);
}

/// The data-catalog path end to end: a directory of `.ctasm` + manifest
/// pairs is compiled by [`EvalService::workload_dir`] into a tenant
/// catalog named after the directory, and a served service answers TCP
/// requests byte-identically to an offline service built the same way —
/// while the default catalog keeps serving untouched.
#[test]
fn workload_dir_option_serves_a_directory_as_a_tenant_catalog() {
    let dir = std::env::temp_dir().join(format!("ct_net_wdir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("00_spin.json"),
        "{\"name\": \"spin\", \"class\": \"kernel\", \"source\": \"00_spin.ctasm\", \"scaled\": { \"N\": { \"base\": 9000, \"min\": 10 } } }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("00_spin.ctasm"),
        ".const N = 9000\n.func main\n    movi r1, N\ntop:\n    addi r2, r2, 1\n    subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n",
    )
    .unwrap();
    let tenant = dir.file_name().unwrap().to_str().unwrap().to_string();

    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let base = || {
        EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(2)
    };
    // One default-catalog request plus two tenant requests (the tenant's
    // machines come from the paper catalog, not the default's).
    let requests = vec![
        EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 1),
        EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "spin", "classic", 1, 2)
            .in_catalog(&tenant),
        EvalRequest::new("Westmere (Xeon X5650)", "spin", "lbr", 1, 3).in_catalog(&tenant),
    ];

    let served = base().workload_dir(&dir, 0.5).expect("well-formed catalog dir");
    let server = EvalServer::listen("127.0.0.1:0", NetOptions::new()).expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let (output, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&served));
        let output = exchange(addr, &wire(&requests)).expect("loopback exchange");
        handle.shutdown();
        (output, serving.join().expect("server thread").expect("accept loop"))
    });
    assert_eq!(stats.responses, 3);
    assert_eq!(stats.io_errors, 0);

    // Offline reference: a second service built the same way.
    let offline = base().workload_dir(&dir, 0.5).unwrap();
    let mut expected = Vec::new();
    offline
        .serve_pipelined(wire(&requests).as_bytes(), &mut expected, &PipelineOptions::default())
        .unwrap();
    assert_eq!(output.as_bytes(), expected.as_slice());
    // And every response is a real evaluation, not an error object.
    for line in output.lines() {
        let response: EvalResponse = serde_json::from_str(line).unwrap();
        assert!(response.error.is_none(), "{line}");
    }

    // A malformed directory is rejected with a typed error while the
    // service is built, before anything is served.
    std::fs::write(dir.join("01_bad.json"), "{ not json").unwrap();
    let err = match base().workload_dir(&dir, 1.0) {
        Err(e) => e,
        Ok(_) => panic!("malformed manifest must be rejected"),
    };
    assert!(matches!(err, LoaderError::Manifest { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
