//! Protocol v2 guarantees: negotiation never disturbs v1 clients, a v2
//! connection carrying N interleaved streams answers each stream with
//! bytes identical to N separate v1 connections (and to the offline
//! pipeline), sessions are genuinely keep-alive, malformed frames and a
//! stream past the per-connection limit are answered with in-order `ERR`
//! frames after everything that preceded them, and malformed lines,
//! blank lines and latency stamps behave the same over both protocols.

use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::net::{exchange, NetOptions};
use countertrust::serve::proto::{
    exchange_v2, read_frame, write_frame, Frame, FrameKind, V2Client, V2_ACK, V2_PREAMBLE,
};
use countertrust::serve::{EvalRequest, EvalResponse, EvalService, PipelineOptions};
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::{MachineModel, RunConfig};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use support::with_server;

#[path = "support/loopback.rs"]
mod support;

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

fn streams_for(machines: &[MachineModel], count: usize) -> Vec<Vec<EvalRequest>> {
    let methods = ["classic", "lbr", "precise", "precise+rand"];
    (0..count)
        .map(|s| {
            (0..3)
                .map(|i| {
                    EvalRequest::new(
                        &machines[(s + i) % machines.len()].name,
                        "k",
                        methods[(s + i) % methods.len()],
                        1,
                        (s * 31 + i) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

/// One v1 connection carrying raw bytes (which may not be UTF-8): the
/// whole response stream.
fn exchange_bytes(addr: SocketAddr, wire: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(wire).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    out
}

/// One v2 session sending each payload as a `REQ` frame on stream 0,
/// then `BYE`: the stream's `RESP` payloads, concatenated.
fn exchange_frames(addr: SocketAddr, payloads: &[&[u8]]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&V2_PREAMBLE).expect("preamble");
    let mut ack = [0u8; 8];
    stream.read_exact(&mut ack).expect("ack");
    assert_eq!(ack, V2_ACK);
    for payload in payloads {
        write_frame(&mut stream, FrameKind::Req, 0, payload).expect("request frame");
    }
    write_frame(&mut stream, FrameKind::Bye, 0, &[]).expect("bye");
    let mut reader = BufReader::new(&stream);
    let mut out = Vec::new();
    while let Some(frame) = read_frame(&mut reader).expect("frame decodes") {
        assert_eq!(frame.kind, FrameKind::Resp);
        out.extend_from_slice(&frame.payload);
    }
    out
}

#[test]
fn multiplexed_streams_match_separate_v1_connections_and_offline() {
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let streams = streams_for(&machines, 4);
    let wires: Vec<String> = streams.iter().map(|s| wire(s)).collect();
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(4);

    // One keep-alive v2 connection carrying all four interleaved
    // streams, then the same four wires over four separate v1
    // connections, against the same server.
    let ((v2_replies, v1_replies), _) = with_server(&service, NetOptions::default(), |addr| {
        let v2 = exchange_v2(addr, &wires).expect("v2 exchange");
        let v1: Vec<String> = wires
            .iter()
            .map(|w| exchange(addr, w).expect("v1 exchange"))
            .collect();
        (v2, v1)
    });

    for (s, (v2, v1)) in v2_replies.iter().zip(&v1_replies).enumerate() {
        assert_eq!(
            v2.as_bytes(),
            v1.as_bytes(),
            "stream {s}: multiplexed v2 diverged from its own v1 connection"
        );
    }

    // And both match a fresh offline pipelined run — the full
    // cross-version byte-identity triangle.
    for (s, sub) in streams.iter().enumerate() {
        let offline = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(4);
        let mut expected = Vec::new();
        offline
            .serve_pipelined(
                wire(sub).as_bytes(),
                &mut expected,
                &PipelineOptions::default(),
            )
            .unwrap();
        assert_eq!(
            v2_replies[s].as_bytes(),
            expected.as_slice(),
            "stream {s} vs offline"
        );
    }
}

#[test]
fn v2_session_is_keep_alive_across_request_rounds() {
    let program = kernel(5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let requests = streams_for(&machines, 1).remove(0);
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let (rounds, stats) = with_server(&service, NetOptions::default(), |addr| {
        // Three request/response rounds over ONE connection — each
        // round waits for its response before sending the next, so
        // the server demonstrably answers without seeing EOF or BYE.
        let mut client = V2Client::connect(addr).expect("v2 connect");
        let mut rounds = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let line = serde_json::to_string(request).unwrap();
            client.send_line(i as u32, &line).expect("send");
            client.flush().expect("flush");
            let (stream, text) = client.recv().expect("recv").expect("open session");
            assert_eq!(stream, i as u32);
            rounds.push(text);
        }
        client.bye().expect("bye");
        rounds
    });
    assert_eq!(
        stats.connections, 1,
        "three rounds, one connection: keep-alive works"
    );

    // Each round's response line matches the offline bytes for that
    // request alone (each stream had exactly one line).
    for (i, request) in requests.iter().enumerate() {
        let offline = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(2);
        let expected = offline.serve_jsonl(std::slice::from_ref(request));
        assert_eq!(rounds[i], expected, "round {i}");
    }
}

#[test]
fn v1_clients_and_nul_prefixed_garbage_negotiate_to_v1() {
    let program = kernel(4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 11);
    let good_wire = wire(std::slice::from_ref(&request));
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let ((plain, nul_led, empty), _) = with_server(&service, NetOptions::default(), |addr| {
        // A plain v1 client is served as v1 (the doctest and the whole
        // existing suite cover the byte-identity; here we pin the
        // negotiation matrix edges).
        let plain = exchange(addr, &good_wire).expect("v1 exchange");
        // A stream that *starts* like the preamble but diverges: the
        // consumed bytes must be replayed, reaching the v1 pipeline as
        // the line `\0CTgarbage` — answered with a parse error, not
        // swallowed.
        let nul_led = exchange(addr, "\0CTgarbage\n").expect("nul-led exchange");
        // An immediately-closed connection is a valid, empty v1 stream.
        let empty = exchange(addr, "").expect("empty exchange");
        (plain, nul_led, empty)
    });

    let offline = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);
    let mut expected = Vec::new();
    offline
        .serve_pipelined(
            good_wire.as_bytes(),
            &mut expected,
            &PipelineOptions::default(),
        )
        .unwrap();
    assert_eq!(plain.as_bytes(), expected.as_slice());

    assert!(
        nul_led.contains("parse error on line 1"),
        "diverging preamble bytes must be replayed into the v1 stream: {nul_led}"
    );
    assert!(
        empty.is_empty(),
        "an empty v1 stream gets an empty response stream"
    );
}

#[test]
fn v2_handshake_acks_and_full_preamble_is_never_served_as_v1() {
    let program = kernel(4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);

    with_server(&service, NetOptions::default(), |addr| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&V2_PREAMBLE).unwrap();
        let mut ack = [0u8; 8];
        stream.read_exact(&mut ack).unwrap();
        assert_eq!(ack, V2_ACK, "full preamble must be acknowledged as v2");
        // A clean immediate BYE ends the session without responses.
        write_frame(&mut stream, FrameKind::Bye, 0, &[]).unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "no frames after BYE, got {} bytes",
            rest.len()
        );
    });
}

#[test]
fn malformed_frames_get_in_order_error_frames_after_prior_responses() {
    let program = kernel(4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 23);
    let line = serde_json::to_string(&request).unwrap();
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    // Three flavours of bad frame, each preceded by one valid request:
    // the response to the valid request must arrive BEFORE the ERR
    // frame, and the ERR frame must name the failure.
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("bad kind", {
            let mut bytes = vec![0x7Fu8];
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes
        }),
        ("oversized", {
            let mut bytes = vec![FrameKind::Req as u8];
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&(64u32 << 20).to_le_bytes());
            bytes
        }),
        ("truncated", {
            // A REQ header promising 100 payload bytes, then EOF.
            let mut bytes = vec![FrameKind::Req as u8];
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&100u32.to_le_bytes());
            bytes.extend_from_slice(b"only a few");
            bytes
        }),
    ];

    for (label, bad_bytes) in cases {
        with_server(&service, NetOptions::default(), |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&V2_PREAMBLE).unwrap();
            let mut ack = [0u8; 8];
            stream.read_exact(&mut ack).unwrap();
            assert_eq!(ack, V2_ACK);
            // One valid request on stream 9, then the bad frame.
            write_frame(&mut stream, FrameKind::Req, 9, line.as_bytes()).unwrap();
            stream.write_all(&bad_bytes).unwrap();
            let _ = stream.shutdown(std::net::Shutdown::Write);

            let mut reader = BufReader::new(&stream);
            let first: Frame = read_frame(&mut reader)
                .expect("first frame decodes")
                .expect("response before the error");
            assert_eq!(
                first.kind,
                FrameKind::Resp,
                "{label}: response precedes ERR"
            );
            assert_eq!(first.stream, 9, "{label}");
            let second: Frame = read_frame(&mut reader)
                .expect("second frame decodes")
                .unwrap_or_else(|| panic!("{label}: missing ERR frame"));
            assert_eq!(second.kind, FrameKind::Err, "{label}");
            let message = String::from_utf8_lossy(&second.payload).into_owned();
            assert!(message.contains("protocol error"), "{label}: {message}");
            assert!(
                read_frame(&mut reader).expect("clean close").is_none(),
                "{label}: connection closes after ERR"
            );
        });
    }
}

#[test]
fn a_stream_past_the_per_connection_limit_gets_an_in_order_error_and_spares_a_sibling() {
    use countertrust::serve::proto::MAX_STREAMS;
    let program = kernel(4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 23);
    let line = serde_json::to_string(&request).unwrap();
    let sibling = streams_for(&machines, 1).remove(0);
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);
    let limit = u32::try_from(MAX_STREAMS).unwrap();

    // One connection answers a request on stream 0, opens streams
    // 1..limit with blank frames (never answered, yet each opens a
    // stream), then sends a request on one stream too many; a second v2
    // client runs concurrently. Outcomes are checked after the server
    // shut down, so a wrong one fails the test instead of hanging it.
    let ((first, refused, after, concurrent), stats) =
        with_server(&service, NetOptions::default(), |addr| {
            std::thread::scope(|scope| {
                let concurrent = scope.spawn(|| exchange_v2(addr, &[wire(&sibling)]));
                let mut client = V2Client::connect(addr).expect("v2 connect");
                client
                    .set_timeout(Some(std::time::Duration::from_secs(60)))
                    .expect("timeout");
                client.send_line(0, &line).expect("send");
                for id in 1..limit {
                    client.send_line(id, "").expect("send blank");
                }
                client.send_line(limit, &line).expect("send");
                client.flush().expect("flush");
                let first = client.recv();
                let refused = client.recv();
                // Only a refused stream ends the session; read on only then.
                let after = refused.is_err().then(|| client.recv());
                let concurrent = concurrent.join().expect("sibling client");
                (first, refused, after, concurrent)
            })
        });

    let offline = |requests: &[EvalRequest]| {
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(1);
        let mut out = Vec::new();
        service
            .serve_pipelined(
                wire(requests).as_bytes(),
                &mut out,
                &PipelineOptions::default(),
            )
            .unwrap();
        String::from_utf8(out).unwrap()
    };
    assert_eq!(
        first.expect("stream 0 answered"),
        Some((0, offline(std::slice::from_ref(&request))))
    );
    let refused = refused.expect_err("ERR for the stream past the limit");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    let message = refused.to_string();
    let expected = format!("stream {limit} exceeds the limit of {MAX_STREAMS} streams");
    assert_eq!(
        message.matches("protocol error").count(),
        1,
        "the client names the protocol error once: {message}"
    );
    assert!(message.contains(&expected), "{message}");
    assert!(
        matches!(after, Some(Ok(None))),
        "the connection closes after ERR: {after:?}"
    );
    let concurrent = concurrent.expect("sibling exchange");
    assert_eq!(concurrent[0], offline(&sibling), "the concurrent sibling");
    assert_eq!(stats.connections, 2);
    assert_eq!(
        (stats.io_errors, stats.worker_panics, stats.parse_errors),
        (0, 0, 1)
    );
}

#[test]
fn over_cap_runs_on_a_v2_stream_get_an_in_order_error_and_spare_its_siblings() {
    use countertrust::serve::MAX_RUNS;
    let program = kernel(8_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let good = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 1, 5);
    let hostile = [
        good.clone(),
        EvalRequest {
            runs: 4_000_000_000,
            ..good.clone()
        },
        EvalRequest {
            seed: 6,
            ..good.clone()
        },
    ];
    let streams = streams_for(&machines, 2);
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    // One v2 connection carries the hostile stream next to a
    // well-behaved one while a second v2 client runs concurrently; a
    // last session follows once both are answered.
    let ((session, concurrent, follow_up), stats) =
        with_server(&service, NetOptions::default(), |addr| {
            std::thread::scope(|scope| {
                let concurrent =
                    scope.spawn(|| exchange_v2(addr, &[wire(&streams[1])]).expect("concurrent"));
                let session =
                    exchange_v2(addr, &[wire(&hostile), wire(&streams[0])]).expect("v2 exchange");
                let concurrent = concurrent.join().expect("concurrent client");
                let follow_up = exchange_v2(addr, &[wire(&hostile[..1])]).expect("follow-up");
                (session, concurrent, follow_up)
            })
        });
    assert_eq!(stats.connections, 3);
    assert_eq!(
        (stats.io_errors, stats.worker_panics, stats.parse_errors),
        (0, 0, 0)
    );

    let offline = |requests: &[EvalRequest]| {
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(1);
        let mut out = Vec::new();
        service
            .serve_pipelined(
                wire(requests).as_bytes(),
                &mut out,
                &PipelineOptions::default(),
            )
            .unwrap();
        String::from_utf8(out).unwrap()
    };
    let lines: Vec<&str> = session[0].lines().collect();
    assert_eq!(lines.len(), 3, "one response per request, in order");
    let rejected: EvalResponse = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(rejected.request, hostile[1]);
    assert!(rejected.stats.is_none());
    let expected = format!("runs 4000000000 exceeds the limit of {MAX_RUNS}");
    assert_eq!(rejected.error.as_deref(), Some(expected.as_str()));
    assert_eq!(format!("{}\n", lines[0]), offline(&hostile[..1]));
    assert_eq!(format!("{}\n", lines[2]), offline(&hostile[2..]));
    assert_eq!(session[1], offline(&streams[0]), "the sibling stream");
    assert_eq!(concurrent[0], offline(&streams[1]), "the concurrent client");
    assert_eq!(
        follow_up[0],
        offline(&hostile[..1]),
        "the follow-up session"
    );
}

#[test]
fn malformed_json_inside_v2_matches_v1_parse_errors() {
    let program = kernel(4_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let request = serde_json::to_string(&EvalRequest::new(
        "Ivy Bridge (Xeon E3-1265L)",
        "k",
        "lbr",
        1,
        4,
    ))
    .unwrap();
    // Bad JSON, a good request, a blank line, more bad JSON, a line that
    // is not UTF-8, and a good request after it.
    let lines: [&[u8]; 6] = [
        b"not json at all",
        request.as_bytes(),
        b"",
        b"also not json",
        b"\xff\xfe not utf-8",
        request.as_bytes(),
    ];
    let v1_wire: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.iter().chain(b"\n"))
        .copied()
        .collect();
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(2);

    let (v2, v2_stats) = with_server(&service, NetOptions::default(), |addr| {
        exchange_frames(addr, &lines)
    });
    let (v1, v1_stats) = with_server(&service, NetOptions::default(), |addr| {
        exchange_bytes(addr, &v1_wire)
    });
    let v1 = String::from_utf8(v1).expect("responses are UTF-8");
    let v2 = String::from_utf8(v2).expect("responses are UTF-8");
    assert_eq!(
        v2, v1,
        "parse errors (and their line numbers, counting blanks) must match v1"
    );
    let responses: Vec<EvalResponse> = v1
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 5, "one response per non-blank line");
    let error = |i: usize| responses[i].error.clone().unwrap_or_default();
    assert!(error(0).contains("parse error on line 1"));
    assert!(responses[1].is_ok());
    assert!(
        error(2).contains("parse error on line 4"),
        "blank line 3 still counts"
    );
    assert!(
        error(3).contains("parse error on line 5: invalid UTF-8"),
        "a non-UTF-8 v1 line is answered in order: {}",
        error(3)
    );
    assert!(responses[4].is_ok(), "and reading goes on after it");

    // Blank lines are skipped by both protocols, so neither counts them.
    for (proto, stats) in [("v1", v1_stats), ("v2", v2_stats)] {
        assert_eq!(stats.lines, 5, "{proto}: {stats:?}");
        assert_eq!(
            (stats.requests, stats.parse_errors),
            (2, 3),
            "{proto}: {stats:?}"
        );
        assert_eq!(stats.io_errors, 0, "{proto}: {stats:?}");
    }
}

#[test]
fn v2_latency_stamps_carry_queue_and_build_time() {
    let program = kernel(20_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "classic", 1, 5);
    let line = serde_json::to_string(&request).unwrap();
    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);
    let options = NetOptions::new().pipeline(PipelineOptions::new().record_latency(true));

    // A cold pair: the chunk's attach step runs a reference build, and
    // the v2 response must account for it.
    let (reply, _) = with_server(&service, options, |addr| {
        exchange_frames(addr, &[line.as_bytes()])
    });
    let reply = String::from_utf8(reply).expect("responses are UTF-8");
    let response: EvalResponse = serde_json::from_str(reply.trim_end()).expect("one response line");
    assert!(response.is_ok(), "{:?}", response.error);
    let latency = response
        .latency
        .expect("v2 responses are stamped under record_latency");
    assert!(
        latency.build_us > 0,
        "a cold pair builds a reference: {latency:?}"
    );
    assert!(latency.eval_us > 0, "{latency:?}");
    assert_eq!(service.stats().builds, 1);
}

/// A failing assertion inside a loopback test body must fail the test,
/// not hang it: the helper shuts its server down while the panic
/// unwinds, and the panic reaches the caller.
#[test]
fn a_panicking_body_shuts_the_loopback_server_down_and_fails() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let program = kernel(1_000);
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let service = EvalService::new(&[MachineModel::ivy_bridge()], &workloads);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_server(&service, NetOptions::default(), |_| {
                panic!("an assertion inside the body failed")
            })
        }));
        let _ = done.send(outcome.map(drop));
    });
    let outcome = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the helper returns within the bound instead of hanging");
    let payload = outcome.expect_err("the body's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"an assertion inside the body failed")
    );
}
