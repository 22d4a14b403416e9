//! Chunked-intake guarantees: the serve loop
//! ([`countertrust::serve::EvalService::serve_pipelined`]) degenerates
//! gracefully (empty stream, single request), keeps draining past
//! malformed lines (answering them in order), stops at a line over the
//! 1 MiB cap after answering it, and — the acceptance contract —
//! produces byte-identical output to the batched service for the same
//! stream at any thread count and chunk size.

use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::{EvalRequest, EvalResponse, EvalService, PipelineOptions};
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::{MachineModel, RunConfig};

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

fn service<'a>(
    machines: &'a [MachineModel],
    workloads: &'a [WorkloadSpec<'a>],
    threads: usize,
) -> EvalService {
    EvalService::new(machines, workloads)
        .method_options(MethodOptions::fast())
        .threads(threads)
}

/// The stream's JSON-lines wire form (mirrors
/// `ct_bench::streams::to_wire`; this test binary is wired into
/// countertrust, which cannot depend on ct-bench).
fn wire(requests: &[EvalRequest]) -> String {
    requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect()
}

fn sample_requests(machines: &[MachineModel]) -> Vec<EvalRequest> {
    let mut requests = Vec::new();
    for (i, (method, runs)) in [("classic", 1), ("lbr", 1), ("precise", 2), ("classic", 1)]
        .iter()
        .enumerate()
    {
        requests.push(EvalRequest::new(
            &machines[i % machines.len()].name,
            "k",
            method,
            *runs,
            i as u64 + 1,
        ));
    }
    requests
}

#[test]
fn empty_stream_produces_no_output_and_no_work() {
    let program = kernel(5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let svc = service(&machines, &workloads, 4);
    let mut out = Vec::new();
    let stats = svc
        .serve_pipelined("".as_bytes(), &mut out, &PipelineOptions::default())
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(stats.responses, 0);
    assert_eq!(stats.chunks, 0);
    assert_eq!(svc.stats().requests, 0);
}

#[test]
fn single_request_round_trips() {
    let program = kernel(10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let request = EvalRequest::new("Ivy Bridge (Xeon E3-1265L)", "k", "lbr", 2, 9);

    let svc = service(&machines, &workloads, 4);
    let mut out = Vec::new();
    let stats = svc
        .serve_pipelined(wire(&[request.clone()]).as_bytes(), &mut out, &PipelineOptions::default())
        .unwrap();
    assert_eq!((stats.lines, stats.requests, stats.responses), (1, 1, 1));

    let line = String::from_utf8(out).unwrap();
    let response: EvalResponse = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(response.request, request);
    assert!(response.is_ok(), "{:?}", response.error);
    // And it matches what the batched path answers.
    assert_eq!(
        line,
        service(&machines, &workloads, 1).serve_jsonl(&[request]),
        "single pipelined request must match batched"
    );
}

#[test]
fn malformed_lines_answer_in_order_and_the_pipeline_keeps_draining() {
    let program = kernel(10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let good = sample_requests(&machines);
    let input = format!(
        "{}{{\"oops\": true\n{}not even json\n{}",
        serde_json::to_string(&good[0]).map(|s| s + "\n").unwrap(),
        serde_json::to_string(&good[2]).map(|s| s + "\n").unwrap(),
        serde_json::to_string(&good[3]).map(|s| s + "\n").unwrap(),
    );

    // Tiny chunks so the bad lines land mid-stream across chunk cuts.
    let svc = service(&machines, &workloads, 4);
    let mut out = Vec::new();
    let stats = svc
        .serve_pipelined(input.as_bytes(), &mut out, &PipelineOptions::new().chunk(2))
        .unwrap();
    assert_eq!(stats.lines, 5);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.parse_errors, 2);
    assert_eq!(stats.responses, 5);

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one response per non-empty line");
    let parsed: Vec<EvalResponse> = lines
        .iter()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    // Responses come back at the stream positions of their lines: good,
    // bad, good, bad, good — the pipeline drains everything after errors.
    assert!(parsed[0].is_ok());
    assert!(parsed[1].error.as_ref().unwrap().contains("parse error on line 2"));
    assert!(parsed[2].is_ok());
    assert!(parsed[3].error.as_ref().unwrap().contains("parse error on line 4"));
    assert!(parsed[4].is_ok());
    assert_eq!(parsed[0].request, good[0]);
    assert_eq!(parsed[2].request, good[2]);
    assert_eq!(parsed[4].request, good[3]);
    assert_eq!(svc.stats().errors, 2, "parse errors are counted as errors");
}

#[test]
fn over_long_line_is_answered_in_order_then_reading_stops() {
    use countertrust::serve::proto::MAX_FRAME_PAYLOAD;
    let program = kernel(5_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let request = sample_requests(&machines).remove(0);
    let good = wire(std::slice::from_ref(&request));
    let input = format!("{good}{}\n{good}", "x".repeat(2 << 20));

    let svc = service(&machines, &workloads, 2);
    let mut out = Vec::new();
    let stats = svc
        .serve_pipelined(input.as_bytes(), &mut out, &PipelineOptions::default())
        .expect("an over-long line is answered, not an I/O error");
    assert_eq!((stats.lines, stats.requests, stats.parse_errors), (2, 1, 1));
    assert_eq!(stats.responses, 2, "nothing after the over-long line is read");

    let text = String::from_utf8(out).unwrap();
    let parsed: Vec<EvalResponse> =
        text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[0].request, request, "the good line is answered first");
    assert!(parsed[0].is_ok(), "{:?}", parsed[0].error);
    let error = parsed[1].error.as_deref().unwrap();
    assert!(error.contains("parse error on line 2"), "{error}");
    assert!(error.contains(&MAX_FRAME_PAYLOAD.to_string()), "{error}");

    // A line of exactly the cap still parses (as bad JSON, not as too long).
    let at_cap = format!("{}\n", "y".repeat(MAX_FRAME_PAYLOAD as usize));
    let mut out = Vec::new();
    let stats = svc
        .serve_pipelined(at_cap.as_bytes(), &mut out, &PipelineOptions::default())
        .unwrap();
    assert_eq!((stats.parse_errors, stats.responses), (1, 1));
    assert!(!String::from_utf8(out).unwrap().contains(&MAX_FRAME_PAYLOAD.to_string()));
}

#[test]
fn record_latency_stamps_responses_and_changes_nothing_else() {
    let program = kernel(10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge()];
    let good = sample_requests(&machines);
    let input = format!(
        "{}not json at all\n{}",
        wire(&good[..2]),
        wire(&good[2..])
    );

    // Reference run: latency recording off (the default).
    let untimed = service(&machines, &workloads, 4);
    let mut plain = Vec::new();
    untimed
        .serve_pipelined(input.as_bytes(), &mut plain, &PipelineOptions::new().chunk(2))
        .unwrap();
    let plain = String::from_utf8(plain).unwrap();
    assert!(
        !plain.contains("latency"),
        "untimed responses must not even mention the latency key"
    );
    assert_eq!(untimed.stats().timed_requests, 0);
    assert_eq!(untimed.stats().latency_p99_us, 0);

    // Timed run: every request-response carries queue/build/eval micros;
    // stripping the stamp restores the untimed bytes exactly.
    let timed = service(&machines, &workloads, 4);
    let mut out = Vec::new();
    let stats = timed
        .serve_pipelined(
            input.as_bytes(),
            &mut out,
            &PipelineOptions::new().chunk(2).record_latency(true),
        )
        .unwrap();
    assert_eq!((stats.requests, stats.parse_errors), (4, 1));
    let timed_lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(timed_lines.len(), plain.lines().count());
    for (timed_line, plain_line) in timed_lines.iter().zip(plain.lines()) {
        let mut response: EvalResponse = serde_json::from_str(timed_line).unwrap();
        if response.error.as_deref().is_some_and(|e| e.contains("parse error")) {
            // Parse errors never reach the evaluator; they carry no stamp.
            assert!(response.latency.is_none());
        } else {
            let latency = response.latency.expect("timed request-responses are stamped");
            assert_eq!(
                latency.total_us(),
                latency.queue_us + latency.build_us + latency.eval_us
            );
        }
        response.latency = None;
        assert_eq!(
            serde_json::to_string(&response).unwrap(),
            plain_line,
            "latency stamping must change nothing but the stamp"
        );
    }

    let serve_stats = timed.stats();
    assert_eq!(serve_stats.timed_requests, 4, "one stamp per parsed request");
    assert!(serve_stats.latency_p99_us >= serve_stats.latency_p50_us);
}

/// Depth one: the loop holds one chunk at a time, so each chunk's bytes
/// are exactly one batched call's, for every chunk size and thread
/// count.
#[test]
fn depth_one_pipeline_is_byte_identical_to_batched_chunks() {
    let program = kernel(10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let requests = sample_requests(&machines);

    for chunk in [1, 2, 3, 64] {
        let batched = service(&machines, &workloads, 4);
        let mut expected = String::new();
        for batch in requests.chunks(chunk) {
            expected.push_str(&batched.serve_jsonl(batch));
        }
        for threads in [1, 8] {
            let svc = service(&machines, &workloads, threads);
            let mut out = Vec::new();
            svc.serve_pipelined(
                wire(&requests).as_bytes(),
                &mut out,
                &PipelineOptions::new().chunk(chunk),
            )
            .unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                expected,
                "chunk {chunk}, threads {threads}: diverged from batched"
            );
        }
    }
}

#[test]
fn capacity_never_changes_pipelined_bytes() {
    let program = kernel(10_000);
    let run_config = RunConfig::default();
    let workloads = [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
    let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
    let requests = sample_requests(&machines);

    let reference = service(&machines, &workloads, 4);
    let mut expected = Vec::new();
    reference
        .serve_pipelined(wire(&requests).as_bytes(), &mut expected, &PipelineOptions::new().chunk(2))
        .unwrap();

    // An unbounded cache and every thrash-prone capacity must reproduce
    // the default bytes exactly.
    for capacity in 0..=3 {
        let svc = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(3)
            .cache_capacity(capacity);
        let mut out = Vec::new();
        svc.serve_pipelined(wire(&requests).as_bytes(), &mut out, &PipelineOptions::new().chunk(2))
            .unwrap();
        assert_eq!(out, expected, "capacity {capacity} changed bytes");
    }
}
