//! Property tests for the protocol v2 frame codec and negotiation: any
//! payload round-trips exactly, any truncation is rejected as
//! `Truncated`, arbitrary pre-handshake bytes never wedge or crash the
//! server, and any split of a request batch across logical streams
//! yields per-stream bytes identical to the offline pipeline.

use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::net::NetOptions;
use countertrust::serve::proto::{
    exchange_v2, read_frame, write_frame, FrameError, FrameKind, FRAME_HEADER_LEN,
};
use countertrust::serve::{EvalRequest, EvalService};
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::{MachineModel, RunConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
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

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Req),
        Just(FrameKind::Resp),
        Just(FrameKind::Err),
        Just(FrameKind::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any (kind, stream, payload) round-trips through the codec
    /// byte-exactly, and the wire size is exactly header + payload.
    #[test]
    fn frame_codec_round_trips(
        kind in arb_kind(),
        stream in 0u32..=u32::MAX,
        payload in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, stream, &payload).unwrap();
        prop_assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
        let mut cursor = wire.as_slice();
        let frame = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.stream, stream);
        prop_assert_eq!(frame.payload, payload);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none(), "exactly one frame");
    }

    /// Cutting the wire anywhere inside a frame is always `Truncated` —
    /// never a bogus decode, never a panic. (Cutting at 0 is a clean
    /// EOF by definition.)
    #[test]
    fn any_truncation_is_rejected(
        kind in arb_kind(),
        stream in 0u32..=u32::MAX,
        payload in prop::collection::vec(0u8..=255, 1..128),
        cut_seed in 0usize..1_000_000,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, stream, &payload).unwrap();
        let cut = 1 + cut_seed % (wire.len() - 1);
        let result = read_frame(&mut &wire[..cut]);
        prop_assert!(
            matches!(result, Err(FrameError::Truncated)),
            "cut at {} of {}", cut, wire.len()
        );
    }

    /// Garbage kind bytes are rejected as `BadKind`, not misparsed.
    #[test]
    fn unknown_kinds_are_rejected(bad in 5u8..=255, stream in 0u32..=u32::MAX) {
        let mut wire = vec![bad];
        wire.extend_from_slice(&stream.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        prop_assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(FrameError::BadKind(b)) if b == bad
        ));
    }
}

proptest! {
    // Each case binds a real loopback server, so keep the count modest:
    // this is a fuzz pass over the negotiation path, not a throughput
    // test.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary pre-handshake bytes — empty, partial preambles, NUL
    /// garbage, valid JSON — never crash, wedge, or leak the
    /// connection: the server always answers *something* and closes.
    #[test]
    fn arbitrary_first_bytes_never_wedge_the_server(
        first_bytes in prop::collection::vec(0u8..=255, 0..24),
    ) {
        let program = kernel(1_000);
        let run_config = RunConfig::default();
        let workloads =
            [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(1);

        let ((), stats) = with_server(&service, NetOptions::default(), |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            stream.write_all(&first_bytes).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = Vec::new();
            // The server must terminate the connection on its own —
            // a wedged connection would trip the read timeout here.
            stream.read_to_end(&mut reply).unwrap();
        });
        prop_assert_eq!(stats.connections, 1);
    }
}

proptest! {
    // Real evaluations per case — a handful of cases is plenty to cover
    // the split space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any way of splitting a request batch across 1–3 logical streams
    /// multiplexed on one v2 connection yields, per stream, exactly the
    /// offline bytes of that stream's sub-batch.
    #[test]
    fn any_stream_split_preserves_per_stream_bytes(
        assignment in proptest::collection::vec(0usize..3, 1..6),
        seed_base in 0u64..1000,
    ) {
        let program = kernel(2_000);
        let run_config = RunConfig::default();
        let workloads =
            [WorkloadSpec { name: "k", program: &program, run_config: &run_config }];
        let machines = [MachineModel::ivy_bridge()];
        let methods = ["classic", "lbr", "precise"];

        let mut streams: Vec<Vec<EvalRequest>> = vec![Vec::new(); 3];
        for (i, &stream_id) in assignment.iter().enumerate() {
            streams[stream_id].push(EvalRequest::new(
                "Ivy Bridge (Xeon E3-1265L)",
                "k",
                methods[i % methods.len()],
                1,
                seed_base + i as u64,
            ));
        }
        let wires: Vec<String> = streams
            .iter()
            .map(|s| {
                s.iter()
                    .map(|r| serde_json::to_string(r).unwrap() + "\n")
                    .collect()
            })
            .collect();

        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(2);
        let (replies, _) = with_server(&service, NetOptions::default(), |addr| {
            exchange_v2(addr, &wires).unwrap()
        });

        for (s, sub) in streams.iter().enumerate() {
            let offline = EvalService::new(&machines, &workloads)
                .method_options(MethodOptions::fast())
                .threads(2);
            let expected = offline.serve_jsonl(sub);
            prop_assert_eq!(
                &replies[s], &expected,
                "stream {} of split {:?}", s, assignment
            );
        }
    }
}
