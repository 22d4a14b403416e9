//! Golden per-instruction event traces for the `sim::exec` interpreter.
//!
//! The dispatch loop in `crates/sim/src/exec.rs` is a hot-path
//! optimization target (ROADMAP item 4), and the whole determinism
//! contract of the serving tier bottoms out in the retirement-event
//! stream it produces: if one event's cycle stamp moves, every profile,
//! reference and response built on top changes. These tests pin the
//! exact stream — every field of every [`ct_sim::RetireEvent`], in
//! order — for the full workload registry (the 4 kernels and 5
//! application proxies) on all three paper machines, as an FNV-1a
//! digest captured from the pre-optimization interpreter. Any future
//! dispatch-loop restructuring must reproduce all 27 traces bit for
//! bit.
//!
//! Regenerating (only legitimate when the *machine model* itself
//! changes, never for an interpreter refactor):
//!
//! ```text
//! GOLDEN_EXEC_REGEN=1 cargo test -p ct-bench --test golden_exec_traces -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use ct_isa::InsnClass;
use ct_sim::exec::run_with;
use ct_sim::{MachineModel, RetireEvent, RetireObserver, RunSummary};

/// 64-bit FNV-1a over a byte stream, fed incrementally.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// A stable (test-local) encoding of the instruction class: the enum has
/// no guaranteed discriminants, so the digest assigns its own.
fn class_code(class: InsnClass) -> u64 {
    match class {
        InsnClass::Alu => 0,
        InsnClass::Mul => 1,
        InsnClass::Div => 2,
        InsnClass::FpAdd => 3,
        InsnClass::FpMul => 4,
        InsnClass::FpDiv => 5,
        InsnClass::Load => 6,
        InsnClass::Store => 7,
        InsnClass::Jump => 8,
        InsnClass::Branch => 9,
        InsnClass::Call => 10,
        InsnClass::Ret => 11,
        InsnClass::Other => 12,
    }
}

/// Streams every retired instruction into the digest — no allocation, so
/// the traces stay cheap even for the larger proxies.
struct DigestObserver {
    fnv: Fnv,
    events: u64,
}

impl RetireObserver for DigestObserver {
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.fnv.write_u64(u64::from(ev.addr));
        self.fnv.write_u64(ev.seq);
        self.fnv.write_u64(ev.cycle);
        self.fnv.write_u64(u64::from(ev.uops));
        self.fnv.write_u64(class_code(ev.class));
        match ev.taken_target {
            Some(t) => {
                self.fnv.write_u64(1);
                self.fnv.write_u64(u64::from(t));
            }
            None => self.fnv.write_u64(0),
        }
        self.fnv.write_u64(u64::from(ev.mispredicted));
        self.events += 1;
    }

    fn on_finish(&mut self, final_cycle: u64) {
        self.fnv.write_u64(0xF1AA_17E0_F1AA_17E0);
        self.fnv.write_u64(final_cycle);
    }
}

/// One golden row: the event-stream digest plus the summary fields that
/// must agree with it, including the branch-predictor and cache-model
/// counters so a state-layout rewrite of either is provably
/// behavior-preserving.
struct Trace {
    digest: u64,
    instructions: u64,
    cycles: u64,
    result: i64,
    /// `BranchPredictor::stats()`: (lookups, mispredicts).
    bpred: (u64, u64),
    /// `CacheModel::stats()`: (L1 hits, L2 hits, memory accesses).
    cache: (u64, u64, u64),
}

/// Workload scale for the traces: small enough to run all 27 cells in a
/// few seconds, large enough that every kernel loops, calls, loads and
/// mispredicts (the clamp floors in the registry guarantee ≥100
/// iterations).
const SCALE: f64 = 0.01;

fn trace(machine: &MachineModel, workload: &ct_workloads::Workload) -> Trace {
    let mut obs = DigestObserver {
        fnv: Fnv::new(),
        events: 0,
    };
    let summary: RunSummary = run_with(machine, &workload.program, &workload.run_config, &mut obs)
        .expect("registry workloads run to completion");
    assert_eq!(
        obs.events, summary.instructions,
        "observer must see every retired instruction"
    );
    Trace {
        digest: obs.fnv.0,
        instructions: summary.instructions,
        cycles: summary.cycles,
        result: summary.result,
        bpred: (summary.bp_lookups, summary.mispredicts),
        cache: (summary.l1_hits, summary.l2_hits, summary.mem_accesses),
    }
}

/// One golden row as stored in [`GOLDEN`]: machine, workload, digest,
/// instructions, cycles, result, `(bp_lookups, mispredicts)`,
/// `(l1_hits, l2_hits, mem_accesses)`.
type GoldenRow = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    i64,
    (u64, u64),
    (u64, u64, u64),
);

/// Captured from the pre-optimization interpreter (PR 6; predictor and
/// cache counters captured from the pre-rewrite state layout in PR 9).
/// Row order: machine-major over [`MachineModel::paper_machines`], then
/// workload order of [`ct_workloads::all`] at [`SCALE`].
const GOLDEN: &[GoldenRow] = &[
    // (machine, workload, digest, instructions, cycles, result,
    //  (bp_lookups, mispredicts), (l1_hits, l2_hits, mem_accesses))
    (
        "Magny-Cours (Opteron 6164 HE)",
        "latency_biased",
        0x1c4916f68012996f,
        152005,
        769540,
        1,
        (38000, 19002),
        (0, 0, 0),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "callchain",
        0x56a3ae52a0b86b86,
        162802,
        54307,
        0,
        (1850, 2),
        (0, 0, 0),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "g4box",
        0xc9ca65f18a32a49d,
        100323,
        137286,
        13607,
        (28281, 5356),
        (0, 0, 0),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "test40",
        0xd81acac1ffff8c1f,
        99688,
        154024,
        27,
        (12684, 3753),
        (0, 0, 0),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "mcf",
        0xa0733e81d218fc11,
        473566,
        313377,
        12877,
        (71268, 3907),
        (77610, 8534, 8192),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "povray",
        0xca83a51610be1f0c,
        207204,
        579514,
        2720,
        (16900, 7031),
        (0, 0, 0),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "omnetpp",
        0x45d02a5f9fab75e2,
        300723,
        317400,
        13393,
        (64058, 9582),
        (100731, 0, 89),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "xalancbmk",
        0xb5812cc99abd5aed,
        3237845,
        7867204,
        1318517,
        (920170, 329725),
        (851918, 399, 1025),
    ),
    (
        "Magny-Cours (Opteron 6164 HE)",
        "fullcms",
        0xc295f22039c2e7a3,
        99032,
        227685,
        1,
        (17332, 3763),
        (0, 0, 0),
    ),
    (
        "Westmere (Xeon X5650)",
        "latency_biased",
        0x54c1ba8482c87fbb,
        152005,
        551036,
        1,
        (38000, 19002),
        (0, 0, 0),
    ),
    (
        "Westmere (Xeon X5650)",
        "callchain",
        0xdae2fb099c1d818f,
        162802,
        40734,
        0,
        (1850, 2),
        (0, 0, 0),
    ),
    (
        "Westmere (Xeon X5650)",
        "g4box",
        0xfb10f851e299e142,
        100323,
        113093,
        13607,
        (28281, 5356),
        (0, 0, 0),
    ),
    (
        "Westmere (Xeon X5650)",
        "test40",
        0xcf39c463b1bb5127,
        99688,
        130194,
        27,
        (12684, 3753),
        (0, 0, 0),
    ),
    (
        "Westmere (Xeon X5650)",
        "mcf",
        0x95a21dba613331d5,
        473566,
        981433,
        12877,
        (71268, 3907),
        (77135, 3819, 13382),
    ),
    (
        "Westmere (Xeon X5650)",
        "povray",
        0x8562394fba3c3021,
        207204,
        511383,
        2720,
        (16900, 7031),
        (0, 0, 0),
    ),
    (
        "Westmere (Xeon X5650)",
        "omnetpp",
        0x4de8422dea1af65e,
        300723,
        268686,
        13393,
        (64058, 9582),
        (100731, 0, 89),
    ),
    (
        "Westmere (Xeon X5650)",
        "xalancbmk",
        0xede33cd303c17913,
        3237845,
        7118246,
        1318517,
        (920170, 329725),
        (801117, 51200, 1025),
    ),
    (
        "Westmere (Xeon X5650)",
        "fullcms",
        0xbec496c7086a5871,
        99032,
        197307,
        1,
        (17332, 3763),
        (0, 0, 0),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "latency_biased",
        0x5980c5d141983c18,
        152005,
        465530,
        1,
        (38000, 19002),
        (0, 0, 0),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "callchain",
        0x6c5e88a712686067,
        162802,
        40728,
        0,
        (1850, 2),
        (0, 0, 0),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "g4box",
        0xcd5319af439eeb24,
        100323,
        97025,
        13607,
        (28281, 5356),
        (0, 0, 0),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "test40",
        0x993efff8035a3473,
        99688,
        109785,
        27,
        (12684, 3753),
        (0, 0, 0),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "mcf",
        0x9b0fa494ee74de34,
        473566,
        969712,
        12877,
        (71268, 3907),
        (77135, 3819, 13382),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "povray",
        0xdceaad6dd09bb236,
        207204,
        426450,
        2720,
        (16900, 7031),
        (0, 0, 0),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "omnetpp",
        0xa7b9defae8b84d23,
        300723,
        239940,
        13393,
        (64058, 9582),
        (100731, 0, 89),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "xalancbmk",
        0x64dff5e37767113c,
        3237845,
        6129071,
        1318517,
        (920170, 329725),
        (801117, 51200, 1025),
    ),
    (
        "Ivy Bridge (Xeon E3-1265L)",
        "fullcms",
        0x75c1078350221786,
        99032,
        162918,
        1,
        (17332, 3763),
        (0, 0, 0),
    ),
];

#[test]
fn event_traces_match_the_golden_digests() {
    let machines = MachineModel::paper_machines();
    let workloads = ct_workloads::all(SCALE);
    if std::env::var_os("GOLDEN_EXEC_REGEN").is_some() {
        println!("const GOLDEN: &[GoldenRow] = &[");
        for m in &machines {
            for w in &workloads {
                let t = trace(m, w);
                println!(
                    "    (\"{}\", \"{}\", 0x{:016x}, {}, {}, {}, ({}, {}), ({}, {}, {})),",
                    m.name,
                    w.name,
                    t.digest,
                    t.instructions,
                    t.cycles,
                    t.result,
                    t.bpred.0,
                    t.bpred.1,
                    t.cache.0,
                    t.cache.1,
                    t.cache.2
                );
            }
        }
        println!("];");
        return;
    }
    assert_eq!(
        GOLDEN.len(),
        machines.len() * workloads.len(),
        "golden table must cover the full machine × workload grid"
    );
    let mut idx = 0;
    for m in &machines {
        for w in &workloads {
            let (gm, gw, digest, instructions, cycles, result, bpred, cache) = GOLDEN[idx];
            assert_eq!(
                (gm, gw),
                (m.name.as_str(), w.name.as_str()),
                "row order drifted"
            );
            let t = trace(m, w);
            assert_eq!(
                t.digest, digest,
                "{gm}/{gw}: event-stream digest diverged from the golden trace"
            );
            assert_eq!(t.instructions, instructions, "{gm}/{gw}: instruction count");
            assert_eq!(t.cycles, cycles, "{gm}/{gw}: cycle count");
            assert_eq!(t.result, result, "{gm}/{gw}: workload result (r0)");
            assert_eq!(
                t.bpred, bpred,
                "{gm}/{gw}: branch-predictor (lookups, mispredicts)"
            );
            assert_eq!(
                t.cache, cache,
                "{gm}/{gw}: cache (l1_hits, l2_hits, mem_accesses)"
            );
            idx += 1;
        }
    }
}

/// The digest is sensitive to every field it claims to cover: flipping
/// any one event field must change it. (Guards against a refactor of the
/// digest itself silently weakening the golden contract.)
#[test]
fn digest_is_sensitive_to_every_event_field() {
    let base = RetireEvent {
        addr: 7,
        seq: 3,
        cycle: 11,
        uops: 2,
        class: InsnClass::Alu,
        taken_target: None,
        mispredicted: false,
    };
    let digest_of = |ev: &RetireEvent| {
        let mut obs = DigestObserver {
            fnv: Fnv::new(),
            events: 0,
        };
        obs.on_retire(ev);
        obs.fnv.0
    };
    let reference = digest_of(&base);
    let variants = [
        RetireEvent { addr: 8, ..base },
        RetireEvent { seq: 4, ..base },
        RetireEvent { cycle: 12, ..base },
        RetireEvent { uops: 3, ..base },
        RetireEvent {
            class: InsnClass::Mul,
            ..base
        },
        RetireEvent {
            taken_target: Some(9),
            ..base
        },
        RetireEvent {
            mispredicted: true,
            ..base
        },
    ];
    for (i, v) in variants.iter().enumerate() {
        assert_ne!(
            digest_of(v),
            reference,
            "variant {i} must perturb the digest"
        );
    }
}
