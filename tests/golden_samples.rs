//! Golden sample streams for the `ct-pmu` sampler and golden reference
//! profiles for `ct-instrument`.
//!
//! `golden_exec_traces` pins the retirement stream; this file pins what
//! the two measurement tools make of it. Every field of every
//! [`SampleBatch`] (reported and trigger IP and seq, cycle, frozen LBR,
//! both drop counters and the event total) and of the sampler's
//! [`SamplerStats`] is folded into an FNV-1a digest for:
//!
//! * the 27 machine × workload pairs × every method the machine supports,
//!   under both [`MethodOptions::fast`] and [`MethodOptions::default`];
//! * the off-default configurations the sampler branches on — LBR
//!   filters and call-stack mode, LBR depths 4 and 32, a 0.5 PMI drop
//!   rate and a period of 5, which forces collisions — each over the four
//!   kernels and every method it changes;
//!
//! and every field of the [`ReferenceProfile`] of the 9 workloads plus
//! one fuel-capped run that stops in the middle of a basic block. The
//! reference counts retirements only, so each row holds on every paper
//! machine, and so do the per-address retirement counts beneath it.
//!
//! A change to how the sampler or the reference observe the stream
//! (batching, skipping, buffering) must reproduce every row bit for bit,
//! and so must one `Cpu::run` pass that drives every method's sampler of
//! a pair at once.
//!
//! Regenerating (only legitimate when the *sampling or machine model*
//! itself changes, never for a refactor or an optimization):
//!
//! ```text
//! GOLDEN_SAMPLES_REGEN=1 cargo test -p ct-bench --test golden_samples -- --nocapture
//! ```
//!
//! and paste the printed tables over `GOLDEN_SAMPLES`, `GOLDEN_VARIANTS`
//! and `GOLDEN_REFERENCES`.

use countertrust::methods::{MethodKind, MethodOptions};
use ct_instrument::ReferenceProfile;
use ct_isa::Cfg;
use ct_pmu::{
    LbrEntry, LbrFilter, LbrMode, Sample, SampleBatch, Sampler, SamplerConfig, SamplerStats,
};
use ct_sim::{
    count_retired, Cpu, MachineModel, RetireEvent, RetireObserver, RunConfig, StopReason,
};
use ct_workloads::{Workload, WorkloadClass};

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

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

/// Each built-in workload with its size constant `N`, set so a run
/// retires roughly 50 k instructions (`mcf` and `xalancbmk` set up their
/// data first and retire 330 k and 170 k at `N = 1`): enough for several
/// samples per run at `MethodOptions::default()` periods, while the
/// whole file stays within a few seconds in the dev profile.
const SIZES: [(&str, u64); 9] = [
    ("latency_biased", 6_000),
    ("callchain", 500),
    ("g4box", 1_200),
    ("test40", 1_500),
    ("mcf", 1),
    ("povray", 300),
    ("omnetpp", 300),
    ("xalancbmk", 1),
    ("fullcms", 100),
];

fn workloads() -> Vec<Workload> {
    SIZES
        .iter()
        .map(|&(name, n)| ct_workloads::by_name(name, n).expect("built-in workload"))
        .collect()
}

/// Sampler seed for every run (jitter, randomized periods, PMI drops).
const SEED: u64 = 0x5A3B_1E21;

/// Fuel for the capped reference run; [`FUEL_WORKLOAD`] stops mid-block
/// at it (asserted, so the row keeps covering a partial block).
const FUEL: u64 = 10_009;
const FUEL_WORKLOAD: &str = "omnetpp";

fn digest_sample(fnv: &mut Fnv, s: &Sample) {
    fnv.write_u64(u64::from(s.reported_ip));
    fnv.write_u64(u64::from(s.trigger_ip));
    fnv.write_u64(s.trigger_seq);
    fnv.write_u64(s.reported_seq);
    fnv.write_u64(s.cycle);
    match &s.lbr {
        None => fnv.write_u64(0),
        Some(entries) => {
            fnv.write_u64(1);
            fnv.write_u64(entries.len() as u64);
            for e in entries {
                fnv.write_u64(u64::from(e.from));
                fnv.write_u64(u64::from(e.to));
            }
        }
    }
}

fn digest_batch(fnv: &mut Fnv, batch: &SampleBatch, stats: &SamplerStats) {
    fnv.write_u64(batch.samples.len() as u64);
    for s in &batch.samples {
        digest_sample(fnv, s);
    }
    fnv.write_u64(batch.dropped_collisions);
    fnv.write_u64(batch.dropped_injected);
    fnv.write_u64(batch.total_events);
    fnv.write_u64(stats.overflows);
    fnv.write_u64(stats.samples);
    fnv.write_u64(stats.dropped_collisions);
    fnv.write_u64(stats.dropped_injected);
}

/// Runs `config` over `workload` the way a session does (one retained
/// `Cpu`, the single-observer entry point) and folds the result in.
fn sample_run(fnv: &mut Fnv, cpu: &mut Cpu<'_>, workload: &Workload, config: &SamplerConfig) {
    let mut sampler = Sampler::new(cpu.machine(), config).expect("supported configuration");
    cpu.run_observed(&workload.program, &workload.run_config, &mut sampler)
        .expect("registry workloads run to completion");
    let stats = sampler.stats();
    digest_batch(fnv, &sampler.into_batch(), &stats);
}

fn method_config(
    machine: &MachineModel,
    kind: MethodKind,
    opts: &MethodOptions,
) -> Option<SamplerConfig> {
    kind.instantiate(machine, opts).map(|inst| SamplerConfig {
        seed: SEED,
        ..inst.config
    })
}

fn reference_digest(workload: &Workload, run_config: &RunConfig) -> u64 {
    let r = ReferenceProfile::collect(&workload.program, run_config)
        .expect("registry workloads run to completion");
    let mut fnv = Fnv::new();
    for counts in [&r.bb_instructions, &r.bb_entries, &r.function_instructions] {
        fnv.write_u64(counts.len() as u64);
        for &c in counts.iter() {
            fnv.write_u64(c);
        }
    }
    fnv.write_u64(r.function_names.len() as u64);
    for name in &r.function_names {
        fnv.write_str(name);
    }
    fnv.write_u64(r.total_instructions);
    fnv.write_u64(r.taken_branches);
    fnv.0
}

/// The reference's runs: every workload under its own run configuration,
/// then [`FUEL_WORKLOAD`] capped at [`FUEL`] as `"<name>@fuel"`.
fn reference_runs(workloads: &[Workload]) -> Vec<(String, &Workload, RunConfig)> {
    let mut runs: Vec<_> = workloads
        .iter()
        .map(|w| (w.name.clone(), w, w.run_config.clone()))
        .collect();
    let w = workloads
        .iter()
        .find(|w| w.name == FUEL_WORKLOAD)
        .expect("fuel workload");
    let capped = RunConfig {
        max_insns: FUEL,
        ..w.run_config.clone()
    };
    runs.push((format!("{}@fuel", w.name), w, capped));
    runs
}

/// Retirements per instruction address, with the run's totals.
#[derive(Debug, PartialEq, Eq)]
struct Retired {
    counts: Vec<u64>,
    instructions: u64,
    taken_branches: u64,
    stop: StopReason,
}

/// Counts every retired instruction by address.
struct AddrCounts(Vec<u64>);

impl RetireObserver for AddrCounts {
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.0[ev.addr as usize] += 1;
    }
}

/// [`Retired`] from the untimed pass.
fn untimed_counts(workload: &Workload, run_config: &RunConfig) -> Retired {
    let mut counts = vec![0; workload.program.len()];
    let totals = count_retired(&workload.program, run_config, &mut counts)
        .expect("registry workloads run to completion");
    Retired {
        counts,
        instructions: totals.instructions,
        taken_branches: totals.taken_branches,
        stop: totals.stop,
    }
}

/// [`Retired`] from a timed pass on `machine` with a counting observer.
fn timed_counts(machine: &MachineModel, workload: &Workload, run_config: &RunConfig) -> Retired {
    let mut counts = AddrCounts(vec![0; workload.program.len()]);
    let summary = Cpu::new(machine)
        .run_observed(&workload.program, run_config, &mut counts)
        .expect("registry workloads run to completion");
    Retired {
        counts: counts.0,
        instructions: summary.instructions,
        taken_branches: summary.taken_branches,
        stop: summary.stop,
    }
}

/// The off-default configurations, each applied to `MethodOptions::fast()`
/// instances. Returns `None` when the variant does not change `config`
/// (LBR settings on a method that collects no LBR).
fn variant(
    name: &str,
    machine: &MachineModel,
    mut config: SamplerConfig,
) -> Option<(MachineModel, SamplerConfig)> {
    let mut machine = machine.clone();
    match name {
        "lbr_calls_only" => config.lbr_filter = LbrFilter::CallsOnly,
        "lbr_cond_only" => config.lbr_filter = LbrFilter::CondOnly,
        "lbr_call_stack" => config.lbr_mode = LbrMode::CallStack,
        "lbr_depth_4" => machine.pmu.lbr_depth = 4,
        "lbr_depth_32" => machine.pmu.lbr_depth = 32,
        "pmi_drop_half" => config.pmi_drop_rate = 0.5,
        "period_5" => config.period.nominal = 5,
        other => panic!("unknown variant {other}"),
    }
    (config.collect_lbr || !name.starts_with("lbr_")).then_some((machine, config))
}

const VARIANTS: [&str; 7] = [
    "lbr_calls_only",
    "lbr_cond_only",
    "lbr_call_stack",
    "lbr_depth_4",
    "lbr_depth_32",
    "pmi_drop_half",
    "period_5",
];

/// Per machine, workload and supported method: the digest under
/// `MethodOptions::fast()` and under `MethodOptions::default()`.
type SampleRow = (&'static str, &'static str, &'static str, u64, u64);

fn sample_rows(
    machines: &[MachineModel],
    workloads: &[Workload],
) -> Vec<(String, String, &'static str, u64, u64)> {
    let mut rows = Vec::new();
    for m in machines {
        let mut cpu = Cpu::new(m);
        for w in workloads {
            for kind in MethodKind::ALL {
                let Some(fast) = method_config(m, kind, &MethodOptions::fast()) else {
                    continue;
                };
                let default =
                    method_config(m, kind, &MethodOptions::default()).expect("same support");
                let mut digests = [Fnv::new(), Fnv::new()];
                sample_run(&mut digests[0], &mut cpu, w, &fast);
                sample_run(&mut digests[1], &mut cpu, w, &default);
                rows.push((
                    m.name.clone(),
                    w.name.clone(),
                    kind.label(),
                    digests[0].0,
                    digests[1].0,
                ));
            }
        }
    }
    rows
}

/// [`sample_rows`] again, from one `Cpu::run` pass per pair and options
/// that drives the samplers of every supported method at once.
fn fused_sample_rows(
    machines: &[MachineModel],
    workloads: &[Workload],
) -> Vec<(String, String, &'static str, u64, u64)> {
    let mut rows = Vec::new();
    for m in machines {
        let mut cpu = Cpu::new(m);
        for w in workloads {
            let kinds: Vec<MethodKind> = MethodKind::ALL
                .into_iter()
                .filter(|&kind| method_config(m, kind, &MethodOptions::fast()).is_some())
                .collect();
            let [fast, default] = [MethodOptions::fast(), MethodOptions::default()].map(|opts| {
                let mut samplers: Vec<Sampler> = kinds
                    .iter()
                    .map(|&kind| {
                        let config = method_config(m, kind, &opts).expect("same support");
                        Sampler::new(m, &config).expect("supported configuration")
                    })
                    .collect();
                let mut members: Vec<&mut dyn RetireObserver> = samplers
                    .iter_mut()
                    .map(|s| s as &mut dyn RetireObserver)
                    .collect();
                cpu.run(&w.program, &w.run_config, &mut members)
                    .expect("registry workloads run to completion");
                samplers
                    .into_iter()
                    .map(|sampler| {
                        let stats = sampler.stats();
                        let mut fnv = Fnv::new();
                        digest_batch(&mut fnv, &sampler.into_batch(), &stats);
                        fnv.0
                    })
                    .collect::<Vec<u64>>()
            });
            for (i, kind) in kinds.iter().enumerate() {
                rows.push((
                    m.name.clone(),
                    w.name.clone(),
                    kind.label(),
                    fast[i],
                    default[i],
                ));
            }
        }
    }
    rows
}

/// Per machine and variant: one digest over the four kernels and every
/// method the variant changes.
type VariantRow = (&'static str, &'static str, u64);

fn variant_rows(
    machines: &[MachineModel],
    workloads: &[Workload],
) -> Vec<(String, &'static str, u64)> {
    let mut rows = Vec::new();
    for m in machines {
        for name in VARIANTS {
            let mut fnv = Fnv::new();
            let mut runs = 0;
            for kind in MethodKind::ALL {
                let Some(config) = method_config(m, kind, &MethodOptions::fast()) else {
                    continue;
                };
                let Some((machine, config)) = variant(name, m, config) else {
                    continue;
                };
                let mut cpu = Cpu::new(&machine);
                for w in workloads {
                    fnv.write_str(kind.label());
                    sample_run(&mut fnv, &mut cpu, w, &config);
                    runs += 1;
                }
            }
            if runs > 0 {
                rows.push((m.name.clone(), name, fnv.0));
            }
        }
    }
    rows
}

/// Per workload: the reference-profile digest, the same on every machine.
/// The last row is the fuel-capped run, with workload `"<name>@fuel"`.
type ReferenceRow = (&'static str, u64);

fn reference_rows(workloads: &[Workload]) -> Vec<(String, u64)> {
    reference_runs(workloads)
        .into_iter()
        .map(|(name, w, run_config)| {
            let digest = reference_digest(w, &run_config);
            (name, digest)
        })
        .collect()
}

/// Captured from the per-instruction sampler (one `on_retire` per retired
/// instruction). Row order: machine-major over
/// [`MachineModel::paper_machines`], then [`SIZES`], then
/// [`MethodKind::ALL`].
#[rustfmt::skip]
const GOLDEN_SAMPLES: &[SampleRow] = &[
    ("Magny-Cours (Opteron 6164 HE)", "latency_biased", "classic", 0xef8f4f62ae6751cf, 0xb347330ddc12f2ca),
    ("Magny-Cours (Opteron 6164 HE)", "latency_biased", "precise", 0xb2a104daafba7ec0, 0xcf19ff5b415ce9e7),
    ("Magny-Cours (Opteron 6164 HE)", "latency_biased", "precise+rand", 0xd218ab735e58ccb6, 0x153c9248c0348032),
    ("Magny-Cours (Opteron 6164 HE)", "latency_biased", "precise+prime", 0xf125a84cc005ff64, 0x8a3237bd3b183ac8),
    ("Magny-Cours (Opteron 6164 HE)", "latency_biased", "precise+prime+rand", 0xd218ab735e58ccb6, 0x153c9248c0348032),
    ("Magny-Cours (Opteron 6164 HE)", "callchain", "classic", 0x96f90e50d05a32bb, 0x5796a25d3f66dbeb),
    ("Magny-Cours (Opteron 6164 HE)", "callchain", "precise", 0x54ae31b128ff7d31, 0xbeda0da00ef0e9f3),
    ("Magny-Cours (Opteron 6164 HE)", "callchain", "precise+rand", 0x4ab8461e9cba2ad2, 0xcfc84624a0269b6c),
    ("Magny-Cours (Opteron 6164 HE)", "callchain", "precise+prime", 0x60c758d44a25415a, 0x4718a98f298cbe26),
    ("Magny-Cours (Opteron 6164 HE)", "callchain", "precise+prime+rand", 0x4ab8461e9cba2ad2, 0xcfc84624a0269b6c),
    ("Magny-Cours (Opteron 6164 HE)", "g4box", "classic", 0xdbd59045a5702ac9, 0xf0694a4335cefe83),
    ("Magny-Cours (Opteron 6164 HE)", "g4box", "precise", 0x21a9859f88c9f3dd, 0xde0698001552c59b),
    ("Magny-Cours (Opteron 6164 HE)", "g4box", "precise+rand", 0x16c7fd0e188394c3, 0x1e5fbf6c3bfd7dcb),
    ("Magny-Cours (Opteron 6164 HE)", "g4box", "precise+prime", 0x885912b433e01858, 0xfa211ecca43a1ec4),
    ("Magny-Cours (Opteron 6164 HE)", "g4box", "precise+prime+rand", 0x16c7fd0e188394c3, 0x1e5fbf6c3bfd7dcb),
    ("Magny-Cours (Opteron 6164 HE)", "test40", "classic", 0xcafb2794c5ab7868, 0xed72039d6bf7b42a),
    ("Magny-Cours (Opteron 6164 HE)", "test40", "precise", 0x2c28911606fcb906, 0x20626f9847d15204),
    ("Magny-Cours (Opteron 6164 HE)", "test40", "precise+rand", 0x564c086a861af5d3, 0xf827f649bb9b64e1),
    ("Magny-Cours (Opteron 6164 HE)", "test40", "precise+prime", 0x06542432f0730bd9, 0x847967af4c0b44b0),
    ("Magny-Cours (Opteron 6164 HE)", "test40", "precise+prime+rand", 0x564c086a861af5d3, 0xf827f649bb9b64e1),
    ("Magny-Cours (Opteron 6164 HE)", "mcf", "classic", 0x3326b0e69833929a, 0x3a647d81fdf805d5),
    ("Magny-Cours (Opteron 6164 HE)", "mcf", "precise", 0xd6b0eee8a4afc343, 0x00a287f0f7835ec1),
    ("Magny-Cours (Opteron 6164 HE)", "mcf", "precise+rand", 0xd2eea8b953f438ae, 0x140faa3180966a77),
    ("Magny-Cours (Opteron 6164 HE)", "mcf", "precise+prime", 0x594addd64fa44fce, 0x2d99ce928a389438),
    ("Magny-Cours (Opteron 6164 HE)", "mcf", "precise+prime+rand", 0xd2eea8b953f438ae, 0x140faa3180966a77),
    ("Magny-Cours (Opteron 6164 HE)", "povray", "classic", 0x11aa8a71fec8abda, 0x25aca08f16e6019c),
    ("Magny-Cours (Opteron 6164 HE)", "povray", "precise", 0xb4bd4a2615f1bd13, 0x1e2bbdfae6644289),
    ("Magny-Cours (Opteron 6164 HE)", "povray", "precise+rand", 0x1899340685f83bb0, 0xf1ad7ea0b5ce8190),
    ("Magny-Cours (Opteron 6164 HE)", "povray", "precise+prime", 0xa9a56ef8737b8de3, 0x3837d6b3d8302204),
    ("Magny-Cours (Opteron 6164 HE)", "povray", "precise+prime+rand", 0x1899340685f83bb0, 0xf1ad7ea0b5ce8190),
    ("Magny-Cours (Opteron 6164 HE)", "omnetpp", "classic", 0x381750a1ec2aa4d0, 0xcfb5209c67a20a35),
    ("Magny-Cours (Opteron 6164 HE)", "omnetpp", "precise", 0x97d25585028910cd, 0xff198c80adf0f33d),
    ("Magny-Cours (Opteron 6164 HE)", "omnetpp", "precise+rand", 0x2a12719392063d8e, 0x72f734976c822302),
    ("Magny-Cours (Opteron 6164 HE)", "omnetpp", "precise+prime", 0x6e1f320f7f9cc91c, 0x80393e2bb084d9fb),
    ("Magny-Cours (Opteron 6164 HE)", "omnetpp", "precise+prime+rand", 0x2a12719392063d8e, 0x72f734976c822302),
    ("Magny-Cours (Opteron 6164 HE)", "xalancbmk", "classic", 0xb599a4f9a6c556e7, 0x528bcc847e6ab94e),
    ("Magny-Cours (Opteron 6164 HE)", "xalancbmk", "precise", 0x529c3e6d9666b557, 0x9ce14227d909796d),
    ("Magny-Cours (Opteron 6164 HE)", "xalancbmk", "precise+rand", 0xb54ffd3a0ab532ca, 0xe239e0ac5e78b036),
    ("Magny-Cours (Opteron 6164 HE)", "xalancbmk", "precise+prime", 0x0558e4a56e1f533c, 0xf4b80b28f6698c96),
    ("Magny-Cours (Opteron 6164 HE)", "xalancbmk", "precise+prime+rand", 0xb54ffd3a0ab532ca, 0xe239e0ac5e78b036),
    ("Magny-Cours (Opteron 6164 HE)", "fullcms", "classic", 0xb87464958b339bf2, 0xc97997a0e70b361f),
    ("Magny-Cours (Opteron 6164 HE)", "fullcms", "precise", 0x97ef0369a7363862, 0x81878e5156193dae),
    ("Magny-Cours (Opteron 6164 HE)", "fullcms", "precise+rand", 0x5362737aa07d1478, 0x995553d38cec5306),
    ("Magny-Cours (Opteron 6164 HE)", "fullcms", "precise+prime", 0x63760ad9b564f8ea, 0x7175b75889f404cd),
    ("Magny-Cours (Opteron 6164 HE)", "fullcms", "precise+prime+rand", 0x5362737aa07d1478, 0x995553d38cec5306),
    ("Westmere (Xeon X5650)", "latency_biased", "classic", 0x1e823ecf2062146b, 0xff8bad2a3792575d),
    ("Westmere (Xeon X5650)", "latency_biased", "precise", 0x9a1573d27f40a934, 0xe606b8687a06c73d),
    ("Westmere (Xeon X5650)", "latency_biased", "precise+rand", 0xd999ae3ef81cab62, 0xfe9706c64531aec7),
    ("Westmere (Xeon X5650)", "latency_biased", "precise+prime", 0x0cc985abcf358d00, 0x1b54cd6ef9d43b09),
    ("Westmere (Xeon X5650)", "latency_biased", "precise+prime+rand", 0x3679549b818990c6, 0xd2a351eacc92ff46),
    ("Westmere (Xeon X5650)", "latency_biased", "precise+fix", 0x1ea6fb1f7a3d40d9, 0xba0aad77ca92c5d8),
    ("Westmere (Xeon X5650)", "latency_biased", "lbr", 0xcd70aac0ac1906fe, 0x85994206a386db08),
    ("Westmere (Xeon X5650)", "callchain", "classic", 0x064729a2ba60c347, 0xabc1fde5d7b2a588),
    ("Westmere (Xeon X5650)", "callchain", "precise", 0xd154be8a579be6b0, 0xd4d268865651945a),
    ("Westmere (Xeon X5650)", "callchain", "precise+rand", 0x2227edbb9a0af669, 0x11ab54ac1f60ae98),
    ("Westmere (Xeon X5650)", "callchain", "precise+prime", 0x9c4cd167b27ea12e, 0x59c850e4590974b9),
    ("Westmere (Xeon X5650)", "callchain", "precise+prime+rand", 0x3ea19f9374ba6725, 0xfe8fe5d7b276c7f8),
    ("Westmere (Xeon X5650)", "callchain", "precise+fix", 0x2d057a26b81d7df1, 0x26e682292065fa81),
    ("Westmere (Xeon X5650)", "callchain", "lbr", 0x2cf725574cbefab4, 0xa5868b0c7f3de178),
    ("Westmere (Xeon X5650)", "g4box", "classic", 0x69211ad818e4c066, 0x1049229b928f3786),
    ("Westmere (Xeon X5650)", "g4box", "precise", 0x13a07fdd44652870, 0x2a6c298f9f429855),
    ("Westmere (Xeon X5650)", "g4box", "precise+rand", 0x28b698d804688155, 0xca23fbd7683e3387),
    ("Westmere (Xeon X5650)", "g4box", "precise+prime", 0x49d78920f8e66aeb, 0x0b074207a788f011),
    ("Westmere (Xeon X5650)", "g4box", "precise+prime+rand", 0x0f5b6683ad457262, 0x8cb03b2500db2c2e),
    ("Westmere (Xeon X5650)", "g4box", "precise+fix", 0xd85622a88bec2bad, 0x8c1f5e279a7acb72),
    ("Westmere (Xeon X5650)", "g4box", "lbr", 0x70bba11c34030395, 0x0dd53f1d630e378b),
    ("Westmere (Xeon X5650)", "test40", "classic", 0xf74562f18523fce4, 0x1520b21be6e75c69),
    ("Westmere (Xeon X5650)", "test40", "precise", 0xed5fbea2d6a79df4, 0x6b197a0765369240),
    ("Westmere (Xeon X5650)", "test40", "precise+rand", 0x232418eba80c8af6, 0x826bad9ddffb6236),
    ("Westmere (Xeon X5650)", "test40", "precise+prime", 0x0a9b7ce980cb2158, 0x2cf634071a5834f3),
    ("Westmere (Xeon X5650)", "test40", "precise+prime+rand", 0xf1673d7524683c07, 0xe30792f12396da8e),
    ("Westmere (Xeon X5650)", "test40", "precise+fix", 0x1b9724c93febcacd, 0xb729d692fd5f101a),
    ("Westmere (Xeon X5650)", "test40", "lbr", 0xe61b9bcb34807cbf, 0x4c58ffe056188bed),
    ("Westmere (Xeon X5650)", "mcf", "classic", 0x0a71218f221e27b3, 0xd222c191ab3d3694),
    ("Westmere (Xeon X5650)", "mcf", "precise", 0xa236216accbd2dd3, 0x84e375b19d85af67),
    ("Westmere (Xeon X5650)", "mcf", "precise+rand", 0x852089b9aa622e8a, 0x05a6e8a876166fd9),
    ("Westmere (Xeon X5650)", "mcf", "precise+prime", 0x9ae8bd47df90ebe3, 0x622e4bed1a7cedef),
    ("Westmere (Xeon X5650)", "mcf", "precise+prime+rand", 0xe2469a5f489f699f, 0x4f50ec3463c7b1fd),
    ("Westmere (Xeon X5650)", "mcf", "precise+fix", 0x9642dfb651b9b8d5, 0x8a1e809899a3d473),
    ("Westmere (Xeon X5650)", "mcf", "lbr", 0x2528fe15739d4078, 0x57ab58e61cf5e78f),
    ("Westmere (Xeon X5650)", "povray", "classic", 0xa97e8241af2ba325, 0x211aabf4f7c36c8d),
    ("Westmere (Xeon X5650)", "povray", "precise", 0xc8c3b77a6e82b6ec, 0xee44f29439b4ad38),
    ("Westmere (Xeon X5650)", "povray", "precise+rand", 0x65f8be5e2ba23785, 0x421aa1b360d2928a),
    ("Westmere (Xeon X5650)", "povray", "precise+prime", 0x27c4a9449fae5635, 0xf7a1656b9f9afe1e),
    ("Westmere (Xeon X5650)", "povray", "precise+prime+rand", 0xbe4cc0ba995c4375, 0x6f253f27e059e0f1),
    ("Westmere (Xeon X5650)", "povray", "precise+fix", 0x1b0c4c45b2a78fe3, 0x80b56fec790c6945),
    ("Westmere (Xeon X5650)", "povray", "lbr", 0x6d945b2b73e21715, 0x0f79dd5ca758322b),
    ("Westmere (Xeon X5650)", "omnetpp", "classic", 0xcc610f2f150e1176, 0x30dc28140bfdabe4),
    ("Westmere (Xeon X5650)", "omnetpp", "precise", 0xb4af296e9b003ebb, 0x76ac201941239a7f),
    ("Westmere (Xeon X5650)", "omnetpp", "precise+rand", 0x11a509a9796d51ed, 0xd31d0445961e47b8),
    ("Westmere (Xeon X5650)", "omnetpp", "precise+prime", 0x55fe888368dd655b, 0x9cf009322d573996),
    ("Westmere (Xeon X5650)", "omnetpp", "precise+prime+rand", 0x1ef60fbc87e0cee8, 0x2ed2257939fa7bfc),
    ("Westmere (Xeon X5650)", "omnetpp", "precise+fix", 0x27d2d0f2738c3a0e, 0x37682d57a1fa1104),
    ("Westmere (Xeon X5650)", "omnetpp", "lbr", 0xed06bf94540c8151, 0xc1ea6c5c0f1012fe),
    ("Westmere (Xeon X5650)", "xalancbmk", "classic", 0x453650b81ff600d3, 0x9a9714549cca32f4),
    ("Westmere (Xeon X5650)", "xalancbmk", "precise", 0x82da1ca4d29dd9cb, 0x421a8299161e3f8e),
    ("Westmere (Xeon X5650)", "xalancbmk", "precise+rand", 0x7f7625cab7b531f5, 0xd96ebfca28b5c519),
    ("Westmere (Xeon X5650)", "xalancbmk", "precise+prime", 0xd4e2a0f0ed2f6d3d, 0x8578a8d388a8ec9d),
    ("Westmere (Xeon X5650)", "xalancbmk", "precise+prime+rand", 0xb9dd3e6dbb9b8ad0, 0xc03dfc0e39b2a681),
    ("Westmere (Xeon X5650)", "xalancbmk", "precise+fix", 0x15aa41d166bdc73f, 0x69c8d4dc40eb978b),
    ("Westmere (Xeon X5650)", "xalancbmk", "lbr", 0x7c8ad84bc7b72e62, 0x626c6bfbed38ba46),
    ("Westmere (Xeon X5650)", "fullcms", "classic", 0xd3ebdeacf0e7209a, 0xe22b7e872a3d08ac),
    ("Westmere (Xeon X5650)", "fullcms", "precise", 0xac0452a7c0338139, 0x64753a8a3d599db4),
    ("Westmere (Xeon X5650)", "fullcms", "precise+rand", 0x84703915f628e405, 0x994673caa0512c81),
    ("Westmere (Xeon X5650)", "fullcms", "precise+prime", 0x92c6002f2f5cf4a5, 0x4b100be496130e61),
    ("Westmere (Xeon X5650)", "fullcms", "precise+prime+rand", 0x331e368e9f679607, 0x5e720fcf71ed06c5),
    ("Westmere (Xeon X5650)", "fullcms", "precise+fix", 0xbec363fff0249fae, 0x0f3a7582e6733174),
    ("Westmere (Xeon X5650)", "fullcms", "lbr", 0x29117691832191db, 0x9a99e5c54a9498b1),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "classic", 0x3ba1c03099a467e6, 0x519e0e69c8b8cb52),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "precise", 0x5bc9b5e833583dbd, 0x2b8c2e3659961688),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "precise+rand", 0x26986f3dcb62ce5b, 0xe7e3af593694673a),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "precise+prime", 0x2e41ac9453c7e4c9, 0xa8901e1abad01317),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "precise+prime+rand", 0xffe7c5478d399bfc, 0x485fdf59d95cbbbb),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "precise+fix", 0x611565bd52f3b1f0, 0xefd6897d54185e00),
    ("Ivy Bridge (Xeon E3-1265L)", "latency_biased", "lbr", 0x749f833ac9e66733, 0x40ed12ee0e5183ca),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "classic", 0xd822855ac8857ee8, 0xbd4b669f80bc1750),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "precise", 0x8128d1c4df3aaf87, 0x7eae8ba16f9c2bc6),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "precise+rand", 0x1c62162445630e44, 0x5f6c7512fdd87123),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "precise+prime", 0x65f1d1c4c7b082d1, 0xa465ece79e889157),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "precise+prime+rand", 0xbafdab99e204d881, 0x135f94fc7ce3e15b),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "precise+fix", 0x5888e884b331762a, 0xc9a74f6c0af099de),
    ("Ivy Bridge (Xeon E3-1265L)", "callchain", "lbr", 0xf28625e2e3033b60, 0x446a2260125b7555),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "classic", 0xd01debe729d888e4, 0xfb5cd0ec8f8334a8),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "precise", 0x73e4034743071e93, 0xd3b6ba1c56f7b70b),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "precise+rand", 0x036b195cc2f91ac3, 0x8ef70490ef9e5893),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "precise+prime", 0x7660b6e01d4f67da, 0xf5a06d68acd4eb63),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "precise+prime+rand", 0xf9faf1bfada97222, 0x587bd3301336416e),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "precise+fix", 0x3b43ddf04d3ff9f5, 0x19b014cfe2e350b9),
    ("Ivy Bridge (Xeon E3-1265L)", "g4box", "lbr", 0xbcf50145f1d918a7, 0xafebb06609815000),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "classic", 0x8a9dc32d34147480, 0x8d9382db005b1865),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "precise", 0x9ba0b591107b227f, 0xa36cdef35d9cce7e),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "precise+rand", 0x75a69595e7cf120f, 0x4d2b318ca0f479d9),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "precise+prime", 0xbe5fe6c9146d2d36, 0xf0da63b76c1faddc),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "precise+prime+rand", 0x6e23faba304f82b9, 0xf9e83a366f1bc008),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "precise+fix", 0x6b8b1c1864a31edc, 0xdb293dd5836acf79),
    ("Ivy Bridge (Xeon E3-1265L)", "test40", "lbr", 0xc47e61e075ac6870, 0x9fec52f65eae1164),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "classic", 0x65fc68532f558390, 0x1c6ff40480305538),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "precise", 0x39dbbae13471b4ae, 0xb1e25c11abc86ffa),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "precise+rand", 0x0b5e096d97b81e74, 0x1d7324b4dfb15549),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "precise+prime", 0x3413d5d78739c8c6, 0x593b78fb879dc889),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "precise+prime+rand", 0xab9ad108a582918e, 0xea778a0962505128),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "precise+fix", 0x71ab084f72d9fcb8, 0xacedcd06c3175a33),
    ("Ivy Bridge (Xeon E3-1265L)", "mcf", "lbr", 0xec598a2a4b2767fa, 0x2f5fe1256fa46d71),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "classic", 0x072e46d376cf8edc, 0x78f90344ba2872b5),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "precise", 0x5dc7d29a08cbc339, 0xa21db15d3fd6d0e5),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "precise+rand", 0x5b44615ba781a7d5, 0x7731a7453c96c5f0),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "precise+prime", 0x40aedfa9a07dc213, 0x6980dc464914b651),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "precise+prime+rand", 0xbfbe4642f584d27f, 0xcfeaca77022cd3dc),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "precise+fix", 0x55fffcf58350795c, 0x11a3b108d11e3ca2),
    ("Ivy Bridge (Xeon E3-1265L)", "povray", "lbr", 0xa73f1127818ea4da, 0x3dfd4ec001c03157),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "classic", 0x4b55e80c77312f23, 0x15ad6866bc9d8175),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "precise", 0x555cffaa51812193, 0xdeffce5ec7035532),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "precise+rand", 0x579f6a5ee59fe6e4, 0x7f16e9aeaed05720),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "precise+prime", 0x5a7276ba0c27fc0d, 0xadec9e20865ec9b3),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "precise+prime+rand", 0xacfe96fb9bbb09f3, 0xd7d9025c3026aaaf),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "precise+fix", 0x227e00b3bb0040d9, 0xc7a36023273d3648),
    ("Ivy Bridge (Xeon E3-1265L)", "omnetpp", "lbr", 0x14dc291ce8e74456, 0x30b62c3ca7db64bb),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "classic", 0x0114319cc4f6da52, 0x4a88448676572a3d),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "precise", 0x8f3006c7cf283d19, 0x1b1f38a47b06be74),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "precise+rand", 0xc2ad12615ef9ba7c, 0x41ce4edd63acbbf7),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "precise+prime", 0x8b5a505689c95111, 0x3b74d3c456496d48),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "precise+prime+rand", 0x958a234623ebc460, 0x5c088e9c4fab9988),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "precise+fix", 0x5773ae831f5a1cf9, 0x57c78eaf68f9cc97),
    ("Ivy Bridge (Xeon E3-1265L)", "xalancbmk", "lbr", 0xba85830cc2eaa12f, 0xa1a3b40f84dee3ff),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "classic", 0xe4b7a5ed6ef87727, 0x042f8293e1f8c012),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "precise", 0xa74d3d2fbc606238, 0xbd954fdb924ff57d),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "precise+rand", 0xd36d65112cfb6c8f, 0x6b237ad0419a8fa4),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "precise+prime", 0x0a3759bf823f0dfd, 0x6ed53b825fa3b750),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "precise+prime+rand", 0x487829f092bf4e64, 0x6bae656f460a0ca8),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "precise+fix", 0xc2c0518c9792db43, 0x75fdc829a16e18a4),
    ("Ivy Bridge (Xeon E3-1265L)", "fullcms", "lbr", 0x9a73b2bd7be504ab, 0x3e9118d9a6abe5c9),
];

/// Captured with [`GOLDEN_SAMPLES`]. Row order: machine-major, then
/// [`VARIANTS`]; a variant that changes no method on a machine (LBR
/// settings on Magny-Cours) has no row.
#[rustfmt::skip]
const GOLDEN_VARIANTS: &[VariantRow] = &[
    ("Magny-Cours (Opteron 6164 HE)", "pmi_drop_half", 0x0b88d94f17fbbfe0),
    ("Magny-Cours (Opteron 6164 HE)", "period_5", 0xea69b9c175229efa),
    ("Westmere (Xeon X5650)", "lbr_calls_only", 0xef3e3be3a9003fe7),
    ("Westmere (Xeon X5650)", "lbr_cond_only", 0x68b5e8706f92e553),
    ("Westmere (Xeon X5650)", "lbr_call_stack", 0x456551432b7ebaf6),
    ("Westmere (Xeon X5650)", "lbr_depth_4", 0x33280e022b24b674),
    ("Westmere (Xeon X5650)", "lbr_depth_32", 0x97935c1a59b9b61c),
    ("Westmere (Xeon X5650)", "pmi_drop_half", 0xa21f2fe924a20631),
    ("Westmere (Xeon X5650)", "period_5", 0xcefff0643ca85a1b),
    ("Ivy Bridge (Xeon E3-1265L)", "lbr_calls_only", 0xc28fa28c00092a49),
    ("Ivy Bridge (Xeon E3-1265L)", "lbr_cond_only", 0x2fa09783c5bf877d),
    ("Ivy Bridge (Xeon E3-1265L)", "lbr_call_stack", 0xc23cb187f2890665),
    ("Ivy Bridge (Xeon E3-1265L)", "lbr_depth_4", 0xf25a6256538175b9),
    ("Ivy Bridge (Xeon E3-1265L)", "lbr_depth_32", 0x3a0dd7ac9cb0eb67),
    ("Ivy Bridge (Xeon E3-1265L)", "pmi_drop_half", 0x578b9b8a38d33cf1),
    ("Ivy Bridge (Xeon E3-1265L)", "period_5", 0xc0dfba5d6b48ce28),
];

/// Captured from the per-instruction block and call-graph counters.
#[rustfmt::skip]
const GOLDEN_REFERENCES: &[ReferenceRow] = &[
    ("latency_biased", 0xaf1ebf725315fa78),
    ("callchain", 0x727176ad9068ef67),
    ("g4box", 0x1376a85fde70ee98),
    ("test40", 0x8c9be52dc82b7fbe),
    ("mcf", 0x551b2cfb31fc7b7a),
    ("povray", 0x7c7255443b66de07),
    ("omnetpp", 0xf25f5be5ee8f790f),
    ("xalancbmk", 0x7f58c17d740377f3),
    ("fullcms", 0xb6e6443e7dcd3072),
    ("omnetpp@fuel", 0x4bcb787af9530883),
];

fn regen() -> bool {
    std::env::var_os("GOLDEN_SAMPLES_REGEN").is_some()
}

#[test]
fn sample_streams_match_the_golden_digests() {
    let machines = MachineModel::paper_machines();
    let workloads = workloads();
    let rows = sample_rows(&machines, &workloads);
    if regen() {
        println!("const GOLDEN_SAMPLES: &[SampleRow] = &[");
        for (m, w, k, fast, default) in &rows {
            println!("    (\"{m}\", \"{w}\", \"{k}\", 0x{fast:016x}, 0x{default:016x}),");
        }
        println!("];");
        return;
    }
    assert_golden_sample_rows(&rows);
}

#[test]
fn one_fused_pass_per_pair_reproduces_the_sample_streams() {
    let rows = fused_sample_rows(&MachineModel::paper_machines(), &workloads());
    assert_golden_sample_rows(&rows);
}

fn assert_golden_sample_rows(rows: &[(String, String, &'static str, u64, u64)]) {
    assert_eq!(
        rows.len(),
        GOLDEN_SAMPLES.len(),
        "golden table must cover every supported method of the 27 pairs"
    );
    for (got, want) in rows.iter().zip(GOLDEN_SAMPLES) {
        let (m, w, k, fast, default) = *want;
        assert_eq!(
            (got.0.as_str(), got.1.as_str(), got.2),
            (m, w, k),
            "row order drifted"
        );
        assert_eq!(
            got.3, fast,
            "{m}/{w}/{k}: fast-options sample stream diverged"
        );
        assert_eq!(
            got.4, default,
            "{m}/{w}/{k}: default-options sample stream diverged"
        );
    }
}

#[test]
fn off_default_sampler_configurations_match_the_golden_digests() {
    let machines = MachineModel::paper_machines();
    let kernels: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| w.class == WorkloadClass::Kernel)
        .collect();
    let rows = variant_rows(&machines, &kernels);
    if regen() {
        println!("const GOLDEN_VARIANTS: &[VariantRow] = &[");
        for (m, v, digest) in &rows {
            println!("    (\"{m}\", \"{v}\", 0x{digest:016x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        rows.len(),
        GOLDEN_VARIANTS.len(),
        "golden table must cover every variant"
    );
    for (got, want) in rows.iter().zip(GOLDEN_VARIANTS) {
        let (m, v, digest) = *want;
        assert_eq!((got.0.as_str(), got.1), (m, v), "row order drifted");
        assert_eq!(got.2, digest, "{m}/{v}: sample stream diverged");
    }
}

#[test]
fn reference_profiles_match_the_golden_digests() {
    let rows = reference_rows(&workloads());
    if regen() {
        println!("const GOLDEN_REFERENCES: &[ReferenceRow] = &[");
        for (w, digest) in &rows {
            println!("    (\"{w}\", 0x{digest:016x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        rows.len(),
        GOLDEN_REFERENCES.len(),
        "golden table must cover the 9 workloads and the capped run"
    );
    for (got, want) in rows.iter().zip(GOLDEN_REFERENCES) {
        let (w, digest) = *want;
        assert_eq!(got.0.as_str(), w, "row order drifted");
        assert_eq!(got.1, digest, "{w}: reference profile diverged");
    }
}

/// The reference's ground truth is the machine-independent part of the
/// stream: on every paper machine a timed pass retires each address the
/// same number of times, with the same totals and the same stop, and the
/// untimed pass the reference runs retires exactly that.
#[test]
fn retire_counts_do_not_depend_on_the_machine() {
    let machines = MachineModel::paper_machines();
    let workloads = workloads();
    for (name, w, run_config) in reference_runs(&workloads) {
        let timed: Vec<Retired> = machines
            .iter()
            .map(|m| timed_counts(m, w, &run_config))
            .collect();
        for (m, retired) in machines.iter().zip(&timed).skip(1) {
            assert_eq!(retired, &timed[0], "{name}: {} retires differently", m.name);
        }
        assert_eq!(
            untimed_counts(w, &run_config),
            timed[0],
            "{name}: the untimed pass retires differently"
        );
    }
}

/// The capped row keeps covering what it is there for: the run stops on
/// its fuel, inside a block, so one block's instruction count is not a
/// whole multiple of its entries.
#[test]
fn the_fuel_capped_reference_stops_mid_block() {
    let w = workloads()
        .into_iter()
        .find(|w| w.name == FUEL_WORKLOAD)
        .expect("fuel workload");
    let cfg = Cfg::build(&w.program);
    let capped = RunConfig {
        max_insns: FUEL,
        ..w.run_config.clone()
    };
    let (r, summary) = ReferenceProfile::collect_with_cfg(&w.program, &cfg, &capped).unwrap();
    assert_eq!(summary.stop, StopReason::FuelExhausted);
    assert_eq!(r.total_instructions, FUEL);
    assert!(
        cfg.blocks()
            .iter()
            .any(|b| r.bb_instructions[b.id as usize]
                != r.bb_entries[b.id as usize] * b.len() as u64),
        "the capped run must stop inside a block"
    );
}

/// The digest is sensitive to every field it claims to cover: changing
/// any one sample, batch or stats field must change it.
#[test]
fn digest_is_sensitive_to_every_batch_field() {
    let sample = Sample {
        reported_ip: 3,
        trigger_ip: 2,
        trigger_seq: 10,
        reported_seq: 11,
        cycle: 40,
        lbr: Some(vec![LbrEntry { from: 1, to: 2 }]),
    };
    let batch = SampleBatch {
        samples: vec![sample.clone()],
        dropped_collisions: 1,
        dropped_injected: 2,
        total_events: 100,
    };
    let stats = SamplerStats {
        overflows: 4,
        samples: 1,
        dropped_collisions: 1,
        dropped_injected: 2,
    };
    let digest = |batch: &SampleBatch, stats: &SamplerStats| {
        let mut fnv = Fnv::new();
        digest_batch(&mut fnv, batch, stats);
        fnv.0
    };
    let reference = digest(&batch, &stats);
    let with_sample = |s: Sample| SampleBatch {
        samples: vec![s],
        ..batch.clone()
    };
    let batches = [
        with_sample(Sample {
            reported_ip: 4,
            ..sample.clone()
        }),
        with_sample(Sample {
            trigger_ip: 3,
            ..sample.clone()
        }),
        with_sample(Sample {
            trigger_seq: 9,
            ..sample.clone()
        }),
        with_sample(Sample {
            reported_seq: 12,
            ..sample.clone()
        }),
        with_sample(Sample {
            cycle: 41,
            ..sample.clone()
        }),
        with_sample(Sample {
            lbr: None,
            ..sample.clone()
        }),
        with_sample(Sample {
            lbr: Some(vec![LbrEntry { from: 1, to: 3 }]),
            ..sample.clone()
        }),
        SampleBatch {
            dropped_collisions: 2,
            ..batch.clone()
        },
        SampleBatch {
            dropped_injected: 3,
            ..batch.clone()
        },
        SampleBatch {
            total_events: 101,
            ..batch.clone()
        },
        SampleBatch {
            samples: Vec::new(),
            ..batch.clone()
        },
    ];
    for (i, b) in batches.iter().enumerate() {
        assert_ne!(
            digest(b, &stats),
            reference,
            "batch variant {i} must perturb the digest"
        );
    }
    let stat_variants = [
        SamplerStats {
            overflows: 5,
            ..stats
        },
        SamplerStats {
            samples: 2,
            ..stats
        },
        SamplerStats {
            dropped_collisions: 2,
            ..stats
        },
        SamplerStats {
            dropped_injected: 3,
            ..stats
        },
    ];
    for (i, s) in stat_variants.iter().enumerate() {
        assert_ne!(
            digest(&batch, s),
            reference,
            "stats variant {i} must perturb the digest"
        );
    }
}
