//! The `tables` workload: the in-process grid sweep behind Tables 1–2,
//! byte-checked against a single-threaded sweep of the same seed.

use crate::report::Report;
use crate::serving::Setups;
use crate::stats::{self, percentile, Tally};
use crate::trace::Trace;
use countertrust::grid::{GridMethod, GridRunner};
use countertrust::methods::MethodOptions;
use countertrust::report::to_json;
use countertrust::Evaluation;
use ct_bench::{workload_specs, REPEATS};
use ct_sim::MachineModel;
use std::time::Instant;

/// Workload size scale of the sweep.
pub const SCALE: f64 = 0.01;

/// One sweep's wall time and evaluations.
struct Sweep {
    seconds: f64,
    evaluations: Vec<Evaluation>,
}

/// Measured sweeps of one run.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Method runs per second, per sweep.
    pub rates: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    /// Method runs one sweep performs.
    pub per_sweep: usize,
    pub tally: Tally,
}

/// Method runs one full sweep performs: every supported method of every
/// (machine, workload) pair, `REPEATS` times.
fn runs_per_sweep(machines: &[MachineModel], workloads: usize) -> usize {
    let opts = MethodOptions::fast();
    machines
        .iter()
        .map(|m| GridMethod::standard(m, &opts).len())
        .sum::<usize>()
        * workloads
        * REPEATS
}

/// Sets up as often as `setups` asks, then sweeps for about `seconds`:
/// it stops before a sweep that would end more than half a sweep past
/// the window. Records a span per sweep when `trace` is given and
/// checks every sweep against `reference`. Set-up is catalog assembly
/// plus a warm-up sweep of the first kernel, one repeat.
pub fn run(
    seed: u64,
    setups: Setups,
    seconds: f64,
    reference: &[String],
    mut trace: Option<&mut Trace>,
) -> Run {
    let machines = MachineModel::paper_machines();
    let runner = GridRunner::new().threads(2);
    let mut setup_s = Vec::new();
    let mut workloads = Vec::new();
    let first = Instant::now();
    while !setups.enough(setup_s.len(), first) {
        let started = Instant::now();
        workloads = ct_workloads::all(SCALE);
        let warm = runner.run_standard(
            &machines,
            &workload_specs(&workloads[..1]),
            &MethodOptions::fast(),
            1,
            seed,
        );
        std::hint::black_box(warm);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let specs = workload_specs(&workloads);
    let per_sweep = runs_per_sweep(&machines, workloads.len());
    let root = trace.as_deref_mut().map(|t| t.open("traced_run", None));
    let begin = Instant::now();
    let mut sweeps = Vec::new();
    let mut spent = 0.0;
    while sweeps.is_empty() || spent + spent / sweeps.len() as f64 / 2.0 < seconds {
        let t = Instant::now();
        let evaluations = match trace.as_deref_mut() {
            Some(tr) => tr.time("grid.run_standard", root, || {
                runner.run_standard(&machines, &specs, &MethodOptions::fast(), REPEATS, seed)
            }),
            None => runner.run_standard(&machines, &specs, &MethodOptions::fast(), REPEATS, seed),
        };
        sweeps.push(Sweep {
            seconds: t.elapsed().as_secs_f64(),
            evaluations,
        });
        spent = begin.elapsed().as_secs_f64();
    }
    if let (Some(tr), Some(root)) = (trace, root) {
        tr.close(root);
    }
    let mut tally = Tally::default();
    for sweep in &sweeps {
        check(&mut tally, &sweep.evaluations, reference, &machines);
    }
    Run {
        setup_s,
        rates: sweeps
            .iter()
            .map(|s| per_sweep as f64 / s.seconds)
            .collect(),
        sweep_ms: stats::sorted(sweeps.iter().map(|s| s.seconds * 1e3).collect()),
        per_sweep,
        tally,
    }
}

/// The single-threaded reference sweep: one JSON text per cell group.
#[must_use]
pub fn reference(seed: u64) -> Vec<String> {
    let workloads = ct_workloads::all(SCALE);
    GridRunner::new()
        .threads(1)
        .run_standard(
            &MachineModel::paper_machines(),
            &workload_specs(&workloads),
            &MethodOptions::fast(),
            REPEATS,
            seed,
        )
        .iter()
        .map(|e| to_json(std::slice::from_ref(e)))
        .collect()
}

/// Counts every method run of a sweep, failing the runs of a cell
/// group whose JSON differs from the reference and of methods missing
/// from it.
fn check(
    tally: &mut Tally,
    evaluations: &[Evaluation],
    reference: &[String],
    machines: &[MachineModel],
) {
    let opts = MethodOptions::fast();
    let workloads = reference.len() / machines.len();
    for (i, want) in reference.iter().enumerate() {
        let expected = GridMethod::standard(&machines[i / workloads], &opts).len();
        match evaluations.get(i) {
            Some(e) => {
                let got = to_json(std::slice::from_ref(e));
                tally.compare(&got, want, (e.methods.len() * REPEATS) as u64);
                let missing = expected.saturating_sub(e.methods.len());
                tally.lost((missing * REPEATS) as u64, || {
                    format!("{} / {}: {missing} methods missing", e.machine, e.workload)
                });
            }
            None => tally.lost((expected * REPEATS) as u64, || {
                format!("cell group {i} missing")
            }),
        }
    }
}

/// Adds the end-to-end metrics of a measured run. A sweep is the
/// latency unit, so `p50_ms` and `p99_ms` are nearest-rank over the
/// run's few sweeps: `p99_ms` is the slowest sweep.
pub fn end_to_end(report: &mut Report, run: &Run) {
    report.add_opt("ops_per_s", stats::median(&run.rates), "1/s");
    report.add_opt("p50_ms", percentile(&run.sweep_ms, 0.5), "ms");
    report.add_opt("p99_ms", percentile(&run.sweep_ms, 0.99), "ms");
    report.add_opt("setup_s", stats::median(&run.setup_s), "s");
    report.note_rates(&run.rates, run.setup_s.len());
    report.notes.push(format!(
        "latency samples: {} sweeps of {} method runs (p99_ms is the slowest sweep)",
        run.sweep_ms.len(),
        run.per_sweep
    ));
}
