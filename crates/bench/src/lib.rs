//! `ct-bench` — the experiment harness behind every table and figure.
//!
//! The binaries in `src/bin/` regenerate the paper's artifacts:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — kernel accuracy errors per machine × method |
//! | `table2` | Table 2 — application accuracy errors per machine × method |
//! | `table3` | Table 3 — the sampling-method taxonomy |
//! | `function_rank` | §5.2 — FullCMS top-10 function ordering check |
//! | `ablation_periods` | §6.1 — period policy sweep (round/prime/randomized) |
//! | `ablation_lbr` | §6.2 — LBR depth sweep and call-stack-mode collision |
//! | `serve_bench` | serving-mode benchmark: batched or pipelined request streams against the profile cache |
//!
//! All experiment binaries run on the parallel grid engine
//! ([`countertrust::grid::GridRunner`]): cells fan out across worker
//! threads, each `(machine, workload)` pair's reference profile is
//! collected once and shared, and per-run seeds derive from grid
//! coordinates — so `--threads 1` and `--threads N` produce byte-identical
//! stdout/JSON.
//!
//! The crate also hosts the test tiers that need its stream generators
//! or the workload registry:
//!
//! * `golden_probes` pins eight single-threaded serving, grid and
//!   interpreter runs by config, response-byte hash and audited
//!   reference-build count;
//! * `golden_exec_traces` pins every retirement event of the 27
//!   machine × workload traces;
//! * `integration_serve` drives the service with generated request
//!   streams;
//! * `integration_warm_start` proves a restart on a snapshot directory
//!   byte-identical with zero rebuilds;
//! * `alloc_audit` (feature `alloc_audit`) proves the warm interpreter
//!   allocation-free.
//!
//! Per-layer timing (simulator, PMU, attribution, reference builds,
//! serving stages, JSON and wire round trips) is `perfbench`'s job, the
//! repository's one benchmark.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod streams;

use countertrust::evaluate::Evaluation;
use countertrust::grid::{GridRunner, WorkloadSpec};
use countertrust::methods::MethodOptions;
use ct_sim::MachineModel;
use ct_workloads::Workload;
use std::io::IsTerminal;

/// Number of repeated measurements per cell, matching §4.1 ("measured five
/// times").
pub const REPEATS: usize = 5;

/// Borrows grid-engine workload specs out of registry workloads.
#[must_use]
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

/// A grid runner configured from CLI options: `--threads` (default:
/// available parallelism), with per-cell progress on stderr when stderr is
/// a terminal (never polluting redirected output).
#[must_use]
pub fn grid_runner(cli: &CliOptions) -> GridRunner {
    GridRunner::new()
        .threads(cli.threads.unwrap_or(0))
        .progress(std::io::stderr().is_terminal())
}

/// Runs the full machine × method grid for one set of workloads,
/// producing one [`Evaluation`] per (machine, workload) pair.
///
/// Methods a machine cannot run are skipped (the paper's tables have the
/// same holes). This is a convenience wrapper over
/// [`GridRunner::run_standard`] with the default thread count; the
/// binaries configure threads/progress via [`grid_runner`].
#[must_use]
pub fn run_grid(
    workloads: &[Workload],
    machines: &[MachineModel],
    opts: &MethodOptions,
    repeats: usize,
    base_seed: u64,
) -> Vec<Evaluation> {
    GridRunner::new().run_standard(machines, &workload_specs(workloads), opts, repeats, base_seed)
}

/// Command-line conveniences shared by the binaries: `--scale F`,
/// `--repeats N`, `--seed N`, `--threads N`, `--json PATH`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    pub scale: f64,
    pub repeats: usize,
    pub seed: u64,
    /// Worker threads for the grid engine; `None` means available
    /// hardware parallelism.
    pub threads: Option<usize>,
    pub json_path: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            repeats: REPEATS,
            seed: 1_000,
            threads: None,
            json_path: None,
        }
    }
}

/// Parses a flag value, warning on stderr and keeping `fallback` when the
/// value does not parse (a silently swallowed typo in `--scale 0..5`
/// would otherwise run the full grid with the wrong configuration).
fn parse_flag_value<T>(flag: &str, raw: &str, fallback: T) -> T
where
    T: std::str::FromStr + std::fmt::Display + Copy,
{
    raw.parse().unwrap_or_else(|_| {
        eprintln!("warning: ignoring invalid value {raw:?} for {flag}; keeping {fallback}");
        fallback
    })
}

/// Parses a `--threads` value. A zero or negative count is **rejected**
/// and clamped to one worker (running a grid with no workers is never
/// what the user meant); a non-numeric value yields `None` so the caller
/// keeps its current setting. Both paths warn on stderr.
fn parse_thread_count(raw: &str) -> Option<usize> {
    match raw.parse::<i128>() {
        Ok(n) if n <= 0 => {
            eprintln!("warning: rejecting --threads {n} (must be >= 1); clamping to 1");
            Some(1)
        }
        Ok(n) => Some(usize::try_from(n).unwrap_or(usize::MAX)),
        Err(_) => {
            eprintln!(
                "warning: ignoring invalid value {raw:?} for --threads; \
                 keeping the current setting"
            );
            None
        }
    }
}

impl CliOptions {
    /// Parses `std::env::args()`-style arguments; unknown flags are
    /// ignored so binaries can add their own. Malformed values are
    /// reported on stderr (naming the flag and the offending value) and
    /// fall back to the current setting; a non-positive `--threads` is
    /// rejected by clamping to one worker.
    #[must_use]
    pub fn parse(args: &[String]) -> Self {
        let mut opts = Self::default();
        let mut i = 0;
        while i < args.len() {
            let take = |i: &mut usize| -> Option<&String> {
                *i += 1;
                args.get(*i)
            };
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = take(&mut i) {
                        opts.scale = parse_flag_value("--scale", v, opts.scale);
                    }
                }
                "--repeats" => {
                    if let Some(v) = take(&mut i) {
                        opts.repeats = parse_flag_value("--repeats", v, opts.repeats);
                    }
                }
                "--seed" => {
                    if let Some(v) = take(&mut i) {
                        opts.seed = parse_flag_value("--seed", v, opts.seed);
                    }
                }
                "--threads" => {
                    if let Some(v) = take(&mut i) {
                        if let Some(n) = parse_thread_count(v) {
                            opts.threads = Some(n);
                        }
                    }
                }
                "--json" => {
                    if let Some(v) = take(&mut i) {
                        opts.json_path = Some(v.clone());
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// Writes evaluations as JSON when `--json` was given.
pub fn maybe_write_json(opts: &CliOptions, evals: &[Evaluation]) {
    if let Some(path) = &opts.json_path {
        let json = countertrust::report::to_json(evals);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("warning: cannot write {path}: {e}");
        } else {
            println!("(json written to {path})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use countertrust::methods::MethodKind;

    #[test]
    fn cli_parses_flags() {
        let args: Vec<String> = [
            "--scale",
            "0.5",
            "--repeats",
            "3",
            "--seed",
            "9",
            "--threads",
            "4",
            "--json",
            "/tmp/x.json",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let o = CliOptions::parse(&args);
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.repeats, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.json_path.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn cli_ignores_unknown() {
        let args: Vec<String> = ["--whatever", "--scale", "2.0"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let o = CliOptions::parse(&args);
        assert_eq!(o.scale, 2.0);
    }

    #[test]
    fn cli_warns_and_keeps_defaults_on_malformed_values() {
        let args: Vec<String> = ["--scale", "0..5", "--repeats", "lots", "--seed", "0x12"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let o = CliOptions::parse(&args);
        let d = CliOptions::default();
        assert_eq!(o.scale, d.scale);
        assert_eq!(o.repeats, d.repeats);
        assert_eq!(o.seed, d.seed);
        assert_eq!(o.threads, None);
    }

    #[test]
    fn cli_rejects_zero_threads_by_clamping_to_one() {
        let args: Vec<String> = ["--threads", "0"].iter().map(ToString::to_string).collect();
        assert_eq!(CliOptions::parse(&args).threads, Some(1));
    }

    #[test]
    fn cli_rejects_negative_threads_by_clamping_to_one() {
        for raw in ["-1", "-3", "-9999999999999999999"] {
            let args: Vec<String> =
                ["--threads", raw].iter().map(ToString::to_string).collect();
            assert_eq!(CliOptions::parse(&args).threads, Some(1), "--threads {raw}");
        }
    }

    #[test]
    fn cli_falls_back_on_non_numeric_threads() {
        let args: Vec<String> = ["--threads", "lots"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(CliOptions::parse(&args).threads, None);
    }

    #[test]
    fn cli_keeps_earlier_threads_value_on_later_malformed_one() {
        let args: Vec<String> = ["--threads", "4", "--threads", "bogus"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(CliOptions::parse(&args).threads, Some(4));
    }

    #[test]
    fn cli_ignores_trailing_threads_flag_without_value() {
        let args: Vec<String> = ["--threads"].iter().map(ToString::to_string).collect();
        assert_eq!(CliOptions::parse(&args).threads, None);
    }

    #[test]
    fn cli_accepts_positive_threads() {
        let args: Vec<String> = ["--threads", "7"].iter().map(ToString::to_string).collect();
        assert_eq!(CliOptions::parse(&args).threads, Some(7));
    }

    #[test]
    fn grid_produces_cells_for_all_machines() {
        let workloads = ct_workloads::kernel_set(0.01);
        let machines = MachineModel::paper_machines();
        let evals = run_grid(&workloads[..1], &machines, &MethodOptions::fast(), 1, 1);
        assert_eq!(evals.len(), 3);
        // AMD runs fewer methods (no LBR/fix) than the Intel parts.
        let amd = evals.iter().find(|e| e.machine.contains("Magny")).unwrap();
        let ivb = evals.iter().find(|e| e.machine.contains("Ivy")).unwrap();
        assert!(amd.methods.len() < ivb.methods.len());
        assert_eq!(ivb.methods.len(), MethodKind::ALL.len());
    }
}
