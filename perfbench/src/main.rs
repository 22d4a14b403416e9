//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload uses `MethodOptions::fast()`, one run per request,
//! the three paper machines and a service (or grid) with two worker
//! threads, driven from this one process by at most two client threads
//! over at most two loopback connections. Clients are closed loops:
//! this service's callers (analysts' scripts, CI jobs, `serve_bench`)
//! wait for each reply before sending more. Inputs are seeded request
//! streams from `ct_bench::streams`; every response byte is checked
//! against an offline single-threaded reference computed before the
//! timed window.
//!
//! With `--trace 0` a run reports the end-to-end metrics, measured with
//! tracing off:
//!
//! * `ops_per_s`: completed operations per second (a request, or a
//!   method run for `tables`), the median over slices of the window;
//! * `p50_ms`, `p99_ms`: per-operation latency seen by the client, from
//!   sending a request to reading its response (for `cold_build`, from
//!   sending its batch; for `tables`, one sweep);
//! * `setup_s`: from workload start to the first timed operation:
//!   catalog assembly, service construction, listener bind, handshakes
//!   and the warm-up pass, the median of the set-ups made in 1.5 s (at least five);
//! * `peak_rss_mb`: the process's peak resident memory.
//!
//! Failed operations ÷ attempted ones (`error_frac`) is the `failed` and
//! `attempted` pair of the result line; it is 0 on a correct run, so it
//! is not among the end-to-end metrics, whose spread is taken relative
//! to their median.
//!
//! With `--trace 1` a run measures the workload four times for a quarter
//! of the time each, alternately untraced and with server-side latency
//! stamps and client spans, and adds a layer
//! pass over the workload's own programs and request lines (see
//! `layers`). It reports the per-layer metrics, the tracing overhead
//! and `error_frac`, and writes the spans to
//! `.bench_build/perfbench-traces/<workload>-seed<n>.jsonl`.
//!
//! # Workloads
//!
//! Expected contrasts: a faster `sim`, `pmu` or `attrib` moves
//! `zipf_eval` and `tables` and leaves `tiny_burst` alone; faster
//! reference builds move `cold_build` and leave the warm workloads
//! alone; cheaper per-burst overhead moves `tiny_burst` and leaves
//! `zipf_eval` alone.
//!
//! * `zipf_eval` — steady-state serving. One v2 keep-alive connection
//!   with 8 requests outstanding, zipfian traffic over the 4 kernels at
//!   scale 0.01, on an unbounded cache warmed during set-up. Nearly all
//!   server time is one sampled simulation per request, so it moves
//!   with `sim.silent_ns_per_insn`, `pmu.sampled_ns_per_insn`,
//!   `attrib.plain_us` and `session.eval_ms` (`ops_per_s`, `p50_ms`,
//!   `p99_ms`); transport is a small share.
//! * `cold_build` — reference builds and cache churn. A batch client:
//!   one v1 connection per 128 requests, written at once and half-closed
//!   before every response is read, as `serve::net::exchange` does.
//!   Round-robin traffic over all 9 workloads (27 pairs) at scale 0.01,
//!   cache capacity 8 (LRU), default pipeline. The only workload on v1
//!   intake and the ring-connected `serve_pipelined` stages. Moves with
//!   `instrument.collect_ms`, `cfg.build_us`, `cache.builds_per_pair`,
//!   `serve.build_us.*`, `serve.pipelined_ops_per_s` and
//!   `net.v1_overhead_frac` (`ops_per_s`). v1 intake cuts a chunk only
//!   every 64 lines or at EOF, so its latency is batch latency.
//! * `tiny_burst` — per-burst overhead. Two v2 connections, each with 4
//!   requests outstanding, zipfian over the kernels at scale 0.0001
//!   (about 1.5 k instructions, ~20 µs of evaluation). JSON, framing,
//!   the reactor, per-burst plan/attach/evaluate and thread fan-out
//!   dominate: it moves with `json.*`, `proto.*`, `grid.fanout_us`,
//!   `cache.hit_ns`, `serve.batch_us_per_req` and `client.wire_us.p50`
//!   (`p50_ms`, `ops_per_s`).
//! * `tables` — the path behind Tables 1–2. An in-process
//!   `GridRunner::run_standard` over 3 machines × 9 workloads × every
//!   supported method × `REPEATS`, at scale 0.01 with 2 threads,
//!   byte-checked against a 1-thread sweep. The only user of the grid's
//!   two-phase schedule and of the LBR walk on the applications; it
//!   bypasses the serving tier. Moves with `instrument.*`, `sim.*`,
//!   `pmu.*` and `attrib.*` (`ops_per_s`). Its serve-side layer
//!   metrics come from a short traced probe serving one request per
//!   pair of the same catalog.

mod host;
mod layers;
mod report;
mod serving;
mod stats;
mod tables;
mod trace;

use report::Report;
use serving::{Client, Serving, Setups};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

use ct_bench::streams::StreamPattern;

/// Set-ups per untraced run; the run reports their median.
const SETUPS: Setups = Setups {
    min: 5,
    seconds: 1.5,
};

/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_build/perfbench-traces";

/// Seconds the `tables` probe serves in a traced run.
const PROBE_SECONDS: f64 = 1.0;

const END_TO_END: &[&str] = &["ops_per_s", "p50_ms", "p99_ms", "setup_s", "peak_rss_mb"];

const PER_LAYER: &[&str] = &[
    "asm.catalog_ms",
    "cfg.build_us",
    "instrument.collect_ms",
    "instrument.ns_per_insn",
    "sim.silent_ns_per_insn",
    "pmu.sampled_ns_per_insn",
    "pmu.lbr_ns_per_insn",
    "pmu.samples_per_run",
    "pmu.dropped_frac",
    "attrib.plain_us",
    "attrib.lbrwalk_us",
    "session.eval_ms",
    "cache.hit_ratio",
    "cache.builds_per_pair",
    "cache.evictions",
    "cache.hit_ns",
    "grid.fanout_us",
    "serve.queue_us.p50",
    "serve.queue_us.p99",
    "serve.build_us.p50",
    "serve.build_us.p99",
    "serve.eval_us.p50",
    "serve.eval_us.p99",
    "serve.batch_us_per_req",
    "serve.pipelined_ops_per_s",
    "json.parse_us",
    "json.emit_us",
    "proto.frame_ns",
    "proto.rtt1_p50_us",
    "proto.rtt1_p99_us",
    "net.v1_overhead_frac",
    "client.wire_us.p50",
    "trace.overhead_frac",
    "error_frac",
];

fn serving_workload(name: &str) -> Option<Serving> {
    Some(match name {
        "zipf_eval" => Serving {
            scale: 0.01,
            catalog: ct_workloads::kernel_set,
            pattern: StreamPattern::Zipfian,
            cycle: 2_000,
            capacity: 0,
            client: Client::V2 {
                connections: 1,
                window: 8,
            },
        },
        "cold_build" => Serving {
            scale: 0.01,
            catalog: ct_workloads::all,
            pattern: StreamPattern::Cold,
            cycle: 1_080,
            capacity: 8,
            client: Client::V1Batch { batch: 128 },
        },
        "tiny_burst" => Serving {
            scale: 0.0001,
            catalog: ct_workloads::kernel_set,
            pattern: StreamPattern::Zipfian,
            cycle: 4_000,
            capacity: 0,
            client: Client::V2 {
                connections: 2,
                window: 4,
            },
        },
        _ => return None,
    })
}

/// The serving probe behind the `tables` workload's serve-side layer
/// metrics: one request per pair of the sweep's catalog, round-robin.
const TABLES_PROBE: Serving = Serving {
    scale: tables::SCALE,
    catalog: ct_workloads::all,
    pattern: StreamPattern::Cold,
    cycle: 27,
    capacity: 0,
    client: Client::V1Batch { batch: 27 },
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let trace = if args.workload == "tables" {
        run_tables(&args, &mut report)
    } else if let Some(spec) = serving_workload(&args.workload) {
        run_serving(&spec, &args, &mut report)
    } else {
        eprintln!(
            "perfbench: unknown workload {:?} (zipf_eval, cold_build, tiny_burst, tables)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let keep = if args.traced { PER_LAYER } else { END_TO_END };
    if args.traced {
        report.add("error_frac", report.tally.error_frac(), "fraction");
    } else {
        report.add_opt("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    if let Some(trace) = trace {
        let dir = Path::new(TRACE_DIR);
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| trace.write_jsonl(std::fs::File::create(&path)?));
        match written {
            Ok(()) => report.notes.push(format!(
                "spans: {} written to {}",
                trace.spans().len(),
                path.display()
            )),
            Err(e) => report
                .missing
                .push(format!("spans: cannot write {}: {e}", path.display())),
        }
    }

    println!("host {}", host::block(&args.workload, args.seed));
    for note in &report.notes {
        println!("note {note}");
    }
    println!(
        "note error_frac {} ({} failed of {} attempted)",
        report.tally.error_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    if let Some(failure) = &report.tally.first_failure {
        println!("note first failure: {failure}");
    }
    for m in &report.metrics {
        let kind = if END_TO_END.contains(&m.name.as_str()) {
            "end_to_end"
        } else {
            "per_layer"
        };
        println!("metric {kind} {} = {} {}", m.name, m.value, m.unit);
    }
    for missing in &report.missing {
        println!("missing {missing}");
    }
    println!("{}", report.json(keep));
    ExitCode::SUCCESS
}

/// Runs a serving workload; returns the spans of a traced run.
fn run_serving(spec: &Serving, args: &Args, report: &mut Report) -> Option<Trace> {
    let streams = spec.streams(args.seed);
    if !args.traced {
        let run = spec.run(&streams, SETUPS, args.seconds, false);
        serving::end_to_end(report, &run);
        report.tally = run.tally;
        return None;
    }
    let quarter = args.seconds / 4.0;
    let mut kept = None;
    let overhead = trace_overhead(|traced| {
        let mut run = spec.run(&streams, Setups::ONE, quarter, traced);
        report.tally.merge(std::mem::take(&mut run.tally));
        let ops = run.ops_per_s;
        if traced {
            kept = Some(run);
        }
        ops
    });
    report.add("trace.overhead_frac", overhead, "fraction");
    let mut traced = kept.expect("trace_overhead makes traced runs");
    let mut trace = traced.trace.take().expect("traced runs record spans");
    layers::pass(report, &mut trace, spec, &streams[0], &traced);
    Some(trace)
}

/// Tracing overhead, 1 − traced ÷ untraced `ops_per_s`, from four runs
/// in the order untraced, traced, traced, untraced, so a host that
/// speeds up or slows down during the run biases neither side.
/// `run(traced)` makes one run and returns its `ops_per_s`.
fn trace_overhead(mut run: impl FnMut(bool) -> f64) -> f64 {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for on in [false, true, true, false] {
        let ops = run(on);
        if on {
            traced += ops;
        } else {
            untraced += ops;
        }
    }
    1.0 - traced / untraced
}

/// Runs the `tables` workload; returns the spans of a traced run.
fn run_tables(args: &Args, report: &mut Report) -> Option<Trace> {
    let reference = tables::reference(args.seed);
    if !args.traced {
        let run = tables::run(args.seed, SETUPS, args.seconds, &reference, None);
        tables::end_to_end(report, &run);
        report.tally = run.tally;
        return None;
    }
    let quarter = args.seconds / 4.0;
    let mut trace = Trace::new(Instant::now());
    let overhead = trace_overhead(|traced| {
        let spans = if traced { Some(&mut trace) } else { None };
        let run = tables::run(args.seed, Setups::ONE, quarter, &reference, spans);
        report.tally.merge(run.tally);
        stats::median(&run.rates).unwrap_or(f64::NAN)
    });
    report.add("trace.overhead_frac", overhead, "fraction");
    let streams = TABLES_PROBE.streams(args.seed);
    let mut probe = TABLES_PROBE.run(&streams, Setups::ONE, PROBE_SECONDS, true);
    report.tally.merge(std::mem::take(&mut probe.tally));
    layers::pass(report, &mut trace, &TABLES_PROBE, &streams[0], &probe);
    Some(trace)
}
