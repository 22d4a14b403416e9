//! The layer pass of a traced run: times each layer's public entry
//! points on the workload's own programs and request lines, inside
//! spans, and derives the server-side and cache metrics from the traced
//! run. Every output the pass produces is byte-checked like the run's.
//!
//! | layer | metric | timed call |
//! |---|---|---|
//! | `isa::asm` + `workloads::loader` | `asm.catalog_ms` | the catalog constructor |
//! | `isa::cfg` | `cfg.build_us` | `Cfg::build`, per program |
//! | `instrument` | `instrument.collect_ms`, `.ns_per_insn` | `PairParts::collect`, per pair |
//! | `sim::exec` | `sim.silent_ns_per_insn` | warm `Cpu::run_silent` |
//! | `pmu` | `pmu.sampled_ns_per_insn`, `.lbr_ns_per_insn`, `.samples_per_run`, `.dropped_frac` | `Cpu::run_observed` with a `precise+prime` and an `lbr` `Sampler` |
//! | `core::attrib` | `attrib.plain_us`, `.lbrwalk_us` | `attrib::attribute` on one run's batch |
//! | `core::session` | `session.eval_ms` | warm `Session::run_method` on the request lines |
//! | `core::cache` | `cache.hit_ratio`, `.builds_per_pair`, `.evictions` | `EvalService::cache_stats` after the traced run |
//! | `core::cache` | `cache.hit_ns` | `ProfileCache::get_or_build` on a resident key |
//! | `core::grid` | `grid.fanout_us` | `for_each_index(2, burst)` over empty tasks |
//! | `core::serve` | `serve.{queue,build,eval}_us.{p50,p99}` | the traced run's response stamps |
//! | `core::serve` | `serve.batch_us_per_req` | `EvalService::serve_jsonl` on burst-sized batches |
//! | `core::serve` | `serve.pipelined_ops_per_s` | in-memory `serve_pipelined` |
//! | JSON | `json.parse_us`, `json.emit_us` | `from_str::<EvalRequest>`, `to_string_into(&EvalResponse)` |
//! | `serve::proto` | `proto.frame_ns` | in-memory `write_frame` + `read_frame` |
//! | `serve::proto` | `proto.rtt1_p50_us`, `.rtt1_p99_us` | one-outstanding `V2Client` round trip |
//! | `serve::net` | `net.v1_overhead_frac` | 1 − in-memory `serve_pipelined` time ÷ `exchange` time |
//! | client | `client.wire_us.p50` | request span self time: client-seen latency the server's stamps do not cover |

use crate::report::Report;
use crate::serving::{first_of_each_pair, Run, Serving, StopOnDrop, Stream};
use crate::stats::{self, percentile, Tally};
use crate::trace::Trace;
use countertrust::attrib::attribute;
use countertrust::grid::for_each_index;
use countertrust::methods::{Attribution, MethodKind, MethodOptions};
use countertrust::serve::net::{exchange, EvalServer, NetOptions};
use countertrust::serve::proto::{read_frame, write_frame, FrameKind, V2Client};
use countertrust::serve::{
    request_seed, EvalRequest, EvalResponse, PipelineOptions, RequestLatency,
};
use countertrust::{PairKey, PairParts, ProfileCache, Session};
use ct_isa::Cfg;
use ct_pmu::Sampler;
use ct_sim::{Cpu, MachineModel};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time one repeated measurement of the pass may take.
const BUDGET: Duration = Duration::from_millis(250);

/// Round trips the one-outstanding probe makes at most.
const RTT_PROBES: usize = 2_000;

/// Runs `f` at least `min` times and until [`BUDGET`] is spent;
/// returns each run's nanoseconds.
fn reps(min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

fn med(ns: &[f64]) -> f64 {
    stats::median(ns).unwrap_or(f64::NAN)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Adds every per-layer metric of one workload to `report`, with one
/// span per layer under a `layer_pass` span of `trace`.
pub fn pass(
    report: &mut Report,
    trace: &mut Trace,
    serving: &Serving,
    stream: &Stream,
    traced: &Run,
) {
    let root = trace.open("layer_pass", None);
    let machines = MachineModel::paper_machines();
    let opts = MethodOptions::fast();
    let mut checks = Tally::default();

    let ns = trace.time("asm", Some(root), || {
        reps(3, || drop(black_box((serving.catalog)(serving.scale))))
    });
    report.add("asm.catalog_ms", med(&ns) / 1e6, "ms");
    let workloads = (serving.catalog)(serving.scale);

    let ns = trace.time("cfg", Some(root), || {
        reps(3, || {
            for w in &workloads {
                black_box(Cfg::build(&w.program));
            }
        })
    });
    report.add(
        "cfg.build_us",
        med(&ns) / workloads.len() as f64 / 1e3,
        "us",
    );
    let cfgs: Vec<Arc<Cfg>> = workloads
        .iter()
        .map(|w| Arc::new(Cfg::build(&w.program)))
        .collect();

    // The (machine, workload) pairs the request lines touch, in order,
    // and the first request on each.
    let index = |r: &EvalRequest| {
        let m = machines
            .iter()
            .position(|m| m.name == r.machine)
            .expect("known machine");
        let w = workloads
            .iter()
            .position(|w| w.name == r.workload)
            .expect("known workload");
        (m, w)
    };
    let first: Vec<EvalRequest> = first_of_each_pair(&stream.requests)
        .into_iter()
        .map(|i| stream.requests[i].clone())
        .collect();
    let pairs: Vec<(usize, usize)> = first.iter().map(index).collect();

    let parts: HashMap<(usize, usize), PairParts> = trace.time("instrument", Some(root), || {
        let (mut ns, mut insns) = (0.0, 0u64);
        let parts = pairs
            .iter()
            .map(|&(m, w)| {
                let t = Instant::now();
                let p = PairParts::collect(
                    &machines[m],
                    &workloads[w].program,
                    &workloads[w].run_config,
                    cfgs[w].clone(),
                )
                .expect("reference builds succeed");
                ns += ns_since(t);
                insns += p.reference.total_instructions();
                ((m, w), p)
            })
            .collect();
        report.add("instrument.collect_ms", ns / pairs.len() as f64 / 1e6, "ms");
        report.add("instrument.ns_per_insn", ns / insns as f64, "ns");
        parts
    });

    trace.time("sim_pmu_attrib", Some(root), || {
        let mut silent = (0.0, 0u64);
        let mut sampled = (0.0, 0u64);
        let mut lbr = (0.0, 0u64);
        let (mut samples, mut runs, mut overflows, mut dropped) = (0usize, 0usize, 0u64, 0u64);
        let (mut plain_ns, mut walk_ns, mut walks) = (Vec::new(), Vec::new(), 0usize);
        for &(m, w) in &pairs {
            let (machine, program, config) = (
                &machines[m],
                &workloads[w].program,
                &workloads[w].run_config,
            );
            let mut cpu = Cpu::new(machine);
            cpu.run_silent(program, config).expect("programs run");
            for _ in 0..3 {
                let t = Instant::now();
                let s = cpu.run_silent(program, config).expect("programs run");
                silent.0 += ns_since(t);
                silent.1 += s.instructions;
            }
            for (kind, attribution, acc) in [
                (MethodKind::PrecisePrime, Attribution::Plain, &mut sampled),
                (MethodKind::Lbr, Attribution::LbrWalk, &mut lbr),
            ] {
                let Some(method) = kind.instantiate(machine, &opts) else {
                    continue;
                };
                let mut sampler_config = method.config.clone();
                sampler_config.seed = 1;
                let mut sampler = Sampler::new(machine, &sampler_config).expect("supported method");
                let nominal = sampler.nominal_period();
                let t = Instant::now();
                let s = cpu
                    .run_observed(program, config, &mut sampler)
                    .expect("programs run");
                acc.0 += ns_since(t);
                acc.1 += s.instructions;
                let st = sampler.stats();
                let batch = sampler.into_batch();
                let t = Instant::now();
                black_box(attribute(&batch, &cfgs[w], attribution, nominal));
                if attribution == Attribution::Plain {
                    plain_ns.push(ns_since(t));
                    overflows += st.overflows;
                    dropped += st.dropped_collisions + st.dropped_injected;
                    samples += batch.len();
                    runs += 1;
                } else {
                    walk_ns.push(ns_since(t));
                    walks += 1;
                }
            }
        }
        report.add("sim.silent_ns_per_insn", silent.0 / silent.1 as f64, "ns");
        report.add(
            "pmu.sampled_ns_per_insn",
            sampled.0 / sampled.1 as f64,
            "ns",
        );
        report.add("pmu.lbr_ns_per_insn", lbr.0 / lbr.1 as f64, "ns");
        report.add("pmu.samples_per_run", samples as f64 / runs as f64, "count");
        report.add(
            "pmu.dropped_frac",
            dropped as f64 / overflows.max(1) as f64,
            "fraction",
        );
        report.add(
            "attrib.plain_us",
            plain_ns.iter().sum::<f64>() / runs as f64 / 1e3,
            "us",
        );
        report.add(
            "attrib.lbrwalk_us",
            walk_ns.iter().sum::<f64>() / walks as f64 / 1e3,
            "us",
        );
    });

    trace.time("session", Some(root), || {
        let mut sessions: HashMap<(usize, usize), Session<'_>> = pairs
            .iter()
            .map(|&(m, w)| {
                let s = parts[&(m, w)].session(
                    &machines[m],
                    &workloads[w].program,
                    workloads[w].run_config.clone(),
                );
                ((m, w), s)
            })
            .collect();
        let start = Instant::now();
        let mut ns = Vec::new();
        for r in stream.requests.iter().cycle() {
            if ns.len() >= stream.requests.len().min(3) && start.elapsed() > BUDGET {
                break;
            }
            let (m, w) = index(r);
            let method = MethodKind::from_label(&r.method)
                .and_then(|k| k.instantiate(&machines[m], &opts))
                .expect("streams name supported methods");
            let session = sessions.get_mut(&(m, w)).expect("pair collected");
            let t = Instant::now();
            black_box(
                session
                    .run_method(&method, request_seed(r.seed, 0))
                    .expect("methods run"),
            );
            ns.push(ns_since(t));
        }
        report.add(
            "session.eval_ms",
            ns.iter().sum::<f64>() / ns.len() as f64 / 1e6,
            "ms",
        );
    });

    trace.time("cache", Some(root), || {
        let cache = ProfileCache::unbounded();
        let key = PairKey::new(0, pairs[0].0, pairs[0].1);
        let resident = parts[&pairs[0]].clone();
        cache
            .get_or_build(key, || Ok(resident))
            .expect("first build");
        const CALLS: usize = 10_000;
        let ns = reps(3, || {
            for _ in 0..CALLS {
                black_box(
                    cache
                        .get_or_build(key, || unreachable!("the key is resident"))
                        .expect("hit"),
                );
            }
        });
        report.add("cache.hit_ns", med(&ns) / CALLS as f64, "ns");
        let c = &traced.cache;
        report.add(
            "cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "fraction",
        );
        report.add(
            "cache.builds_per_pair",
            c.builds as f64 / pairs.len() as f64,
            "count",
        );
        report.add("cache.evictions", c.evictions as f64, "count");
    });

    trace.time("grid", Some(root), || {
        const CALLS: usize = 200;
        let burst = serving.burst();
        let ns = reps(3, || {
            for _ in 0..CALLS {
                for_each_index(2, burst, |i| {
                    black_box(i);
                });
            }
        });
        report.add("grid.fanout_us", med(&ns) / CALLS as f64 / 1e3, "us");
    });

    let stamps = |pick: fn(&RequestLatency) -> u64| {
        stats::sorted(traced.stamps.iter().map(|l| pick(l) as f64).collect())
    };
    for (name, us) in [
        ("queue", stamps(|l| l.queue_us)),
        ("build", stamps(|l| l.build_us)),
        ("eval", stamps(|l| l.eval_us)),
    ] {
        report.add_opt(&format!("serve.{name}_us.p50"), percentile(&us, 0.5), "us");
        report.add_opt(&format!("serve.{name}_us.p99"), percentile(&us, 0.99), "us");
    }
    report
        .notes
        .push(format!("server stamps: {} responses", traced.stamps.len()));

    // A warm service answers burst-sized batches in memory.
    trace.time("serve_batch", Some(root), || {
        let service = serving.service(&workloads);
        black_box(service.serve_jsonl(&first));
        let burst = serving.burst();
        let start = Instant::now();
        let (mut ns, mut n) = (0.0, 0usize);
        for (chunk, want) in stream
            .requests
            .chunks(burst)
            .zip(stream.reference.chunks(burst))
        {
            if n > 0 && start.elapsed() > BUDGET {
                break;
            }
            let t = Instant::now();
            let got = service.serve_jsonl(chunk);
            ns += ns_since(t);
            n += chunk.len();
            checks.compare(&got, &want.concat(), chunk.len() as u64);
        }
        report.add("serve.batch_us_per_req", ns / n as f64 / 1e3, "us");
    });

    // The same lines through the in-memory pipeline and over one v1
    // connection, alternating, on one service warmed like the run's
    // (its bounded cache keeps churning for `cold_build`).
    trace.time("pipeline_vs_v1", Some(root), || {
        let n = stream.lines.len().min(PipelineOptions::default().chunk);
        let wire = stream.lines[..n].concat();
        let want = stream.reference[..n].concat();
        let service = serving.service(&workloads);
        black_box(service.serve_jsonl(&first));
        let (in_memory, net) = served(&service, |addr| {
            let (mut in_memory, mut net) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let mut out = Vec::new();
                let t = Instant::now();
                service
                    .serve_pipelined(wire.as_bytes(), &mut out, &PipelineOptions::default())
                    .expect("in-memory i/o");
                in_memory.push(ns_since(t));
                checks.compare(&String::from_utf8_lossy(&out), &want, n as u64);
                let t = Instant::now();
                match exchange(addr, &wire) {
                    Ok(got) => {
                        net.push(ns_since(t));
                        checks.compare(&got, &want, n as u64);
                    }
                    Err(e) => checks.lost(n as u64, || format!("v1 exchange failed: {e}")),
                }
            }
            (med(&in_memory), med(&net))
        });
        report.add(
            "serve.pipelined_ops_per_s",
            n as f64 / (in_memory / 1e9),
            "1/s",
        );
        report.add("net.v1_overhead_frac", 1.0 - in_memory / net, "fraction");
    });

    trace.time("json", Some(root), || {
        let ns = reps(3, || {
            for line in &stream.lines {
                black_box(
                    serde_json::from_str::<EvalRequest>(line.trim_end()).expect("lines parse"),
                );
            }
        });
        report.add(
            "json.parse_us",
            med(&ns) / stream.lines.len() as f64 / 1e3,
            "us",
        );
        let responses: Vec<EvalResponse> = stream
            .reference
            .iter()
            .map(|l| serde_json::from_str(l.trim_end()).expect("responses parse"))
            .collect();
        let mut buf = String::new();
        let ns = reps(3, || {
            for r in &responses {
                buf.clear();
                serde_json::to_string_into(r, &mut buf).expect("responses serialize");
                black_box(&buf);
            }
        });
        checks.compare(
            &(buf.clone() + "\n"),
            stream.reference.last().expect("non-empty cycle"),
            1,
        );
        report.add(
            "json.emit_us",
            med(&ns) / responses.len() as f64 / 1e3,
            "us",
        );
    });

    trace.time("proto", Some(root), || {
        let mut buf = Vec::new();
        let ns = reps(3, || {
            for line in &stream.lines {
                buf.clear();
                write_frame(&mut buf, FrameKind::Req, 0, line.as_bytes()).expect("in-memory write");
                black_box(read_frame(&mut buf.as_slice()).expect("well-formed frame"));
            }
        });
        report.add("proto.frame_ns", med(&ns) / stream.lines.len() as f64, "ns");

        // One request outstanding on a warm service: the round trip a
        // request/response client pays.
        let service = serving.service(&workloads);
        black_box(service.serve_jsonl(&first));
        let (rtts, tally) = served(&service, |addr| {
            let mut tally = Tally::default();
            let mut rtts = Vec::new();
            let mut client = V2Client::connect(addr).expect("v2 handshake");
            let start = Instant::now();
            for (line, want) in stream.lines.iter().zip(&stream.reference).cycle() {
                if rtts.len() >= RTT_PROBES || (rtts.len() >= 20 && start.elapsed() > BUDGET * 8) {
                    break;
                }
                let t = Instant::now();
                let got = client
                    .send_line(0, line)
                    .and_then(|()| client.flush())
                    .and_then(|()| client.recv());
                rtts.push(ns_since(t) / 1e3);
                match got {
                    Ok(Some((_, text))) => {
                        tally.check(&text, want);
                    }
                    Ok(None) => tally.lost(1, || "server closed".into()),
                    Err(e) => tally.lost(1, || format!("round trip failed: {e}")),
                }
            }
            let _ = client.bye();
            (rtts, tally)
        });
        checks.merge(tally);
        let rtts = stats::sorted(rtts);
        report.add_opt("proto.rtt1_p50_us", percentile(&rtts, 0.5), "us");
        report.add_opt("proto.rtt1_p99_us", percentile(&rtts, 0.99), "us");
        report.notes.push(format!(
            "rtt1: {} round trips, max {:.0} us",
            rtts.len(),
            rtts.last().copied().unwrap_or(f64::NAN)
        ));
    });

    // The traced run's request spans: in `trace` itself, unless the run
    // kept its own (the `tables` probe).
    let wire = traced.trace.as_ref().unwrap_or(trace).self_us_of("request");
    report.add_opt("client.wire_us.p50", percentile(&wire, 0.5), "us");
    trace.close(root);
    report.tally.merge(checks);
}

/// Serves `service` on a loopback port while `f` runs against it.
fn served<R>(service: &countertrust::EvalService, f: impl FnOnce(std::net::SocketAddr) -> R) -> R {
    let server =
        EvalServer::listen("127.0.0.1:0", NetOptions::new()).expect("bind a loopback port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(service));
        let stop = StopOnDrop(&handle);
        let out = f(addr);
        drop(stop);
        let _ = serving.join().expect("the accept loop does not panic");
        out
    })
}
