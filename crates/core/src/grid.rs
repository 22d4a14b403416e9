//! The parallel grid-evaluation engine behind the table harness.
//!
//! The paper's Tables 1 and 2 are a machine × workload × method × repeats
//! grid. Evaluating it serially wastes both dimensions of hardware
//! parallelism *and* re-drives the most expensive step — the instrumented
//! reference execution — once per consumer. This module fixes both:
//!
//! * a [`GridRunner`] fans independent cells across a process-wide pool
//!   of parked worker threads that claim them from a shared atomic
//!   counter ([`for_each_index`]), so a fan-out spawns no thread once
//!   the pool has grown to its width;
//! * each workload's [`ReferenceProfile`] is collected exactly once
//!   (phase 1, itself parallel over workloads), since it does not depend
//!   on the machine, and shared via [`Arc`] by the [`PairParts`] of every
//!   pair of that workload, and so by every method evaluation of those
//!   pairs (phase 2) through [`PairCtx::session`];
//! * phase 2 simulates once per pair and samples many: one task per pair
//!   runs all of its methods × repeats through shared passes
//!   ([`Session::run_methods`]), since every run on a pair sees the same
//!   retirement stream. A pair's cells split into several tasks only
//!   when there are fewer pairs than workers, and tasks are claimed
//!   heaviest pair first;
//! * per-run seeds derive from the cell coordinates via [`cell_seed`], so
//!   results are a pure function of the grid shape and base seed — output
//!   is byte-identical no matter how many threads run or how the queue
//!   interleaves;
//! * per-cell progress is reported on stderr when enabled, keeping stdout
//!   (tables, JSON) deterministic.
//!
//! # Examples
//!
//! ```
//! use countertrust::grid::{GridRunner, WorkloadSpec};
//! use countertrust::methods::MethodOptions;
//! use ct_isa::asm::assemble;
//! use ct_sim::{MachineModel, RunConfig};
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 20000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let run_config = RunConfig::default();
//! let workloads = [WorkloadSpec {
//!     name: "demo",
//!     program: &program,
//!     run_config: &run_config,
//! }];
//! let machines = [MachineModel::ivy_bridge()];
//! let evals = GridRunner::new().threads(2).run_standard(
//!     &machines,
//!     &workloads,
//!     &MethodOptions::fast(),
//!     2,
//!     1_000,
//! );
//! assert_eq!(evals.len(), 1);
//! assert!(!evals[0].methods.is_empty());
//! ```

use crate::cache::PairParts;
use crate::error::CoreError;
use crate::evaluate::{ErrorStats, Evaluation, Tally};
use crate::methods::{MethodInstance, MethodKind, MethodOptions};
use crate::session::Session;
use ct_instrument::ReferenceProfile;
use ct_isa::{Cfg, Program};
use ct_sim::{MachineModel, RunConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

mod pool;

/// A borrowed workload: everything the engine needs to run one
/// `(machine, workload)` pair.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec<'a> {
    /// Name used in [`Evaluation`] rows and progress lines.
    pub name: &'a str,
    /// The program to execute.
    pub program: &'a Program,
    /// Its run configuration (fuel, arguments).
    pub run_config: &'a RunConfig,
}

/// A labeled, machine-resolved method — one column of the grid.
///
/// The label defaults to the method family's table label but ablations
/// override it to describe the concrete configuration (e.g.
/// `"prime randomized @4001"`), since they evaluate several variants of
/// the same family side by side.
#[derive(Debug, Clone)]
pub struct GridMethod {
    /// Result label, stored into [`ErrorStats::method`].
    pub label: String,
    /// The resolved sampler configuration and attribution rule.
    pub instance: MethodInstance,
}

impl GridMethod {
    /// The standard table columns: every family of [`MethodKind::ALL`]
    /// the machine supports, labeled by family.
    #[must_use]
    pub fn standard(machine: &MachineModel, opts: &MethodOptions) -> Vec<GridMethod> {
        MethodKind::ALL
            .iter()
            .filter_map(|kind| {
                kind.instantiate(machine, opts).map(|instance| GridMethod {
                    label: kind.label().to_string(),
                    instance,
                })
            })
            .collect()
    }
}

/// Context handed to [`GridRunner::map_pairs`] closures: one
/// `(machine, workload)` pair plus its shared CFG and reference profile.
pub struct PairCtx<'a> {
    /// The machine under test.
    pub machine: &'a MachineModel,
    /// Index of the machine in the `machines` slice.
    pub machine_index: usize,
    /// The workload under test.
    pub workload: WorkloadSpec<'a>,
    /// Index of the workload in the `workloads` slice.
    pub workload_index: usize,
    /// The workload's control-flow graph, built once and shared.
    pub cfg: Arc<Cfg>,
    /// The workload's reference profile, collected once and shared.
    pub reference: Arc<ReferenceProfile>,
}

impl<'a> PairCtx<'a> {
    /// Builds a context from the pair's shared [`PairParts`] — the one
    /// construction path for both the grid and serving layers.
    #[must_use]
    pub fn from_parts(
        machine: &'a MachineModel,
        machine_index: usize,
        workload: WorkloadSpec<'a>,
        workload_index: usize,
        parts: &PairParts,
    ) -> Self {
        Self {
            machine,
            machine_index,
            workload,
            workload_index,
            cfg: parts.cfg.clone(),
            reference: parts.reference.clone(),
        }
    }

    /// The pair's shared parts (CFG + reference profile).
    #[must_use]
    pub fn parts(&self) -> PairParts {
        PairParts {
            cfg: self.cfg.clone(),
            reference: self.reference.clone(),
        }
    }

    /// A session over this pair that reuses the shared CFG and reference
    /// profile (no reference re-execution, no CFG rebuild).
    #[must_use]
    pub fn session(&self) -> Session<'a> {
        self.parts().session(
            self.machine,
            self.workload.program,
            self.workload.run_config.clone(),
        )
    }
}

/// Derives the seed of one sampling run from its grid coordinates.
///
/// Seeds are a pure function of `(base_seed, machine, workload, method,
/// repeat)` — never of scheduling order — which is what makes parallel
/// grid output byte-identical to serial output.
#[must_use]
pub fn cell_seed(
    base_seed: u64,
    machine: usize,
    workload: usize,
    method: usize,
    repeat: usize,
) -> u64 {
    let mut h = base_seed ^ 0xD6E8_FEB8_6659_FD93;
    for v in [
        machine as u64,
        workload as u64,
        method as u64,
        repeat as u64,
    ] {
        h ^= v;
        h = mix64(h);
    }
    h
}

/// One CFG per workload, shared by every session over that workload
/// (the CFG depends only on the program, not the machine or method).
fn workload_cfgs(workloads: &[WorkloadSpec<'_>]) -> Vec<Arc<Cfg>> {
    workloads
        .iter()
        .map(|w| Arc::new(Cfg::build(w.program)))
        .collect()
}

/// Phase 2's task list: one task per pair (its cell range and the
/// reference's retired instructions), each split into up to
/// `workers ÷ pairs` contiguous parts only when there are fewer pairs
/// than `workers`, and ordered heaviest pair first. Pairs differ in cost
/// by an order of magnitude (at scale 0.01, `xalancbmk` retires 3.2 M
/// instructions, the others 0.1–0.5 M), so claiming the heaviest first
/// keeps the longest passes from finishing a sweep alone. The sort is
/// stable, so equal pairs keep machine-major order.
fn split_heaviest_first(
    pairs: Vec<(std::ops::Range<usize>, u64)>,
    workers: usize,
) -> Vec<std::ops::Range<usize>> {
    let parts = if pairs.len() < workers {
        workers.div_ceil(pairs.len().max(1))
    } else {
        1
    };
    let mut tasks: Vec<(std::ops::Range<usize>, u64)> = Vec::new();
    for (cells, weight) in pairs {
        let n = cells.len();
        let k = parts.min(n).max(1);
        tasks.extend((0..k).map(|j| {
            (
                cells.start + n * j / k..cells.start + n * (j + 1) / k,
                weight,
            )
        }));
    }
    tasks.sort_by_key(|(_, weight)| std::cmp::Reverse(*weight));
    tasks.into_iter().map(|(cells, _)| cells).collect()
}

/// splitmix64 finalizer.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The parallel grid evaluator. Construct, configure with the builder
/// methods, then call [`GridRunner::run_standard`], [`GridRunner::run`]
/// or [`GridRunner::map_pairs`].
#[derive(Debug, Clone)]
pub struct GridRunner {
    threads: usize,
    progress: bool,
}

impl Default for GridRunner {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            progress: false,
        }
    }
}

pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(0..total)` on up to `workers` threads of a process-wide pool
/// — the work-distribution primitive behind both the grid engine and the
/// serving layer ([`crate::serve`]), and the hook for new parallel
/// consumers that don't fit the grid shape.
///
/// Every index in `0..total` runs exactly once; nothing is guaranteed
/// about ordering, so keep outputs index-addressed.
///
/// * **Serial baseline.** When one worker (or one task) suffices, every
///   index runs on the calling thread and no thread is ever spawned, so
///   single-threaded runs stay a true serial baseline; a panic then
///   propagates at once.
/// * **Parked pool.** Otherwise the call lends at most `workers`
///   threads of one pool shared by every caller in the process. The
///   pool grows lazily to the largest `workers` any caller has asked
///   for, and its threads stay parked between calls, so a fan-out pays
///   no thread start-up. The lent threads claim indices from one
///   atomic counter while the calling thread sleeps until every index
///   has finished; the caller itself runs no task.
/// * **Panics.** Each task runs under `catch_unwind`. The first task
///   panic is re-raised on the caller, with its payload, after every
///   other index has run, and the pool keeps serving.
/// * **Nesting.** A fan-out started from inside a task runs inline on
///   that task's pool thread, so nested calls cannot deadlock.
///
/// The pool's one condition: a task must never wait for a sibling task
/// of the same call, because concurrent calls share the pool's threads
/// and the sibling may not be running yet.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let sum = AtomicUsize::new(0);
/// countertrust::grid::for_each_index(4, 10, |i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 45);
/// ```
pub fn for_each_index<F: Fn(usize) + Sync>(workers: usize, total: usize, f: F) {
    let workers = workers.min(total);
    if workers <= 1 || pool::on_pool_thread() {
        for i in 0..total {
            f(i);
        }
        return;
    }
    pool::run(workers, total, &f);
}

impl GridRunner {
    /// A runner using all available hardware parallelism, progress off.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many pool threads one fan-out may use (see
    /// [`for_each_index`]); `0` restores the default (available hardware
    /// parallelism).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { default_threads() } else { n };
        self
    }

    /// Enables or disables per-cell progress reporting on stderr.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Phase 1 internals: one [`PairParts`] per pair, machine-major, over
    /// one reference per workload. The workloads' references are
    /// collected in parallel, and every pair of a workload shares its
    /// `Arc`. A pair fails with its machine's cache-geometry error when
    /// that machine's geometry is degenerate (as [`PairParts::collect`]
    /// fails it), and otherwise with its workload's reference error;
    /// each failed pair is warned about on stderr. The serving layer
    /// amortizes the same construction through its cache instead of a
    /// one-shot vector.
    fn collect_pair_parts(
        &self,
        machines: &[MachineModel],
        workloads: &[WorkloadSpec<'_>],
        cfgs: &[Arc<Cfg>],
    ) -> Vec<Result<PairParts, CoreError>> {
        let slots: Vec<Mutex<Option<Result<PairParts, CoreError>>>> =
            workloads.iter().map(|_| Mutex::new(None)).collect();
        let done = AtomicUsize::new(0);
        self.for_each_index(workloads.len(), |w| {
            let workload = &workloads[w];
            let result =
                ReferenceProfile::collect_with_cfg(workload.program, &cfgs[w], workload.run_config)
                    .map(|(reference, _)| PairParts {
                        cfg: cfgs[w].clone(),
                        reference: Arc::new(reference),
                    })
                    .map_err(CoreError::from);
            *slots[w].lock().expect("no poisoned slots") = Some(result);
            if self.progress {
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("  [ref {d}/{}] {}", workloads.len(), workload.name);
            }
        });
        let per_workload: Vec<Result<PairParts, CoreError>> = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("no poisoned slots")
                    .expect("every index visited")
            })
            .collect();
        let mut pairs = Vec::with_capacity(machines.len() * workloads.len());
        for machine in machines {
            let geometry = machine.cache.validate().map_err(CoreError::from);
            for (workload, parts) in workloads.iter().zip(&per_workload) {
                let result = geometry.clone().and_then(|()| parts.clone());
                if let Err(e) = &result {
                    eprintln!(
                        "warning: {} / {}: reference collection failed: {e}",
                        machine.name, workload.name
                    );
                }
                pairs.push(result);
            }
        }
        pairs
    }

    /// Runs the full grid with the standard method columns
    /// ([`GridMethod::standard`]) — the Table 1/2 workhorse.
    #[must_use]
    pub fn run_standard(
        &self,
        machines: &[MachineModel],
        workloads: &[WorkloadSpec<'_>],
        opts: &MethodOptions,
        repeats: usize,
        base_seed: u64,
    ) -> Vec<Evaluation> {
        self.run(
            machines,
            workloads,
            |m| GridMethod::standard(m, opts),
            repeats,
            base_seed,
        )
    }

    /// Runs the full grid with custom method columns per machine.
    ///
    /// `resolve_methods` is called once per machine on the calling thread
    /// (its output order defines the method order of every
    /// [`Evaluation`]); the resulting `(machine, workload, method)` cells
    /// are then evaluated in parallel, one task per pair whose cells
    /// share passes (see the module docs). Methods whose evaluation fails are
    /// skipped with a warning on stderr, matching the holes in the
    /// paper's tables. Results come back machine-major, workload-minor —
    /// independent of thread count and scheduling.
    #[must_use]
    pub fn run<F>(
        &self,
        machines: &[MachineModel],
        workloads: &[WorkloadSpec<'_>],
        resolve_methods: F,
        repeats: usize,
        base_seed: u64,
    ) -> Vec<Evaluation>
    where
        F: Fn(&MachineModel) -> Vec<GridMethod>,
    {
        let methods: Vec<Vec<GridMethod>> = machines.iter().map(resolve_methods).collect();
        let cfgs = workload_cfgs(workloads);
        let pairs = self.collect_pair_parts(machines, workloads, &cfgs);

        // Every (machine, workload, method) cell, in output order, and
        // one task per pair over its cells: all of a pair's methods ×
        // repeats share passes through `Session::run_methods`.
        let mut cells = Vec::new();
        let mut pair_tasks = Vec::new();
        for (m, machine_methods) in methods.iter().enumerate() {
            for w in 0..workloads.len() {
                let first = cells.len();
                cells.extend((0..machine_methods.len()).map(|k| (m, w, k)));
                // Reference failures were already reported by phase 1;
                // the pair's task only counts its cells.
                let weight = pairs[m * workloads.len() + w]
                    .as_ref()
                    .map_or(0, |parts| parts.reference.total_instructions());
                pair_tasks.push((first..cells.len(), weight));
            }
        }
        let tasks = split_heaviest_first(pair_tasks, self.threads);
        let total = cells.len();
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ErrorStats>>> = (0..total).map(|_| Mutex::new(None)).collect();

        self.for_each_index(tasks.len(), |t| {
            let task_cells = &cells[tasks[t].clone()];
            let Some(&(m, w, _)) = task_cells.first() else {
                return;
            };
            let machine = &machines[m];
            let workload = &workloads[w];
            if let Ok(parts) = &pairs[m * workloads.len() + w] {
                let mut session =
                    parts.session(machine, workload.program, workload.run_config.clone());
                let runs: Vec<(&MethodInstance, u64)> = task_cells
                    .iter()
                    .flat_map(|&(m, w, k)| {
                        let instance = &methods[m][k].instance;
                        (0..repeats).map(move |r| (instance, cell_seed(base_seed, m, w, k, r)))
                    })
                    .collect();
                let mut tallies: Vec<Tally> = task_cells.iter().map(|_| Tally::default()).collect();
                session.run_methods(&runs, |i, run| tallies[i / repeats].add(run));
                for (c, tally) in tasks[t].clone().zip(tallies) {
                    let label = &methods[m][cells[c].2].label;
                    match tally.finish(label) {
                        Ok(stats) => *slots[c].lock().expect("no poisoned slots") = Some(stats),
                        Err(e) => eprintln!(
                            "warning: {} / {} / {label}: {e}",
                            machine.name, workload.name
                        ),
                    }
                }
            }
            if self.progress {
                for &(_, _, k) in task_cells {
                    let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "  [{d}/{total}] {} / {} / {}",
                        machine.name, workload.name, methods[m][k].label
                    );
                }
            }
        });

        // Reassemble in deterministic machine-major order.
        let mut slot_iter = slots.into_iter();
        let mut out = Vec::with_capacity(machines.len() * workloads.len());
        for (m, machine) in machines.iter().enumerate() {
            for workload in workloads {
                let methods = methods[m]
                    .iter()
                    .filter_map(|_| {
                        slot_iter
                            .next()
                            .expect("one slot per task")
                            .into_inner()
                            .expect("no poisoned slots")
                    })
                    .collect();
                out.push(Evaluation {
                    machine: machine.name.clone(),
                    workload: workload.name.to_string(),
                    methods,
                });
            }
        }
        out
    }

    /// Parallel map over `(machine, workload)` pairs with the reference
    /// profile pre-collected and shared — for experiments that need more
    /// than [`ErrorStats`] per cell (e.g. function rankings).
    ///
    /// Returns one entry per pair, machine-major; `None` marks pairs whose
    /// reference collection failed (warned on stderr).
    #[must_use]
    pub fn map_pairs<R, F>(
        &self,
        machines: &[MachineModel],
        workloads: &[WorkloadSpec<'_>],
        f: F,
    ) -> Vec<Option<R>>
    where
        F: Fn(PairCtx<'_>) -> R + Sync,
        R: Send,
    {
        let cfgs = workload_cfgs(workloads);
        let pairs = self.collect_pair_parts(machines, workloads, &cfgs);
        let total = machines.len() * workloads.len();
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        self.for_each_index(total, |i| {
            let (m, w) = (i / workloads.len(), i % workloads.len());
            let machine = &machines[m];
            let workload = workloads[w];
            // Reference failures were already reported by phase 1.
            if let Ok(parts) = &pairs[i] {
                let result = f(PairCtx::from_parts(machine, m, workload, w, parts));
                *slots[i].lock().expect("no poisoned slots") = Some(result);
            }
            if self.progress {
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("  [{d}/{total}] {} / {}", machine.name, workload.name);
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("no poisoned slots"))
            .collect()
    }

    /// Runs `f(0..total)` across the configured worker threads — see
    /// [`for_each_index`].
    fn for_each_index<F: Fn(usize) + Sync>(&self, total: usize, f: F) {
        for_each_index(self.threads, total, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::asm::assemble;

    fn kernel() -> Program {
        assemble(
            "k",
            r#"
            .func main
                movi r1, 30000
            top:
                addi r2, r2, 1
                addi r3, r3, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap()
    }

    fn specs<'a>(program: &'a Program, run_config: &'a RunConfig) -> Vec<WorkloadSpec<'a>> {
        vec![WorkloadSpec {
            name: "k",
            program,
            run_config,
        }]
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let program = kernel();
        let run_config = RunConfig::default();
        let workloads = specs(&program, &run_config);
        let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
        let opts = MethodOptions::fast();
        let serial = GridRunner::new()
            .threads(1)
            .run_standard(&machines, &workloads, &opts, 3, 42);
        let parallel = GridRunner::new()
            .threads(8)
            .run_standard(&machines, &workloads, &opts, 3, 42);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.methods.len(), b.methods.len());
            for (x, y) in a.methods.iter().zip(&b.methods) {
                assert_eq!(x.method, y.method);
                assert_eq!(x.runs, y.runs);
                assert_eq!(x.mean_samples, y.mean_samples);
            }
        }
    }

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn each_ran_once(runs: &[AtomicUsize]) -> bool {
        runs.iter().all(|r| r.load(Ordering::Relaxed) == 1)
    }

    #[test]
    fn a_task_panic_reaches_the_caller_after_every_other_index() {
        let runs = counters(64);
        let caught = std::panic::catch_unwind(|| {
            for_each_index(4, runs.len(), |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i == 13 {
                    std::panic::panic_any(i);
                }
            });
        });
        let payload = caught.expect_err("the task panic reaches the caller");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&13));
        assert!(each_ran_once(&runs));

        let next = counters(64);
        for_each_index(4, next.len(), |i| {
            next[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(each_ran_once(&next), "the pool serves the next fan-out");
    }

    #[test]
    fn a_fan_out_inside_a_task_runs_inline_and_completes() {
        let runs = counters(4 * 3);
        for_each_index(2, 4, |outer| {
            let thread = std::thread::current().id();
            for_each_index(2, 3, |inner| {
                assert_eq!(std::thread::current().id(), thread);
                runs[outer * 3 + inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(each_ran_once(&runs));
    }

    #[test]
    fn one_worker_runs_on_the_caller_and_more_never_do() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 3, 8] {
            let threads = Mutex::new(Vec::new());
            for_each_index(workers, 16, |_| {
                threads.lock().unwrap().push(std::thread::current().id());
            });
            let threads = threads.into_inner().unwrap();
            assert_eq!(threads.len(), 16);
            if workers == 1 {
                assert!(threads.iter().all(|&t| t == caller));
            } else {
                assert!(threads.iter().all(|&t| t != caller), "workers = {workers}");
            }
        }
    }

    #[test]
    #[ignore = "heavy pool stress, exercised by the CI --include-ignored step"]
    fn concurrent_callers_each_see_every_index_once() {
        std::thread::scope(|scope| {
            for caller in 0..8 {
                scope.spawn(move || {
                    for round in 0..200 {
                        let runs = counters(1 + (caller * 31 + round) % 40);
                        for_each_index(2 + caller % 3, runs.len(), |i| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(each_ran_once(&runs), "caller {caller}, round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn phase_two_claims_the_heaviest_pairs_first_and_splits_only_when_short() {
        let pairs = || vec![(0..7, 10), (7..14, 30), (14..21, 20)];
        // As many pairs as workers: one task per pair, heaviest first.
        assert_eq!(split_heaviest_first(pairs(), 3), vec![7..14, 14..21, 0..7]);
        // Fewer pairs than workers: each pair splits into contiguous
        // parts that cover its cells.
        let tasks = split_heaviest_first(pairs(), 8);
        assert_eq!(tasks.len(), 9);
        assert_eq!(tasks[..3], [7..9, 9..11, 11..14]);
        let mut cells: Vec<usize> = tasks.into_iter().flatten().collect();
        cells.sort_unstable();
        assert_eq!(cells, (0..21).collect::<Vec<_>>());
        // A pair never splits into more parts than it has cells.
        assert_eq!(split_heaviest_first(vec![(0..2, 1)], 8), vec![0..1, 1..2]);
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for m in 0..3 {
            for w in 0..4 {
                for k in 0..7 {
                    for r in 0..5 {
                        assert!(seen.insert(cell_seed(1_000, m, w, k, r)));
                    }
                }
            }
        }
        assert_eq!(cell_seed(1, 2, 3, 4, 5), cell_seed(1, 2, 3, 4, 5));
        assert_ne!(cell_seed(1, 2, 3, 4, 5), cell_seed(2, 2, 3, 4, 5));
    }

    // NOTE: the "reference collected exactly once per workload" guarantee
    // is asserted via ct_instrument::collection_count() in
    // tests/integration_grid.rs, which owns its whole test binary — the
    // counter is process-global, so asserting exact deltas here would
    // race against sibling unit tests collecting references in parallel.

    /// A machine whose cache geometry cannot be built fails its pairs
    /// at the reference step: its rows come back with no methods and
    /// `map_pairs` skips them, while a sound machine's rows are whole.
    #[test]
    fn a_degenerate_machine_leaves_its_rows_without_methods() {
        let program = kernel();
        let run_config = RunConfig::default();
        let workloads = specs(&program, &run_config);
        let mut degenerate = MachineModel::ivy_bridge();
        degenerate.name = "degenerate".to_string();
        degenerate.cache.l1_ways = degenerate.cache.l1_words;
        let machines = [degenerate, MachineModel::westmere()];
        let runner = GridRunner::new().threads(2);
        let evals = runner.run_standard(&machines, &workloads, &MethodOptions::fast(), 2, 7);
        assert_eq!(evals.len(), 2);
        assert_eq!(evals[0].machine, "degenerate");
        assert!(evals[0].methods.is_empty());
        assert!(!evals[1].methods.is_empty());
        let pairs = runner.map_pairs(&machines, &workloads, |ctx| ctx.machine_index);
        assert_eq!(pairs, [None, Some(1)]);
    }

    #[test]
    fn map_pairs_with_no_machines_is_empty() {
        let program = kernel();
        let run_config = RunConfig::default();
        let workloads = specs(&program, &run_config);
        let results = GridRunner::new()
            .threads(4)
            .map_pairs(&[], &workloads, |ctx| ctx.machine_index);
        assert!(results.is_empty());
    }

    #[test]
    fn map_pairs_with_no_workloads_is_empty() {
        let machines = [MachineModel::ivy_bridge()];
        let results = GridRunner::new()
            .threads(4)
            .map_pairs(&machines, &[], |ctx| ctx.workload_index);
        assert!(results.is_empty());
    }

    #[test]
    fn map_pairs_single_pair_runs_serially_and_in_place() {
        let program = kernel();
        let run_config = RunConfig::default();
        let workloads = specs(&program, &run_config);
        let machines = [MachineModel::westmere()];
        // One pair with many threads: the engine must not spawn more
        // workers than tasks, and indices must be (0, 0).
        let results = GridRunner::new()
            .threads(16)
            .map_pairs(&machines, &workloads, |ctx| {
                (
                    ctx.machine_index,
                    ctx.workload_index,
                    ctx.reference.total_instructions(),
                )
            });
        assert_eq!(results.len(), 1);
        let (m, w, total) = results[0].expect("single pair collects");
        assert_eq!((m, w), (0, 0));
        assert!(total > 0);
    }

    #[test]
    fn map_pairs_shares_references_and_keeps_order() {
        let program = kernel();
        let run_config = RunConfig::default();
        let workloads = specs(&program, &run_config);
        let machines = [MachineModel::ivy_bridge(), MachineModel::magny_cours()];
        let results = GridRunner::new()
            .threads(3)
            .map_pairs(&machines, &workloads, |ctx| {
                (ctx.machine.name.clone(), ctx.reference.clone())
            });
        assert_eq!(results.len(), 2);
        let (name0, reference0) = results[0].as_ref().unwrap();
        assert_eq!(name0, &machines[0].name);
        assert!(reference0.total_instructions() > 0);
        let (name1, reference1) = results[1].as_ref().unwrap();
        assert_eq!(name1, &machines[1].name);
        assert!(
            Arc::ptr_eq(reference0, reference1),
            "both machines share the workload's one reference"
        );
    }
}
