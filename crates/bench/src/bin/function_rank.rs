//! Regenerates the §5.2 FullCMS function-ranking experiment: "None of the
//! methods produces the top 10 functions from the FullCMS profile in the
//! right order."
//!
//! For every machine × method, compares the estimated top-10 function
//! ranking against the instrumented truth: exact-order match plus the
//! Kendall tau rank correlation.
//!
//! ```text
//! cargo run --release -p ct-bench --bin function_rank \
//!     [--scale F] [--seed N] [--threads N]
//! ```
//!
//! Machines are evaluated in parallel on the grid engine; the reference
//! profile (and the truth ranking derived from it) is collected once per
//! machine, and one simulation per machine drives every method's run.

use countertrust::grid::cell_seed;
use countertrust::methods::{MethodInstance, MethodKind, MethodOptions};
use countertrust::report::Table;
use countertrust::{kendall_tau, top_n_exact_match};
use ct_bench::{grid_runner, workload_specs, CliOptions};
use ct_sim::MachineModel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = CliOptions::parse(&args);
    let apps = ct_workloads::applications(cli.scale);
    let fullcms: Vec<_> = apps.into_iter().filter(|w| w.name == "fullcms").collect();
    assert!(!fullcms.is_empty(), "registry has fullcms");
    let specs = workload_specs(&fullcms);
    let machines = MachineModel::paper_machines();
    let opts = MethodOptions::default();

    println!("FullCMS top-10 function ranking vs instrumented truth (§5.2)\n");
    let results = grid_runner(&cli).map_pairs(&machines, &specs, |ctx| {
        let truth: Vec<String> = ctx
            .reference
            .function_ranking()
            .into_iter()
            .take(10)
            .map(|(n, _)| n)
            .collect();
        let methods: Vec<(MethodKind, MethodInstance, u64)> = MethodKind::ALL
            .iter()
            .enumerate()
            .filter_map(|(k, kind)| {
                let inst = kind.instantiate(ctx.machine, &opts)?;
                let seed = cell_seed(cli.seed, ctx.machine_index, ctx.workload_index, k, 0);
                Some((*kind, inst, seed))
            })
            .collect();
        let runs: Vec<(&MethodInstance, u64)> = methods
            .iter()
            .map(|(_, inst, seed)| (inst, *seed))
            .collect();
        let mut rows = Vec::new();
        ctx.session().run_methods(&runs, |i, run| {
            let kind = methods[i].0;
            match run {
                Ok(run) => {
                    let est = run.profile.top_functions(10);
                    let exact = top_n_exact_match(&est, &truth, 10);
                    let tau = kendall_tau(&est, &truth);
                    rows.push((kind.label().to_string(), exact, tau));
                }
                Err(e) => eprintln!("warning: {kind:?} on {}: {e}", ctx.machine.name),
            }
        });
        rows
    });

    let mut any_exact = false;
    for (machine, rows) in machines.iter().zip(results) {
        let mut t = Table::new(
            format!("machine: {}", machine.name),
            vec![
                "method".into(),
                "top-10 exact order".into(),
                "kendall tau".into(),
            ],
        );
        for (label, exact, tau) in rows.unwrap_or_default() {
            any_exact |= exact;
            t.push_row(vec![
                label,
                if exact { "YES" } else { "no" }.to_string(),
                format!("{tau:.3}"),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "paper claim: no method recovers the exact top-10 order -> {}",
        if any_exact {
            "NOT reproduced (a method matched)"
        } else {
            "reproduced"
        }
    );
}
