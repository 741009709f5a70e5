//! Regenerate the paper's **Table 1**: barrier optimization of the Linux
//! qspinlock. Prints the Linux history (reported numbers from the paper)
//! plus the row measured by this reproduction's push-button optimizer, and
//! the Fig. 20-style per-site assignment.
//!
//! Set `VSYNC_QUICK=1` to use only the 2-thread oracle (~seconds); the
//! default also verifies the 3-thread queue-path scenario per step.

fn main() {
    let quick = vsync_bench::env_quick();
    eprintln!(
        "optimizing qspinlock from the all-SC baseline ({} oracle)...",
        if quick { "quick 2-thread" } else { "2-thread + 3-thread" }
    );
    let result = vsync_bench::table1_experiment(quick);
    let mut rows = vsync_bench::table1_linux_rows();
    rows.push(result.row);
    println!("Table 1: Barrier optimization results for Linux's qspinlock");
    println!("{}", vsync_bench::render_table1(&rows));
    println!("Oracle scenarios: {}", result.scenarios.join(", "));
    println!(
        "Verification runs: {} ({} certified, {} relaxation steps accepted), {} closing",
        result.report.verifications,
        result.report.certified,
        result.report.steps.iter().filter(|s| s.accepted).count(),
        result.report.closing
    );
    println!("\nPer-site assignment (cf. paper Fig. 20):");
    println!("{}", result.report.program.render_barriers());
}
