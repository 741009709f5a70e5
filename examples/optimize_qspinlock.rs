//! Study case §3.3: push-button barrier optimization of the Linux
//! qspinlock (the paper's Table 1 / Fig. 20).
//!
//! Starting from the all-SC baseline, the optimizer relaxes each barrier
//! site to the weakest mode that still verifies — safety (no lost
//! increments) *and* await termination — under the weak memory model.
//!
//! This example uses the quick 2-thread oracle (driven end-to-end by the
//! registry-backed `Session` pipeline inside `vsync_bench`); run the
//! `table1_qspinlock` bench binary for the full experiment with the
//! 3-thread queue-path scenario.
//!
//! ```sh
//! cargo run --release --example optimize_qspinlock
//! ```

fn main() {
    println!("optimizing qspinlock from all-SC (quick 2-thread oracle)...\n");
    let result = vsync_bench::table1_experiment(true);
    let mut rows = vsync_bench::table1_linux_rows();
    rows.push(result.row);
    println!("{}", vsync_bench::render_table1(&rows));
    println!("Relaxations accepted (cf. paper Fig. 20):");
    for step in result.report.steps.iter().filter(|s| s.accepted) {
        println!("  {:<44} {} -> {}", result.report.site_name(step), step.from, step.to);
    }
    println!(
        "\n{} AMC verification runs ({} explorations, {} certified, {} witness-cache hits) in {:.1?}",
        result.report.verifications,
        result.report.explorations,
        result.report.certified,
        result.report.cache_hits,
        result.report.elapsed
    );
}
