//! `close_outputs` — re-explore every catalog output independently.
//!
//! Optimizes each catalog lock's all-`sc` 3-thread client and re-explores
//! the printed assignment with the axiom evaluator
//! (`CheckerKind::Reference`) and symmetry off, which shares no
//! consistency code with the optimizer's oracle or its closing
//! certificate (DESIGN.md §7.5). Prints one line per lock.
//!
//! ```sh
//! cargo run --release -p vsync-bench --bin close_outputs
//! ```
//!
//! Exits non-zero if any output does not verify, so CI can gate on it.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut failed = 0;
    for out in vsync_bench::reexplore_catalog_outputs(3) {
        println!("{:<20} 3t  {:<10.1?} {}", out.lock, out.elapsed, out.verdict);
        failed += usize::from(!out.verdict.is_verified());
    }
    if failed > 0 {
        eprintln!("{failed} optimizer output(s) did not verify under the axiom evaluator");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
