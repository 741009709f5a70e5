//! The microbenchmark harness (paper §4.2.1, Listing 1).
//!
//! Each thread repeatedly acquires a lock, increments a shared counter
//! (touching `cs_size` cache lines inside the critical section), releases,
//! and optionally touches `es_size` private lines outside. The returned
//! counter value divided by the duration is the throughput — exactly the
//! paper's `count / duration` column.

use std::collections::HashMap;

use crate::arch::Arch;
use crate::engine::{run_simulation, SimConfig, SimThread};

/// Address of the shared counter (cache-line aligned, alone on its line).
pub const COUNTER_ADDR: u64 = 0x10_0000;
/// Base of the extra shared lines touched for `cs_size > 1`.
pub const CS_LINES_BASE: u64 = 0x20_0000;
/// Base of the per-thread private lines touched for `es_size > 0`.
pub const ES_LINES_BASE: u64 = 0x40_0000;

/// A runtime lock implementation driven by the simulator.
pub trait SimLock: Send + Sync {
    /// Algorithm name as it appears in the paper's tables (e.g. `"mcs"`).
    fn name(&self) -> &'static str;

    /// Initialize lock memory (defaults to all-zero).
    fn init_mem(&self, _mem: &mut HashMap<u64, u64>) {}

    /// Acquire the lock.
    fn acquire(&self, ctx: &mut SimThread);

    /// Release the lock.
    fn release(&self, ctx: &mut SimThread);
}

/// sc-only or VSYNC-optimized variant (the paper's `seqopt` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Every barrier sequentially consistent.
    Seq,
    /// Maximally relaxed barriers.
    Opt,
}

impl Variant {
    /// Column label (`"seq"` / `"opt"`).
    pub fn label(self) -> &'static str {
        match self {
            Variant::Seq => "seq",
            Variant::Opt => "opt",
        }
    }
}

/// Workload shape knobs (§4.2.2 "Critical and non-critical section sizes").
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Cache lines touched inside the critical section (≥ 1; the counter
    /// line is the first).
    pub cs_size: usize,
    /// Private cache lines touched outside the critical section.
    pub es_size: usize,
}

impl Default for Workload {
    fn default() -> Self {
        // The paper's final configuration: cs_size = 1, es_size = 0.
        Workload { cs_size: 1, es_size: 0 }
    }
}

/// One raw benchmark record (a row of the paper's Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Platform label (`aarch64` / `x86_64`).
    pub arch: Arch,
    /// Lock algorithm.
    pub algorithm: String,
    /// sc-only or optimized.
    pub variant: Variant,
    /// Thread count.
    pub threads: usize,
    /// Run number (1-based).
    pub run: usize,
    /// Critical sections executed.
    pub count: u64,
    /// Measured duration in (virtual) seconds.
    pub duration: f64,
    /// `count / duration`.
    pub throughput: f64,
}

/// Run the Listing-1 microbenchmark once.
pub fn run_microbench(lock: &dyn SimLock, cfg: &SimConfig, wl: &Workload) -> (u64, f64) {
    let mut init = HashMap::new();
    lock.init_mem(&mut init);
    let duration = cfg.duration;
    let (out, count) = run_simulation(
        cfg,
        &init,
        |ctx| {
            let es_base = ES_LINES_BASE + ctx.tid() as u64 * 0x10_000;
            while ctx.now() < duration {
                lock.acquire(ctx);
                // Critical section: (*shared_counter)++ ...
                let v = ctx.load(COUNTER_ADDR, vsync_graph::Mode::Rlx);
                ctx.store(COUNTER_ADDR, v + 1, vsync_graph::Mode::Rlx);
                // ... plus cs_size-1 further shared lines.
                for i in 1..wl.cs_size {
                    let addr = CS_LINES_BASE + (i as u64) * 64;
                    let w = ctx.load(addr, vsync_graph::Mode::Rlx);
                    ctx.store(addr, w + 1, vsync_graph::Mode::Rlx);
                }
                lock.release(ctx);
                // Non-critical work on private lines.
                for i in 0..wl.es_size {
                    let addr = es_base + (i as u64) * 64;
                    let w = ctx.load(addr, vsync_graph::Mode::Rlx);
                    ctx.store(addr, w + 1, vsync_graph::Mode::Rlx);
                }
            }
        },
        |st| st.read_mem(COUNTER_ADDR),
    );
    let secs = out.duration.max(duration) as f64 / SimConfig::CYCLES_PER_SECOND;
    (count, secs)
}

/// Produce the paper's 5 repetitions for one configuration.
pub fn run_repetitions(
    lock: &dyn SimLock,
    variant: Variant,
    arch: Arch,
    threads: usize,
    duration: u64,
    wl: &Workload,
    repetitions: usize,
) -> Vec<Record> {
    (1..=repetitions)
        .map(|run| {
            let seed = seed_for(lock.name(), variant, arch, threads, run);
            let cfg = SimConfig { arch, threads, duration, seed, jitter_percent: 8 };
            let (count, secs) = run_microbench(lock, &cfg, wl);
            Record {
                arch,
                algorithm: lock.name().to_owned(),
                variant,
                threads,
                run,
                count,
                duration: secs,
                throughput: count as f64 / secs,
            }
        })
        .collect()
}

/// The simulator seed of one run: 128-bit FNV-1a of the lock's name,
/// truncated, mixed with the run's coordinates. Every published table
/// depends on these values; `seeds_are_stable` pins them.
fn seed_for(name: &str, variant: Variant, arch: Arch, threads: usize, run: usize) -> u64 {
    let mut fnv: u128 = 0x6c62272e07bb014262b821756295c58d;
    for &b in name.as_bytes() {
        fnv = (fnv ^ b as u128).wrapping_mul(0x0000000001000000000000000000013b);
    }
    let mut h = fnv as u64;
    h ^= (threads as u64) << 32 | (run as u64) << 8 | (variant as u64) << 1;
    h ^= match arch {
        Arch::ArmV8 => 0xA,
        Arch::X86_64 => 0xB,
    };
    h | 1
}

/// A seq/opt pair of the same algorithm, ready for the sweep.
pub struct LockPair {
    /// sc-only variant.
    pub seq: Box<dyn SimLock>,
    /// optimized variant.
    pub opt: Box<dyn SimLock>,
}

/// Run the full sweep of one architecture: every lock pair × the paper's
/// thread counts × both variants × `repetitions` runs.
pub fn sweep(
    pairs: &[LockPair],
    arch: Arch,
    duration: u64,
    wl: &Workload,
    repetitions: usize,
) -> Vec<Record> {
    let mut records = Vec::new();
    for pair in pairs {
        for &threads in &arch.thread_counts() {
            for (variant, lock) in
                [(Variant::Seq, pair.seq.as_ref()), (Variant::Opt, pair.opt.as_ref())]
            {
                let t0 = std::time::Instant::now();
                records.extend(run_repetitions(lock, variant, arch, threads, duration, wl, repetitions));
                if std::env::var("VSYNC_PROGRESS").is_ok() {
                    eprintln!(
                        "  {} {} {} {}t: {:.1?}",
                        arch.label(),
                        lock.name(),
                        variant.label(),
                        threads,
                        t0.elapsed()
                    );
                }
            }
        }
    }
    records
}

/// Render records as the paper's Table 2 (raw captured records).
pub fn render_records(records: &[Record]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<5} {:>8} {:>14} {:>7} {:>11} {:>7} {:>14} {:>9} {:>13}",
        "", "arch", "algorithm", "seqopt", "threads_nb", "run_nb", "count", "duration", "throughput"
    );
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<5} {:>8} {:>14} {:>7} {:>11} {:>7} {:>14} {:>9.4} {:>13.5e}",
            i,
            r.arch.label(),
            r.algorithm,
            r.variant.label(),
            r.threads,
            r.run,
            r.count,
            r.duration,
            r.throughput
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_graph::Mode;

    /// A trivial CAS lock for harness tests.
    #[derive(Debug)]
    struct TestLock {
        sc: bool,
    }

    impl SimLock for TestLock {
        fn name(&self) -> &'static str {
            "test-cas"
        }
        fn acquire(&self, ctx: &mut SimThread) {
            let m = if self.sc { Mode::Sc } else { Mode::Acq };
            loop {
                if ctx.cas(0x40, 0, 1, m) == 0 {
                    return;
                }
                ctx.spin_until(0x40, Mode::Rlx, |v| v == 0);
            }
        }
        fn release(&self, ctx: &mut SimThread) {
            let m = if self.sc { Mode::Sc } else { Mode::Rel };
            ctx.store(0x40, 0, m);
        }
    }

    #[test]
    fn seeds_are_stable() {
        // Golden values: a changed seed silently changes Tables 2–5.
        assert_eq!(seed_for("", Variant::Seq, Arch::ArmV8, 0, 0), 0x62b821756295c58d ^ 0xA | 1);
        assert_eq!(seed_for("mcs", Variant::Seq, Arch::ArmV8, 4, 2), 0x836dbc7d62179cfd);
        assert_eq!(seed_for("qspinlock", Variant::Opt, Arch::X86_64, 8, 0), 0x430ff292b4d5df53);
    }

    #[test]
    fn microbench_counts_critical_sections() {
        let cfg = SimConfig { arch: Arch::ArmV8, threads: 2, duration: 40_000, seed: 5, jitter_percent: 5 };
        let (count, secs) = run_microbench(&TestLock { sc: false }, &cfg, &Workload::default());
        assert!(count > 50, "expected progress, got {count}");
        assert!(secs > 0.0);
    }

    #[test]
    fn repetitions_are_stable_but_not_identical() {
        let recs = run_repetitions(
            &TestLock { sc: false },
            Variant::Opt,
            Arch::ArmV8,
            2,
            40_000,
            &Workload::default(),
            5,
        );
        assert_eq!(recs.len(), 5);
        let min = recs.iter().map(|r| r.throughput).fold(f64::MAX, f64::min);
        let max = recs.iter().map(|r| r.throughput).fold(0.0, f64::max);
        assert!(max / min < 1.5, "runs should be in the same ballpark");
        assert!(max > min, "jitter should differentiate runs");
    }

    #[test]
    fn x86_sc_variant_is_slower_single_thread() {
        // The core Table 5 phenomenon at 1 thread on x86.
        let wl = Workload::default();
        let run = |sc: bool| {
            let cfg = SimConfig { arch: Arch::X86_64, threads: 1, duration: 60_000, seed: 5, jitter_percent: 0 };
            run_microbench(&TestLock { sc }, &cfg, &wl).0
        };
        let seq = run(true);
        let opt = run(false);
        assert!(opt as f64 / seq as f64 > 1.5, "opt {opt} vs seq {seq}");
    }

    #[test]
    fn bigger_critical_sections_shrink_the_gap() {
        // §4.2.2: "the bigger the critical section, the less the impact".
        let gap = |cs_size: usize| {
            let wl = Workload { cs_size, es_size: 0 };
            let run = |sc: bool| {
                let cfg = SimConfig { arch: Arch::X86_64, threads: 1, duration: 120_000, seed: 5, jitter_percent: 0 };
                run_microbench(&TestLock { sc }, &cfg, &wl).0 as f64
            };
            run(false) / run(true)
        };
        assert!(gap(1) > gap(8), "cs=1 gap {} should exceed cs=8 gap {}", gap(1), gap(8));
    }

    #[test]
    fn records_render_like_table2() {
        let recs = run_repetitions(
            &TestLock { sc: true },
            Variant::Seq,
            Arch::X86_64,
            2,
            30_000,
            &Workload::default(),
            2,
        );
        let table = render_records(&recs);
        assert!(table.contains("x86_64"));
        assert!(table.contains("seq"));
        assert!(table.contains("throughput"));
    }
}
