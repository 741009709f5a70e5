//! Calibrated time: wall-clock seconds scaled by how fast the machine was
//! while they were measured.
//!
//! The box this benchmark was written on is a 2-core VM whose speed
//! switches, every 10-30 s, between a quiet state and one in which the
//! same user-mode code takes up to 1.6x longer (no page faults, no system
//! time, no run-queue wait: a neighbour on the physical core). A run of
//! 10 s can lie wholly inside either state, so no quantile of its wall
//! times is steady: ten back-to-back runs of `verify-deep` spread 20 %
//! (first to third quartile over median) on the lower quartile of their
//! pass times.
//!
//! What does hold steady is the *ratio* between the engine and a fixed
//! piece of work of similar character run right beside it. Of the
//! candidate kernels tried (bit-matrix closure 1.3x, B-tree updates 1.3x,
//! pointer chasing through 4 MiB 1.2x, block copies in 256 KiB 1.3x,
//! `malloc`/clone/`free` of small vectors 1.6x, the same on a private
//! block pool 1.6x) the last two slow by the same factor as the engine,
//! window for window (1.66 vs 1.62, 1.50 vs 1.49, 1.46 vs 1.46, 1.39 vs
//! 1.42, ...), which matches what the engine does most: allocate, fill,
//! copy and drop small objects. The pool kernel is the one used, because
//! its speed does not depend on the state the engine left `malloc` in.
//!
//! The kernel runs between the pieces of every pass. One kernel sample
//! is itself noisy (its quartiles are 10 % apart), but the machine's
//! state lasts seconds, so a piece is scaled by the *median* of the
//! kernel samples taken from [`SMOOTHING_S`] before it to as long after
//! it, over [`NOMINAL_NS`]. On recorded series this brings the spread of
//! a 10 s window's lower quartile from 21-23 % to 2-3 %.
//!
//! The kernel is a proxy, and in the slow state it is off by up to a
//! tenth either way (a quarter on `litmus-corpus`, which also reads files
//! and parses, and on `verify-parallel`, whose two threads wait on each
//! other more than on the CPU). So the slow state is avoided rather than
//! corrected where possible: a pass is started only once the kernel says
//! the machine is quiet ([`Calibrator::wait_for_quiet`], within the run's
//! seconds), and a series is summarized over the passes that stayed
//! quiet — kernel within [`QUIET_SLOWDOWN`] of nominal, where scaling is
//! a correction of a few percent — and over all passes only when fewer
//! than [`MIN_QUIET_PASSES`] did.
//!
//! The result estimates the wall time on the quiet reference machine.
//! Wall times are printed beside it. The kernel is part of the benchmark
//! and, like the rest of it, must not change with the code under test.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{quantile, sorted};

/// The kernel's time on the quiet reference machine (README.md has the
/// machine's stamp and how this was taken).
pub const NOMINAL_NS: f64 = 690_000.0;

/// A pass is *quiet* when the kernel ran at most this much slower than
/// nominal around it (the quiet state itself drifts by 5-10 %).
pub const QUIET_SLOWDOWN: f64 = 1.12;

/// Fewest quiet passes a series is summarized from.
pub const MIN_QUIET_PASSES: usize = 2;

/// Pause between two looks at the machine while waiting for it to go
/// quiet.
const QUIET_POLL: Duration = Duration::from_millis(40);

/// A piece of a pass shorter than this is not closed by
/// [`Calibrator::mark`]: the kernel must stay a small share of the run.
const MIN_PIECE: Duration = Duration::from_millis(25);

/// Kernel samples this close (in seconds) to a piece describe the
/// machine during it.
const SMOOTHING_S: f64 = 1.0;

const BLOCK_WORDS: usize = 32;
const BLOCKS: usize = 4096;
const MAX_LIVE: usize = 200;

/// A private allocator-like workload: blocks of a 1 MiB arena are taken
/// from a free list, filled, copied into each other and given back in
/// random order. No call into `malloc`, so the engine cannot change its
/// speed by how it leaves the heap.
struct Pool {
    words: Vec<u64>,
    free: Vec<u32>,
    live: Vec<u32>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            words: vec![0; BLOCK_WORDS * BLOCKS],
            free: (0..BLOCKS as u32).rev().collect(),
            live: Vec::with_capacity(MAX_LIVE + 1),
        }
    }

    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        let mut x = 88_172_645_463_325_252u64;
        for round in 0..40_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if self.live.len() < MAX_LIVE && (x & 3 != 0 || self.live.is_empty()) {
                let block = self.free.pop().expect("more blocks than can be live");
                let base = block as usize * BLOCK_WORDS;
                let len = 8 + (x >> 8) as usize % 24;
                for i in 0..len {
                    self.words[base + i] = round ^ i as u64;
                }
                self.live.push(block);
            } else {
                let victim = (x >> 16) as usize % self.live.len();
                let block = self.live.swap_remove(victim);
                let base = block as usize * BLOCK_WORDS;
                acc = acc.wrapping_add(self.words[base + 3]);
                if let Some(&other) = self.live.last() {
                    let to = other as usize * BLOCK_WORDS;
                    self.words.copy_within(base..base + 16, to);
                }
                self.free.push(block);
            }
        }
        self.free.append(&mut self.live);
        acc
    }
}

struct Piece {
    pass: usize,
    start_s: f64,
    end_s: f64,
}

/// Times the passes of one series and the kernel between their pieces.
pub struct Calibrator {
    pool: Pool,
    epoch: Instant,
    /// `(when, kernel nanoseconds)`, in time order.
    samples: Vec<(f64, f64)>,
    pieces: Vec<Piece>,
    passes: usize,
    piece_started_s: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            pool: Pool::new(),
            epoch: Instant::now(),
            samples: Vec::new(),
            pieces: Vec::new(),
            passes: 0,
            piece_started_s: 0.0,
        }
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run the kernel, record it, and open a piece after it. The kernel
    /// runs twice and the second run is the sample: the first one pays
    /// for whatever of the kernel's memory the workload pushed out of the
    /// caches, which says nothing about the machine.
    fn sample(&mut self) {
        black_box(self.pool.kernel());
        let t0 = self.now_s();
        black_box(self.pool.kernel());
        let t1 = self.now_s();
        self.samples.push(((t0 + t1) / 2.0, (t1 - t0) * 1e9));
        self.piece_started_s = t1;
    }

    /// Start a pass.
    pub fn begin(&mut self) {
        self.sample();
    }

    /// Sleep until the kernel runs within [`QUIET_SLOWDOWN`] of nominal
    /// or `deadline` passes: time the machine spends in its slow state is
    /// better waited out than measured. The samples taken while waiting
    /// count towards smoothing like any other.
    pub fn wait_for_quiet(&mut self, deadline: Instant) {
        loop {
            self.sample();
            let slowdown = self.samples.last().map_or(1.0, |s| s.1) / NOMINAL_NS;
            if slowdown <= QUIET_SLOWDOWN || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(QUIET_POLL);
        }
    }

    fn close_piece(&mut self) {
        let end_s = self.now_s();
        self.pieces.push(Piece { pass: self.passes, start_s: self.piece_started_s, end_s });
        self.sample();
    }

    /// Between two items: close the open piece if it is long enough.
    pub fn mark(&mut self) {
        if self.now_s() - self.piece_started_s >= MIN_PIECE.as_secs_f64() {
            self.close_piece();
        }
    }

    /// End the pass; returns its wall seconds (kernel time excluded).
    pub fn finish(&mut self) -> f64 {
        self.close_piece();
        let pass = self.passes;
        self.passes += 1;
        self.pieces.iter().rev().take_while(|p| p.pass == pass).map(|p| p.end_s - p.start_s).sum()
    }

    /// How much slower than nominal the kernel ran around `piece`.
    fn slowdown(&self, piece: &Piece) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= piece.start_s - SMOOTHING_S && *t <= piece.end_s + SMOOTHING_S)
            .map(|&(_, ns)| ns)
            .collect();
        // Never empty: every piece has a sample right before and after.
        quantile(&sorted(&near), 0.5) / NOMINAL_NS
    }

    /// `(calibrated seconds, slowdown)` of every finished pass, in order;
    /// a pass's slowdown is its wall time over its calibrated time.
    pub fn calibrated(&self) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); self.passes];
        for piece in &self.pieces {
            let wall = piece.end_s - piece.start_s;
            out[piece.pass].0 += wall / self.slowdown(piece);
            out[piece.pass].1 += wall;
        }
        out.into_iter().map(|(calibrated, wall)| (calibrated, wall / calibrated)).collect()
    }

    /// Median kernel time over the series, in nanoseconds.
    pub fn kernel_median_ns(&self) -> f64 {
        let ns: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        quantile(&sorted(&ns), 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_returns_every_block() {
        let mut pool = Pool::new();
        let a = pool.kernel();
        assert_eq!(pool.free.len(), BLOCKS);
        assert!(pool.live.is_empty());
        // The arena keeps what the first run wrote, the free list its
        // order; a second pool starts where the first one started.
        assert_eq!(Pool::new().kernel(), a);
    }

    #[test]
    fn pieces_are_scaled_by_the_median_kernel_sample_near_them() {
        let mut c = Calibrator::new();
        c.begin();
        c.mark(); // too short a piece: stays open
        assert!(c.pieces.is_empty());
        std::thread::sleep(Duration::from_millis(30));
        c.mark();
        assert_eq!(c.pieces.len(), 1);
        std::thread::sleep(Duration::from_millis(5));
        let wall = c.finish();
        assert_eq!((c.pieces.len(), c.samples.len(), c.passes), (2, 3, 1));
        // The kernel's own time is not part of the pass.
        assert!((0.035..0.050).contains(&wall), "{wall}");
        c.begin();
        let second = c.finish();
        assert!(second < 0.005);

        // Hand-made samples: 2x nominal near the first pass, nominal
        // near a piece placed far later.
        c.samples = vec![
            (0.0, 2.0 * NOMINAL_NS),
            (0.5, 2.0 * NOMINAL_NS),
            (0.6, 9.0 * NOMINAL_NS),
            (10.0, NOMINAL_NS),
        ];
        c.pieces = vec![
            Piece { pass: 0, start_s: 0.1, end_s: 0.4 },
            Piece { pass: 1, start_s: 9.5, end_s: 9.9 },
            Piece { pass: 1, start_s: 10.1, end_s: 10.2 },
        ];
        let calibrated = c.calibrated();
        assert!(
            (calibrated[0].0 - 0.3 / 2.0).abs() < 1e-9,
            "median of 2, 2, 9 is 2: {calibrated:?}"
        );
        assert!((calibrated[0].1 - 2.0).abs() < 1e-9, "{calibrated:?}");
        assert!(
            (calibrated[1].0 - 0.5).abs() < 1e-9 && (calibrated[1].1 - 1.0).abs() < 1e-9,
            "{calibrated:?}"
        );
    }
}
