//! Pieces every workload shares: set-up rounds, fault draws and the
//! end-to-end metric set.

use crate::oracle::Ledger;
use crate::report::{info, Metrics};
use crate::stats::{median, peak_rss_mb, tail, Tail};
use abft_fault::{first_detectable_bit, BitFlip};
use abft_num::Real;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;

/// Run the workload's set-up `SETUP_ROUNDS` times and keep the last
/// result. The first round is timed from process start, so it also
/// covers argument parsing and host probing; later rounds rebuild from
/// scratch and are timed alone.
pub fn setup_rounds<S>(started: Instant, mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    let mut state = build();
    times.push(started.elapsed().as_secs_f64());
    for _ in 1..SETUP_ROUNDS {
        drop(state);
        let t = Instant::now();
        state = build();
        times.push(t.elapsed().as_secs_f64());
    }
    (state, times)
}

/// Fraction bits whose flip both checksum comparisons are sure to notice,
/// so Eq. 10 can locate and repair it: from one above the analytic
/// detection boundary of the longer checksum line (`line_len` values up
/// to `scale`), to the top fraction bit. Below that boundary a flip may
/// be seen by one checksum axis and not the other; thresholded detection
/// then cannot locate it, a known limit of the method (the paper's Fig.
/// 10) that a fault campaign measures, not this throughput benchmark.
/// Exponent and sign flips are left out: they push the struck value so
/// far from its neighbours that the repair drowns in rounding.
pub fn flip_bits<T: Real>(
    epsilon: f64,
    line_len: usize,
    scale: f64,
) -> std::ops::RangeInclusive<u32> {
    let lo = first_detectable_bit::<T>(epsilon, line_len, scale).expect("detectable bit") + 1;
    lo..=T::MANTISSA_BITS - 1
}

pub fn random_flip(
    rng: &mut crate::rng::Rng,
    iters: usize,
    (nx, ny, nz): (usize, usize, usize),
    bits: &std::ops::RangeInclusive<u32>,
) -> BitFlip {
    BitFlip {
        iteration: rng.below(iters),
        x: rng.below(nx),
        y: rng.below(ny),
        z: rng.below(nz),
        bit: rng.range(*bits.start() as usize, *bits.end() as usize + 1) as u32,
    }
}

/// What a workload measured, ready for the end-to-end metric set.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub latency_ms: Vec<f64>,
    /// Take the tail per window of this many consecutive samples and
    /// report the median window's, so the tail stays at one percentile
    /// however long the run is; `None` takes it over the whole sample.
    pub tail_window: Option<usize>,
    pub throughput_mcells_s: f64,
    pub jobs_per_s: f64,
}

pub fn push_end_to_end(e: &EndToEnd, ledger: &Ledger, out: &mut Metrics) {
    out.push("setup_s", median(&e.setup_s), "s");
    out.push("throughput_mcells_s", e.throughput_mcells_s, "Mcells/s");
    out.push("jobs_per_s", e.jobs_per_s, "1/s");
    out.push("latency_p50_ms", median(&e.latency_ms), "ms");
    let window = e.tail_window.unwrap_or(e.latency_ms.len()).max(1);
    let tails: Vec<Tail> = e.latency_ms.chunks_exact(window).filter_map(tail).collect();
    match tails.first() {
        Some(t) => {
            info(format!(
                "latency_tail_ms is p{:.2} ({} beyond it) of {} samples, median over {} window(s)",
                t.percentile,
                t.beyond,
                t.samples,
                tails.len()
            ));
            let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
            out.push("latency_tail_ms", median(&values), "ms");
        }
        None => {
            info(format!(
                "latency_tail_ms: only {} samples per window, too few for a tail",
                window.min(e.latency_ms.len())
            ));
            out.push("latency_tail_ms", f64::NAN, "ms");
        }
    }
    let attempted = ledger.attempted.max(1) as f64;
    out.push(
        "ok_ops_ratio",
        1.0 - ledger.failed as f64 / attempted,
        "ratio",
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    info(format!(
        "setup rounds (s): {:?}; failed_ops_ratio = {}/{}",
        e.setup_s, ledger.failed, ledger.attempted
    ));
}

/// Counts the core layer reports from the workload's own ops.
pub fn push_core_counts(ledger: &Ledger, out: &mut Metrics) {
    out.push("core.detections", ledger.detections as f64, "count");
    out.push("core.corrections", ledger.corrections as f64, "count");
    out.push(
        "core.false_positives",
        ledger.false_positives as f64,
        "count",
    );
}

/// A smooth positive seeded field in `[1, 2]`: a sum of three random
/// separable cosine modes. Values stay away from zero so relative
/// checksum comparisons have a well-defined scale.
pub fn smooth_field(
    rng: &mut crate::rng::Rng,
    (nx, ny, nz): (usize, usize, usize),
) -> abft_grid::Grid3D<f64> {
    let modes: Vec<[f64; 7]> = (0..3)
        .map(|_| {
            let mut m = [0.0; 7];
            for (i, v) in m.iter_mut().enumerate() {
                *v = if i < 3 {
                    std::f64::consts::TAU * (1.0 + 3.0 * rng.unit())
                } else {
                    std::f64::consts::TAU * rng.unit()
                };
            }
            m
        })
        .collect();
    abft_grid::Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        let (u, v, w) = (
            x as f64 / nx as f64,
            y as f64 / ny as f64,
            z as f64 / nz as f64,
        );
        let s: f64 = modes
            .iter()
            .map(|m| (m[0] * u + m[3]).cos() * (m[1] * v + m[4]).cos() * (m[2] * w + m[5]).cos())
            .sum();
        1.5 + s / 6.0
    })
}

/// A fixed-composition deck of cards (which fault an op carries, which
/// job shape it has) dealt in a seeded order and reshuffled whenever it
/// runs out. Every run then has the same mix up to one deck, so
/// run-to-run spread comes from the program, not from what a seed
/// happened to draw.
pub struct Deck<C> {
    cards: Vec<C>,
    pos: usize,
}

impl<C: Copy> Deck<C> {
    pub fn new(cards: Vec<C>) -> Self {
        assert!(!cards.is_empty());
        Self {
            pos: cards.len(),
            cards,
        }
    }

    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// Start a fresh shuffle at the next deal.
    pub fn restart(&mut self) {
        self.pos = self.cards.len();
    }

    pub fn deal(&mut self, rng: &mut crate::rng::Rng) -> C {
        if self.pos == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.cards[self.pos - 1]
    }
}

/// `flips` flip cards and `kills` kill cards per `size` ops.
pub fn fault_deck(size: usize, flips: usize, kills: usize) -> Deck<crate::oracle::Fault> {
    use crate::oracle::Fault;
    assert!(flips + kills <= size);
    let mut cards = vec![Fault::Flip; flips];
    cards.extend(std::iter::repeat_n(Fault::Kill, kills));
    cards.resize(size, Fault::None);
    Deck::new(cards)
}
