//! Correctness oracle: every op's output is judged against a serial
//! `StencilSim` reference computed before the timed region.
//!
//! * a clean op, and an op whose only fault is a rank kill, must equal the
//!   reference **bitwise** and report no detection;
//! * an op carrying one bit flip must report exactly one detection and one
//!   correction, and land within [`l2_bound`] of the reference.
//!
//! Anything else is a failed op: an error, a wrong result, a missed or an
//! extra detection (a false positive on a clean op).

use abft_core::ProtectorStats;
use abft_grid::Grid3D;
use abft_metrics::{l2_error, RecoveryStats};
use abft_num::Real;
use abft_stencil::StencilSim;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    Flip,
    Kill,
}

impl Fault {
    pub fn label(self) -> &'static str {
        match self {
            Fault::None => "clean",
            Fault::Flip => "flip",
            Fault::Kill => "kill",
        }
    }
}

/// Largest l2 distance from the reference a corrected op may land at.
///
/// Eq. 10 rebuilds the struck value from checksum sums, so the repair is
/// exact only up to the rounding of a sum of `line_len` values of
/// magnitude `scale`. In f64 that is far below the `1e-8` bound the
/// workspace's fault matrices use, which applies as is. In f32 the same
/// rounding is ~10⁻³ on a 512-wide HotSpot tile, so the bound scales with
/// the storage precision: `max(1e-8, 4 · line_len · scale · ε_T)`.
pub fn l2_bound<T: Real>(line_len: usize, scale: f64) -> f64 {
    (4.0 * line_len as f64 * scale * T::EPS.to_f64()).max(1e-8)
}

/// Judge one op. `stats` are the protector counters the op reported,
/// `recovery` its rollback ledger (default for single-process ops).
pub fn check<T: Real>(
    got: &Grid3D<T>,
    reference: &Grid3D<T>,
    fault: Fault,
    stats: &ProtectorStats,
    recovery: &RecoveryStats,
    bound: f64,
) -> Result<(), String> {
    if got.dims() != reference.dims() {
        return Err(format!(
            "shape {:?} != reference {:?}",
            got.dims(),
            reference.dims()
        ));
    }
    match fault {
        Fault::None | Fault::Kill => {
            if stats.detections != 0 || stats.corrections != 0 {
                return Err(format!(
                    "false positive: {} detections, {} corrections on a {} op",
                    stats.detections,
                    stats.corrections,
                    fault.label()
                ));
            }
            if fault == Fault::Kill && recovery.rank_losses != 1 {
                return Err(format!("kill op lost {} ranks", recovery.rank_losses));
            }
            if let Some(i) = first_bitwise_difference(got, reference) {
                let (nx, ny) = (got.nx(), got.ny());
                return Err(format!(
                    "not bitwise equal to the reference: first difference at ({}, {}, {}), l2 = {:e}",
                    i % nx,
                    (i / nx) % ny,
                    i / (nx * ny),
                    l2_error(reference, got)
                ));
            }
        }
        Fault::Flip => {
            if stats.detections != 1 || stats.corrections != 1 {
                return Err(format!(
                    "flip op: {} detections, {} corrections (want 1 and 1)",
                    stats.detections, stats.corrections
                ));
            }
            let l2 = l2_error(reference, got);
            if l2.is_nan() || l2 > bound {
                return Err(format!("corrected flip op: l2 = {l2:e} > {bound:e}"));
            }
        }
    }
    Ok(())
}

/// The oracle's self-check: the output of an unprotected op that carried
/// a flip must be rejected both as a flip op (it reports no detection) and
/// as a clean op (it is not bitwise equal to the reference). `None` means
/// the op produced no output, which fails the self-check too.
pub fn self_check<T: Real>(
    corrupted: Option<&Grid3D<T>>,
    reference: &Grid3D<T>,
    bound: f64,
) -> bool {
    let none = ProtectorStats::default();
    let rec = RecoveryStats::default();
    let ok = corrupted.is_some_and(|g| {
        check(g, reference, Fault::Flip, &none, &rec, bound).is_err()
            && check(g, reference, Fault::None, &none, &rec, bound).is_err()
    });
    crate::report::info(format!(
        "self-check (unprotected flipped op must fail): {}",
        if ok {
            "ok"
        } else {
            "FAILED — the oracle accepted a corrupted op"
        }
    ));
    ok
}

fn first_bitwise_difference<T: Real>(a: &Grid3D<T>, b: &Grid3D<T>) -> Option<usize> {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .position(|(x, y)| x.to_bits_u64() != y.to_bits_u64())
}

/// Serial reference: `iters` unprotected steps of `sim` from its current
/// state.
pub fn reference<T: Real>(mut sim: StencilSim<T>, iters: usize) -> Grid3D<T> {
    for _ in 0..iters {
        sim.step();
    }
    sim.current().clone()
}

/// Failed-op ledger: counts every failure and keeps the first few
/// messages so a nonzero failure count is always reported with its ops.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub detections: u64,
    pub corrections: u64,
    pub false_positives: u64,
    pub messages: Vec<String>,
}

impl Ledger {
    pub fn record(
        &mut self,
        op: u64,
        fault: Fault,
        stats: &ProtectorStats,
        verdict: Result<(), String>,
    ) {
        self.attempted += 1;
        self.detections += stats.detections as u64;
        self.corrections += stats.corrections as u64;
        if fault != Fault::Flip {
            self.false_positives += stats.detections as u64;
        }
        if let Err(msg) = verdict {
            self.fail(op, fault, msg);
        }
    }

    /// An op that produced no result at all (an error).
    pub fn record_error(&mut self, op: u64, fault: Fault, msg: String) {
        self.attempted += 1;
        self.fail(op, fault, msg);
    }

    fn fail(&mut self, op: u64, fault: Fault, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages
                .push(format!("op {op} ({}): {msg}", fault.label()));
        }
    }
}
