//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions on the workload's own inputs.
//!
//! * `stencil` — `sweep_region` over the interior window (contiguous fast
//!   path) and over the six boundary faces (resolved reads), and a plain
//!   `StencilSim::step`;
//! * `core` — `OnlineAbft::step` against `StencilSim::step` on twin sims,
//!   `ChecksumState::compute`, `Interpolator::interpolate_col`,
//!   `compare_vectors` and `correct_layer`;
//! * `checkpoint` — `EpochRing::store`, and a rollback through
//!   `EpochRing::restore` into the sim and the protector.
//!
//! Every timing is the median of several repetitions.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use abft_checkpoint::EpochRing;
use abft_core::{
    compare_vectors, correct_layer, AbftConfig, ChecksumState, Interpolator, OnlineAbft, StripSet,
};
use abft_grid::{Grid3D, NoGhosts};
use abft_num::Real;
use abft_stencil::{sweep_region, ChecksumMode, Exec, NoHook, StencilSim};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

const REPS: usize = 9;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Box windows `(rows, xs, zs)` whose cells take the boundary-resolved
/// path: the two z-faces, then the y-faces and x-faces between them.
fn boundary_windows(
    (nx, ny, nz): (usize, usize, usize),
    (ex, ey, ez): (usize, usize, usize),
) -> Vec<(Range<usize>, Range<usize>, Range<usize>)> {
    let zi = ez..nz - ez;
    let yi = ey..ny - ey;
    vec![
        (0..ny, 0..nx, 0..ez),
        (0..ny, 0..nx, nz - ez..nz),
        (0..ey, 0..nx, zi.clone()),
        (ny - ey..ny, 0..nx, zi.clone()),
        (yi.clone(), 0..ex, zi.clone()),
        (yi, nx - ex..nx, zi),
    ]
}

/// Run every probe on `proto` (the workload's sim, serial) and push the
/// `stencil.*`, `core.*` (timings) and `checkpoint.*` metrics.
pub fn probe<T: Real>(
    proto: &StencilSim<T>,
    cfg: AbftConfig<T>,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let proto = proto.clone().with_exec(Exec::Serial);
    let dims = proto.dims();
    let (nx, ny, nz) = dims;
    let cells = (nx * ny * nz) as f64;
    let st = proto.stencil().clone();
    let bounds = *proto.bounds();
    let ext = (st.extent_x(), st.extent_y(), st.extent_z());
    let interior_cells = ((nx - 2 * ext.0) * (ny - 2 * ext.1) * (nz - 2 * ext.2)) as f64;
    let boundary_cells = cells - interior_cells;
    let src = proto.current().clone();
    let constant = proto.constant();
    let mut dst = Grid3D::<T>::zeros(nx, ny, nz);

    // stencil: interior run vs boundary-resolved faces.
    let (mut t_int, mut t_bnd) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.leaf("stencil.sweep_region.interior", NO_OP, || {
            sweep_region(
                &src,
                &mut dst,
                &st,
                &bounds,
                constant,
                &NoGhosts,
                &NoHook,
                ChecksumMode::None,
                Exec::Serial,
                ext.1..ny - ext.1,
                ext.0..nx - ext.0,
                ext.2..nz - ext.2,
            )
        });
        t_int.push(secs(t));
        let t = Instant::now();
        let span = tracer.enter("stencil.sweep_region.boundary", NO_OP);
        for (rows, xs, zs) in boundary_windows(dims, ext) {
            sweep_region(
                &src,
                &mut dst,
                &st,
                &bounds,
                constant,
                &NoGhosts,
                &NoHook,
                ChecksumMode::None,
                Exec::Serial,
                rows,
                xs,
                zs,
            );
        }
        tracer.exit(span);
        t_bnd.push(secs(t));
        black_box(&dst);
    }

    // stencil + core: twin sims, plain vs protected steps, interleaved.
    let mut plain = proto.clone();
    let mut prot = proto.clone();
    let mut abft = OnlineAbft::new(&prot, cfg);
    let (mut t_plain, mut t_prot) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.leaf("stencil.StencilSim::step", NO_OP, || plain.step());
        t_plain.push(secs(t));
        let t = Instant::now();
        tracer.leaf("core.OnlineAbft::step", NO_OP, || {
            abft.step(&mut prot, &NoHook)
        });
        t_prot.push(secs(t));
    }
    let (plain_s, prot_s) = (median(&t_plain), median(&t_prot));

    // core: the verification pieces on the probe's time-t/t+1 pair.
    let prev = prot.previous().clone();
    let cur = prot.current().clone();
    let mut t_sum = Vec::new();
    let mut col_t = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        col_t = tracer.leaf("core.ChecksumState::compute", NO_OP, || {
            ChecksumState::compute(&prev, false).col
        });
        t_sum.push(secs(t));
    }
    let col_comp = ChecksumState::compute(&cur, false).col;
    let interp = Interpolator::new(&st, &bounds, constant, dims);
    let mut col_interp = vec![T::ZERO; nz * ny];
    let mut t_interp = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.leaf("core.Interpolator::interpolate_col", NO_OP, || {
            interp.interpolate_col(&col_t, &StripSet::Grid(&prev), &NoGhosts, &mut col_interp)
        });
        t_interp.push(secs(t));
    }
    let mut t_detect = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let span = tracer.enter("core.compare_vectors", NO_OP);
        let mut flagged = 0;
        for z in 0..nz {
            flagged += compare_vectors(
                &col_interp[z * ny..(z + 1) * ny],
                &col_comp[z * ny..(z + 1) * ny],
                cfg.epsilon,
                cfg.abs_floor,
            )
            .len();
        }
        tracer.exit(span);
        t_detect.push(secs(t));
        assert_eq!(flagged, 0, "clean probe step flagged a checksum mismatch");
    }
    let full = ChecksumState::compute(&cur, true);
    let (mut row_c, mut col_c) = (full.row.clone().unwrap(), full.col.clone());
    let (row_i, col_i) = (full.row.unwrap(), full.col);
    let mut scratch = cur.clone();
    const EVENTS: usize = 1000;
    let mut t_correct = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let span = tracer.enter("core.correct_layer", NO_OP);
        for i in 0..EVENTS {
            let (x, y) = (i % nx, (i / nx) % ny);
            correct_layer(
                &mut scratch.layer_mut(0),
                &mut row_c[..nx],
                &mut col_c[..ny],
                &row_i[..nx],
                &col_i[..ny],
                x,
                y,
                0,
            );
        }
        tracer.exit(span);
        t_correct.push(secs(t) / EVENTS as f64);
        black_box(&scratch);
    }

    // checkpoint: store into a ring, roll one rank's state back from it.
    let mut ring = EpochRing::<T>::new(2);
    let mut aux = Vec::new();
    abft.write_checksum_payload(&mut aux);
    let (mut t_store, mut t_restore) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let epoch = prot.iteration() + rep;
        let t = Instant::now();
        tracer.leaf("checkpoint.EpochRing::store", NO_OP, || {
            ring.store(prot.current(), &aux, epoch)
        });
        t_store.push(secs(t));
        let t = Instant::now();
        let span = tracer.enter("checkpoint.EpochRing::restore", NO_OP);
        let snap = ring.restore(epoch);
        prot.restore(&snap.grid, snap.iteration);
        abft.restore_checksums(&snap.aux);
        tracer.exit(span);
        t_restore.push(secs(t));
    }

    let ns = 1e9;
    out.push(
        "stencil.boundary_ns_per_cell",
        median(&t_bnd) * ns / boundary_cells,
        "ns",
    );
    out.push(
        "stencil.interior_ns_per_cell",
        median(&t_int) * ns / interior_cells,
        "ns",
    );
    out.push("stencil.step_ns_per_cell", plain_s * ns / cells, "ns");
    out.push(
        "stencil.boundary_cell_share",
        boundary_cells / cells,
        "ratio",
    );
    out.push(
        "core.verify_ns_per_cell",
        (prot_s - plain_s) * ns / cells,
        "ns",
    );
    out.push(
        "core.abft_overhead_pct",
        100.0 * (prot_s / plain_s - 1.0),
        "%",
    );
    out.push(
        "core.checksum_ns_per_cell",
        median(&t_sum) * ns / cells,
        "ns",
    );
    out.push(
        "core.interpolate_ns_per_layer",
        median(&t_interp) * ns / nz as f64,
        "ns",
    );
    out.push(
        "core.detect_ns_per_layer",
        median(&t_detect) * ns / nz as f64,
        "ns",
    );
    out.push("core.correct_ns_per_event", median(&t_correct) * ns, "ns");
    out.push(
        "checkpoint.store_ns_per_cell",
        median(&t_store) * ns / cells,
        "ns",
    );
    out.push(
        "checkpoint.restore_ns_per_cell",
        median(&t_restore) * ns / cells,
        "ns",
    );
}
