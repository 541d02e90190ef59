//! `dist_thick` — a thick 3-D domain served one job at a time.
//!
//! `diffusion_27pt` f64 at 128×128×64, each job sent through `DistService`
//! (pool 2) on a 2×1×1 rank grid with online ABFT and a checkpoint every
//! 8 steps; a seeded share of jobs carries one bit flip or one rank kill.
//! About 92% of each brick's cells take the interior fast path, so the
//! boundary path does little; the halo post/wait, the x-split column
//! checksums, checkpoint writes on every job and reads plus rollback on
//! kill jobs do the distinguishing work.

use crate::common::{
    fault_deck, flip_bits, push_core_counts, push_end_to_end, random_flip, setup_rounds,
    smooth_field, EndToEnd,
};
use crate::jobs::{serve_closed, DistAcc};
use crate::oracle::{self, check, l2_bound, reference, Fault, Ledger};
use crate::report::info;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{host, layers, Args, Outcome};
use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_dist::{DistService, JobSpec, Partition3};
use abft_fault::RankKill;
use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::{Stencil3D, StencilSim};
use std::time::Instant;

const DIMS: (usize, usize, usize) = (128, 128, 64);
const RANK_GRID: (usize, usize, usize) = (2, 1, 1);
const RANKS: usize = RANK_GRID.0 * RANK_GRID.1 * RANK_GRID.2;
/// Steps per job. Every job stores the epoch-0 checkpoint.
const ITERS: usize = 8;
const CHECKPOINT_PERIOD: usize = 8;
const VARIANTS: usize = 2;
/// Per 20 jobs, 4 carry a bit flip and 5 a rank kill. Kill jobs are
/// common enough that the latency tail is theirs: the tail then measures
/// rollback and replay, not which job happened to land there.
const DECK: (usize, usize, usize) = (20, 4, 5);
/// Kills strike at the last step, so each kill job replays the same
/// `ITERS - 1` steps from its epoch-0 checkpoint.
const KILL_ITER: usize = ITERS - 1;
const ALPHA: f64 = 0.4;

struct Inputs {
    service: DistService<f64>,
    initial: Vec<Grid3D<f64>>,
}

fn stencil() -> Stencil3D<f64> {
    Stencil3D::diffusion_27pt(ALPHA)
}

fn job(initial: &Grid3D<f64>, cfg: AbftConfig<f64>) -> JobSpec<f64> {
    JobSpec::over(initial.clone(), stencil())
        .with_bounds(BoundarySpec::clamp())
        .with_ranks(RANKS)
        .with_grid3(RANK_GRID.0, RANK_GRID.1, RANK_GRID.2)
        .with_iters(ITERS)
        .with_abft(cfg)
        .with_checkpoint(CheckpointPolicy::every(CHECKPOINT_PERIOD))
}

fn build(seed: u64, cfg: AbftConfig<f64>) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let initial: Vec<Grid3D<f64>> = (0..VARIANTS)
        .map(|_| smooth_field(&mut rng, DIMS))
        .collect();
    let service = DistService::new(RANKS).expect("pool");
    // Warm-up: one clean job fills the topology cache.
    service
        .submit(job(&initial[0], cfg))
        .and_then(|h| h.wait())
        .expect("warm-up job");
    Inputs { service, initial }
}

pub fn run(args: &Args, started: Instant, tracer: &mut Tracer) -> Outcome {
    let cfg = AbftConfig::<f64>::paper_defaults();
    let (inputs, setup_s) = setup_rounds(started, || build(args.seed, cfg));

    let refs: Vec<Grid3D<f64>> = inputs
        .initial
        .iter()
        .map(|g| {
            reference(
                StencilSim::new(g.clone(), stencil(), BoundarySpec::clamp()),
                ITERS,
            )
        })
        .collect();
    let part = Partition3::new(
        DIMS.0,
        DIMS.1,
        DIMS.2,
        RANK_GRID.0,
        RANK_GRID.1,
        RANK_GRID.2,
    );
    let b0 = part.brick(0);
    let brick = (b0.x_len, b0.y_len, b0.z_len);
    let scale = 2.0;
    let bits = flip_bits::<f64>(cfg.epsilon, brick.0.max(brick.1), scale);
    let bound = l2_bound::<f64>(brick.0, scale);
    let self_check_ok = self_check(&inputs, &refs[0], bound);
    let host = host::Host::probe();
    info(host.line());
    let cells = DIMS.0 * DIMS.1 * DIMS.2;
    // Per variant the kept initial state and its reference, plus each
    // rank's two buffers, the job's own copy and the gathered result,
    // and the checkpoint rings (two epochs).
    info(host.working_set_line((VARIANTS * 2 + 2 + 2 + 2) * cells * 8));
    info(host::computed_line(
        "diffusion27_f64",
        &stencil(),
        cells,
        false,
    ));
    info(format!(
        "flip bits {bits:?}, corrected-op l2 bound {bound:e}"
    ));

    let mut rng = Rng::new(args.seed, 2);
    let mut deck = fault_deck(DECK.0, DECK.1, DECK.2);
    let mut ledger = Ledger::default();
    let mut acc = DistAcc::default();
    let (mut lat_ms, mut lat_traced, mut lat_plain) = (Vec::new(), Vec::new(), Vec::new());
    let t_start = Instant::now();
    let mut prev = Instant::now();
    let mut op = 0u64;
    while t_start.elapsed().as_secs_f64() < args.seconds {
        let v = rng.below(VARIANTS);
        let fault = deck.deal(&mut rng);
        let mut spec = job(&inputs.initial[v], cfg);
        let mut plan = String::new();
        match fault {
            Fault::Flip => {
                let rank = rng.below(RANKS);
                let flip = random_flip(&mut rng, ITERS, brick, &bits);
                plan = format!("rank {rank} {flip:?}");
                spec = spec.with_flip(rank, flip);
            }
            Fault::Kill => {
                let kill = RankKill::new(rng.below(RANKS), KILL_ITER);
                plan = format!("{kill:?}");
                spec = spec.with_rank_kill(kill);
            }
            Fault::None => {}
        }
        let traced = args.trace && op.is_multiple_of(2);
        tracer.set_on(traced);
        let span = tracer.enter("op", op);
        let (result, timing, done) = serve_closed(&inputs.service, spec, prev, tracer, op);
        match result {
            Ok(r) => {
                let stats = r.total_stats();
                let verdict = tracer.leaf("oracle.check", op, || {
                    check(&r.global, &refs[v], fault, &stats, &r.recovery, bound)
                        .map_err(|e| format!("{e} [input {v}, {plan}]"))
                });
                ledger.record(op, fault, &stats, verdict);
                acc.add(&r, ITERS, timing);
                lat_ms.push(timing.observed_s * 1e3);
                if traced {
                    &mut lat_traced
                } else {
                    &mut lat_plain
                }
                .push(timing.observed_s);
            }
            Err(e) => ledger.record_error(op, fault, format!("{e} [input {v}, {plan}]")),
        }
        tracer.exit(span);
        prev = done;
        op += 1;
    }
    tracer.set_on(args.trace);
    let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let e2e = EndToEnd {
        setup_s,
        tail_window: None,
        throughput_mcells_s: (lat_ms.len() * ITERS * cells) as f64 / busy_s / 1e6,
        jobs_per_s: lat_ms.len() as f64 / busy_s,
        latency_ms: lat_ms,
    };
    let mut out = Outcome::new(self_check_ok);
    push_end_to_end(&e2e, &ledger, &mut out.e2e);

    if args.trace {
        // The layer probes run on rank 0's brick of the first input: the
        // shape each rank sweeps, with the global boundary on its faces.
        let g = &inputs.initial[0];
        let sub = Grid3D::from_fn(brick.0, brick.1, brick.2, |x, y, z| g.at(x, y, z));
        let proto = StencilSim::new(sub, stencil(), BoundarySpec::clamp());
        layers::probe(&proto, cfg, tracer, &mut out.layers);
        push_core_counts(&ledger, &mut out.layers);
        acc.metrics(&inputs.service.stats(), &mut out.layers);
        crate::push_trace_overhead(&lat_traced, &lat_plain, &mut out.layers);
    }
    out.ledger = ledger;
    out
}

/// Run one unprotected flipped job for the oracle's self-check.
fn self_check(inputs: &Inputs, reference_grid: &Grid3D<f64>, bound: f64) -> bool {
    let flip = abft_fault::BitFlip {
        iteration: 3,
        x: 5,
        y: 7,
        z: 9,
        bit: 50,
    };
    let spec = JobSpec::over(inputs.initial[0].clone(), stencil())
        .with_bounds(BoundarySpec::clamp())
        .with_ranks(RANKS)
        .with_grid3(RANK_GRID.0, RANK_GRID.1, RANK_GRID.2)
        .with_iters(ITERS)
        .with_flip(0, flip);
    let result = inputs.service.submit(spec).and_then(|h| h.wait());
    oracle::self_check(
        result.ok().map(|r| r.global).as_ref(),
        reference_grid,
        bound,
    )
}
