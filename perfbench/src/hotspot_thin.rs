//! `hotspot_thin` — the paper's application on its Table 1 large tile.
//!
//! HotSpot3D f32 at 512×512×8, clamped boundaries, `OnlineAbft` with the
//! paper defaults, serial execution, a closed loop with one client. One op
//! loads a seeded power map's initial state, builds the protector and runs
//! `ITERS` protected steps; a seeded minority of ops carry one bit flip.
//! With z = 8 a quarter of the cells sit on a z-face, so the
//! boundary-resolved sweep does most of the sweep work; there is no halo,
//! service or checkpoint work, so `stencil` and `core` dominate.

use crate::common::{
    fault_deck, flip_bits, push_core_counts, push_end_to_end, random_flip, setup_rounds, EndToEnd,
};
use crate::jobs::{serve_closed, DistAcc};
use crate::oracle::{self, check, l2_bound, reference, Fault, Ledger};
use crate::report::{info, Metrics};
use crate::rng::Rng;
use crate::trace::{Tracer, NO_OP};
use crate::{host, layers, Args, Outcome};
use abft_checkpoint::CheckpointPolicy;
use abft_core::{AbftConfig, OnlineAbft, ProtectorStats};
use abft_dist::{DistService, JobSpec};
use abft_fault::{BitFlip, FlipHook, RankKill};
use abft_grid::Grid3D;
use abft_hotspot::{build_sim, HotspotParams};
use abft_metrics::RecoveryStats;
use abft_stencil::{Exec, NoHook, StencilSim};
use std::time::Instant;

const DIMS: (usize, usize, usize) = (512, 512, 8);
/// Protected steps per op.
const ITERS: usize = 4;
/// Distinct seeded power maps the ops draw from.
const VARIANTS: usize = 2;
/// One op in four carries one bit flip.
const DECK: (usize, usize, usize) = (4, 1, 0);

struct Inputs {
    sims: Vec<StencilSim<f32>>,
    initial: Vec<Grid3D<f32>>,
}

fn build(seed: u64, cfg: AbftConfig<f32>) -> Inputs {
    let params = HotspotParams::new(DIMS.0, DIMS.1, DIMS.2);
    let mut rng = Rng::new(seed, 1);
    let sims: Vec<StencilSim<f32>> = (0..VARIANTS)
        .map(|_| build_sim::<f32>(&params, rng.next_u64(), Exec::Serial))
        .collect();
    let initial = sims.iter().map(|s| s.current().clone()).collect();
    let mut inputs = Inputs { sims, initial };
    // Warm-up: one clean protected op.
    protected_op(&mut inputs, 0, None, cfg, &mut Tracer::new(false), NO_OP);
    inputs
}

/// One op: reset to the variant's initial state, build the protector,
/// run `ITERS` protected steps (the flip, if any, rides its iteration).
fn protected_op(
    inputs: &mut Inputs,
    v: usize,
    flip: Option<BitFlip>,
    cfg: AbftConfig<f32>,
    tracer: &mut Tracer,
    op: u64,
) -> ProtectorStats {
    let sim = &mut inputs.sims[v];
    sim.restore(&inputs.initial[v], 0);
    let mut abft = tracer.leaf("core.OnlineAbft::new", op, || OnlineAbft::new(sim, cfg));
    for it in 0..ITERS {
        let span = tracer.enter("core.OnlineAbft::step", op);
        match flip {
            Some(f) if f.iteration == it => abft.step(sim, &FlipHook::new(f)),
            _ => abft.step(sim, &NoHook),
        };
        tracer.exit(span);
    }
    abft.stats()
}

pub fn run(args: &Args, started: Instant, tracer: &mut Tracer) -> Outcome {
    let cfg = AbftConfig::<f32>::paper_defaults();
    let (mut inputs, setup_s) = setup_rounds(started, || build(args.seed, cfg));

    // Oracle inputs, outside the timed region and outside set-up.
    let refs: Vec<Grid3D<f32>> = (0..VARIANTS)
        .map(|v| {
            let mut sim = inputs.sims[v].clone();
            sim.restore(&inputs.initial[v], 0);
            reference(sim, ITERS)
        })
        .collect();
    let scale = inputs
        .initial
        .iter()
        .flat_map(|g| g.as_slice().iter())
        .fold(0.0f64, |m, &v| m.max(v.abs() as f64));
    let bits = flip_bits::<f32>(cfg.epsilon as f64, DIMS.0.max(DIMS.1), scale);
    let bound = l2_bound::<f32>(DIMS.0, scale);
    let self_check_ok = self_check(&inputs, &refs[0], bound);
    let host = host::Host::probe();
    info(host.line());
    let cells = DIMS.0 * DIMS.1 * DIMS.2;
    // Per variant: the sim's two buffers, its constant field, the kept
    // initial state and the oracle's reference.
    info(host.working_set_line(VARIANTS * 5 * cells * 4));
    info(host::computed_line(
        "hotspot7_f32",
        inputs.sims[0].stencil(),
        cells,
        true,
    ));
    info(format!(
        "flip bits {bits:?}, corrected-op l2 bound {bound:e}"
    ));

    let mut rng = Rng::new(args.seed, 2);
    let mut deck = fault_deck(DECK.0, DECK.1, DECK.2);
    let mut ledger = Ledger::default();
    let (mut lat_ms, mut lat_traced, mut lat_plain) = (Vec::new(), Vec::new(), Vec::new());
    let t_start = Instant::now();
    let mut op = 0u64;
    while t_start.elapsed().as_secs_f64() < args.seconds {
        let v = rng.below(VARIANTS);
        let flip =
            (deck.deal(&mut rng) == Fault::Flip).then(|| random_flip(&mut rng, ITERS, DIMS, &bits));
        // In the traced run every other op goes untraced, giving the
        // tracing overhead from one run.
        let traced = args.trace && op.is_multiple_of(2);
        tracer.set_on(traced);
        let span = tracer.enter("op", op);
        let t = Instant::now();
        let stats = protected_op(&mut inputs, v, flip, cfg, tracer, op);
        let secs = t.elapsed().as_secs_f64();
        let fault = if flip.is_some() {
            Fault::Flip
        } else {
            Fault::None
        };
        let verdict = tracer.leaf("oracle.check", op, || {
            check(
                inputs.sims[v].current(),
                &refs[v],
                fault,
                &stats,
                &RecoveryStats::default(),
                bound,
            )
            .map_err(|e| format!("{e} [input {v}, {flip:?}]"))
        });
        tracer.exit(span);
        ledger.record(op, fault, &stats, verdict);
        lat_ms.push(secs * 1e3);
        if traced {
            &mut lat_traced
        } else {
            &mut lat_plain
        }
        .push(secs);
        op += 1;
    }
    tracer.set_on(args.trace);
    let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let e2e = EndToEnd {
        setup_s,
        tail_window: None,
        throughput_mcells_s: (op as usize * ITERS * cells) as f64 / busy_s / 1e6,
        jobs_per_s: op as f64 / busy_s,
        latency_ms: lat_ms,
    };
    let mut out = Outcome::new(self_check_ok);
    push_end_to_end(&e2e, &ledger, &mut out.e2e);

    if args.trace {
        let proto = &inputs.sims[0];
        layers::probe(proto, cfg, tracer, &mut out.layers);
        push_core_counts(&ledger, &mut out.layers);
        service_probe(
            &inputs,
            &refs,
            cfg,
            bound,
            &bits,
            args.seed,
            tracer,
            &mut ledger,
            &mut out.layers,
        );
        crate::push_trace_overhead(&lat_traced, &lat_plain, &mut out.layers);
    }
    out.ledger = ledger;
    out
}

/// Run one unprotected flipped op for the oracle's self-check.
fn self_check(inputs: &Inputs, reference_grid: &Grid3D<f32>, bound: f64) -> bool {
    let mut sim = inputs.sims[0].clone();
    sim.restore(&inputs.initial[0], 0);
    let flip = BitFlip {
        iteration: 1,
        x: DIMS.0 / 2,
        y: DIMS.1 / 3,
        z: 0,
        bit: 21,
    };
    for it in 0..ITERS {
        if it == flip.iteration {
            sim.step_hooked(&FlipHook::new(flip));
        } else {
            sim.step();
        }
    }
    oracle::self_check(Some(sim.current()), reference_grid, bound)
}

/// Traced run only: serve the same HotSpot inputs through `DistService`
/// (pool 2, 2×1×1 bricks, checkpoint every 2 steps), one clean, one flip
/// and one kill job per variant, so the `dist.*` and `service.*` layers
/// are measured on this workload's data too. Every job is checked
/// against the same references as the serial ops.
#[allow(clippy::too_many_arguments)]
fn service_probe(
    inputs: &Inputs,
    refs: &[Grid3D<f32>],
    cfg: AbftConfig<f32>,
    bound: f64,
    bits: &std::ops::RangeInclusive<u32>,
    seed: u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    out: &mut Metrics,
) {
    let service = DistService::<f32>::new(2).expect("pool of 2");
    let mut rng = Rng::new(seed, 3);
    let brick = (DIMS.0 / 2, DIMS.1, DIMS.2);
    let mut acc = DistAcc::default();
    let mut prev = Instant::now();
    let mut op = 1_000_000u64;
    for v in 0..VARIANTS {
        for fault in [Fault::None, Fault::Flip, Fault::Kill] {
            let sim = &inputs.sims[v];
            let mut plan = String::new();
            let mut spec = JobSpec::over(inputs.initial[v].clone(), sim.stencil().clone())
                .with_bounds(*sim.bounds())
                .with_constant(sim.constant().expect("hotspot constant").clone())
                .with_ranks(2)
                .with_grid3(2, 1, 1)
                .with_iters(ITERS)
                .with_abft(cfg)
                .with_checkpoint(CheckpointPolicy::every(2));
            match fault {
                Fault::Flip => {
                    let rank = rng.below(2);
                    let flip = random_flip(&mut rng, ITERS, brick, bits);
                    plan = format!("rank {rank} {flip:?}");
                    spec = spec.with_flip(rank, flip);
                }
                Fault::Kill => {
                    let kill = RankKill::new(rng.below(2), rng.range(1, ITERS));
                    plan = format!("{kill:?}");
                    spec = spec.with_rank_kill(kill);
                }
                Fault::None => {}
            }
            let (result, timing, done) = serve_closed(&service, spec, prev, tracer, op);
            prev = done;
            match result {
                Ok(r) => {
                    let stats = r.total_stats();
                    let verdict = check(&r.global, &refs[v], fault, &stats, &r.recovery, bound)
                        .map_err(|e| format!("{e} [service input {v}, {plan}]"));
                    ledger.record(op, fault, &stats, verdict);
                    acc.add(&r, ITERS, timing);
                }
                Err(e) => {
                    ledger.record_error(op, fault, format!("{e} [service input {v}, {plan}]"))
                }
            }
            op += 1;
        }
    }
    acc.metrics(&service.stats(), out);
    service.shutdown();
}
