//! `serve_mix` — an open loop of small jobs into `DistService`.
//!
//! f64 star7 and 9-point jobs on 48×96×4 and 32×32×8 domains, 16 steps,
//! 1 or 2 ranks, 1 or 2 steps per exchange, ~20% carrying one bit flip and
//! a few a rank kill. A fixed-rate phase (latency, timed from each job's
//! due time) is followed by a burst phase (completed jobs per second).
//! Per-job fixed costs dominate — admission, dispatch, the topology cache,
//! rank-state build and gather — while the sweeps themselves are small.

use crate::common::{
    flip_bits, push_core_counts, push_end_to_end, random_flip, setup_rounds, smooth_field, Deck,
    EndToEnd,
};
use crate::jobs::{ClientTiming, DistAcc};
use crate::oracle::{self, check, l2_bound, reference, Fault, Ledger};
use crate::report::info;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use crate::{host, layers, Args, Outcome};
use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_dist::{DistError, DistReport, DistService, JobSpec, ServiceConfig};
use abft_fault::RankKill;
use abft_grid::{BoundarySpec, Grid3D};
use abft_stencil::{Stencil2D, Stencil3D, StencilSim};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

const SHAPES: [(usize, usize, usize); 2] = [(48, 96, 4), (32, 32, 8)];
const KERNELS: [&str; 2] = ["star7", "9pt"];
const VARIANTS: usize = 2;
const ITERS: usize = 16;
const CHECKPOINT_PERIOD: usize = 8;
const POOL: usize = 2;
/// Fixed arrival rate of the first phase, jobs per second — about a third
/// of the pool's burst capacity on a 2-core host.
const RATE: f64 = 50.0;
/// Share of the run spent in the fixed-rate phase; the rest is bursts.
const FIXED_SHARE: f64 = 0.8;
/// The fixed-rate phase yields ~1 000 latencies. The 11th largest of all
/// of them would sit at p99, where one host hiccup moves it; instead the
/// tail is taken per window of 150 jobs (p93, as in the closed-loop
/// workloads) and the median window reported.
const TAIL_WINDOW: usize = 150;
/// Kills strike after the epoch-8 checkpoint, so every kill job replays
/// the same steps.
const KILL_ITER: usize = 12;

/// One card of the job deck: kernel, shape, ranks, steps per exchange and
/// the fault the job carries.
#[derive(Clone, Copy)]
struct Card {
    kernel: usize,
    shape: usize,
    ranks: usize,
    k: usize,
    fault: Fault,
}

/// Every (kernel, shape, ranks, k) combination twice — 32 jobs, of which
/// 7 carry a bit flip and 1 a rank kill (on two ranks, so a surviving
/// neighbour notices the loss). A burst is exactly one deck.
fn job_deck() -> Deck<Card> {
    let mut cards = Vec::new();
    for rep in 0..2 {
        for kernel in 0..KERNELS.len() {
            for shape in 0..SHAPES.len() {
                for ranks in 1..=POOL {
                    for k in 1..=2 {
                        let i = cards.len();
                        let fault = if rep == 0 && i == 3 {
                            Fault::Kill
                        } else if i % 5 == 1 {
                            Fault::Flip
                        } else {
                            Fault::None
                        };
                        cards.push(Card {
                            kernel,
                            shape,
                            ranks,
                            k,
                            fault,
                        });
                    }
                }
            }
        }
    }
    assert!(cards[3].ranks == POOL && cards[3].fault == Fault::Kill);
    Deck::new(cards)
}

fn stencil(kernel: usize) -> Stencil3D<f64> {
    match kernel {
        0 => Stencil3D::diffusion_7pt(0.3),
        _ => Stencil2D::convection_9pt(0.3, 0.05, -0.02).into_3d(),
    }
}

/// One (kernel, shape, variant) input with its serial reference.
struct Class {
    kernel: usize,
    shape: usize,
    initial: Grid3D<f64>,
}

struct Inputs {
    service: DistService<f64>,
    classes: Vec<Class>,
}

/// A drawn job: which input, how it is run and which fault it carries.
struct Draw {
    class: usize,
    spec: JobSpec<f64>,
    fault: Fault,
    plan: String,
}

fn base_spec(c: &Class, ranks: usize, k: usize, cfg: AbftConfig<f64>) -> JobSpec<f64> {
    JobSpec::over(c.initial.clone(), stencil(c.kernel))
        .with_bounds(BoundarySpec::clamp())
        .with_ranks(ranks)
        .with_grid3(1, ranks, 1)
        .with_iters(ITERS)
        .with_steps_per_exchange(k)
        .with_abft(cfg)
        .with_checkpoint(CheckpointPolicy::every(CHECKPOINT_PERIOD))
}

fn build(seed: u64, cfg: AbftConfig<f64>) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let mut classes = Vec::new();
    for kernel in 0..KERNELS.len() {
        for shape in 0..SHAPES.len() {
            for _ in 0..VARIANTS {
                classes.push(Class {
                    kernel,
                    shape,
                    initial: smooth_field(&mut rng, SHAPES[shape]),
                });
            }
        }
    }
    let service =
        DistService::with_config(ServiceConfig::new(POOL).with_queue_capacity(256)).expect("pool");
    // Warm-up: every (kernel, shape, ranks, k) topology once.
    for c in classes.iter().step_by(VARIANTS) {
        for ranks in 1..=POOL {
            for k in 1..=2 {
                service
                    .submit(base_spec(c, ranks, k, cfg))
                    .and_then(|h| h.wait())
                    .expect("warm-up job");
            }
        }
    }
    Inputs { service, classes }
}

fn draw(
    rng: &mut Rng,
    deck: &mut Deck<Card>,
    inputs: &Inputs,
    cfg: AbftConfig<f64>,
    bits: &[std::ops::RangeInclusive<u32>],
) -> Draw {
    let card = deck.deal(rng);
    let class = (card.kernel * SHAPES.len() + card.shape) * VARIANTS + rng.below(VARIANTS);
    let c = &inputs.classes[class];
    let (ranks, k) = (card.ranks, card.k);
    let mut spec = base_spec(c, ranks, k, cfg);
    let (nx, ny, nz) = SHAPES[c.shape];
    let mut plan = format!("class {class}, {ranks} ranks, k={k}");
    match card.fault {
        Fault::Flip => {
            let rank = rng.below(ranks);
            // Slabs split y evenly for these shapes.
            let flip = random_flip(rng, ITERS, (nx, ny / ranks, nz), &bits[c.shape]);
            plan += &format!(", rank {rank} {flip:?}");
            spec = spec.with_flip(rank, flip);
        }
        Fault::Kill => {
            let kill = RankKill::new(rng.below(ranks), KILL_ITER);
            plan += &format!(", {kill:?}");
            spec = spec.with_rank_kill(kill);
        }
        Fault::None => {}
    }
    Draw {
        class,
        spec,
        fault: card.fault,
        plan,
    }
}

/// A submitted job waiting for its completion message.
struct InFlight {
    class: usize,
    plan: String,
    fault: Fault,
    due: Instant,
    submit_at: Instant,
    submit_s: f64,
    fixed_phase: bool,
    traced: bool,
}

type Done = (u64, Instant, Result<DistReport<f64>, DistError>);

/// Everything the completion side accumulates.
struct Sink<'a> {
    refs: &'a [Grid3D<f64>],
    bound: f64,
    in_flight: HashMap<u64, InFlight>,
    ledger: Ledger,
    acc: DistAcc,
    lat_ms: Vec<f64>,
    lat_traced: Vec<f64>,
    lat_plain: Vec<f64>,
    last_done: Instant,
    cell_updates: f64,
}

impl Sink<'_> {
    fn complete(&mut self, (op, done, result): Done, tracer: &mut Tracer) {
        let job = self
            .in_flight
            .remove(&op)
            .expect("completion of a submitted job");
        self.last_done = self.last_done.max(done);
        match result {
            Ok(r) => {
                let stats = r.total_stats();
                let verdict = tracer.leaf("oracle.check", op, || {
                    check(
                        &r.global,
                        &self.refs[job.class],
                        job.fault,
                        &stats,
                        &r.recovery,
                        self.bound,
                    )
                    .map_err(|e| format!("{e} [{}]", job.plan))
                });
                self.ledger.record(op, job.fault, &stats, verdict);
                let timing = ClientTiming {
                    submit_s: job.submit_s,
                    observed_s: (done - job.submit_at).as_secs_f64(),
                    lag_s: (job.submit_at - job.due).as_secs_f64(),
                };
                self.cell_updates += (r.global.len() * ITERS) as f64;
                // Layer figures come from the fixed-rate phase: burst
                // jobs queue by construction.
                if job.fixed_phase {
                    self.acc.add(&r, ITERS, timing);
                    let from_due = (done - job.due).as_secs_f64();
                    self.lat_ms.push(from_due * 1e3);
                    if job.traced {
                        &mut self.lat_traced
                    } else {
                        &mut self.lat_plain
                    }
                    .push(from_due);
                }
            }
            Err(e) => self
                .ledger
                .record_error(op, job.fault, format!("{e} [{}]", job.plan)),
        }
    }

    /// Handle completions until `until` (or until nothing is in flight
    /// when `until` is `None`).
    fn drain(&mut self, rx: &Receiver<Done>, until: Option<Instant>, tracer: &mut Tracer) {
        loop {
            let msg = match until {
                Some(t) => match rx.recv_timeout(t.saturating_duration_since(Instant::now())) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => return,
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("sender held by the client")
                    }
                },
                None if self.in_flight.is_empty() => return,
                None => rx.recv().expect("sender held by the client"),
            };
            self.complete(msg, tracer);
        }
    }
}

pub fn run(args: &Args, started: Instant, tracer: &mut Tracer) -> Outcome {
    let cfg = AbftConfig::<f64>::paper_defaults();
    let (inputs, setup_s) = setup_rounds(started, || build(args.seed, cfg));
    let refs: Vec<Grid3D<f64>> = inputs
        .classes
        .iter()
        .map(|c| {
            reference(
                StencilSim::new(c.initial.clone(), stencil(c.kernel), BoundarySpec::clamp()),
                ITERS,
            )
        })
        .collect();
    let scale = 2.0;
    // Checksum lines run along a brick's x and y; y is longest on one rank.
    let bits: Vec<_> = SHAPES
        .iter()
        .map(|s| flip_bits::<f64>(cfg.epsilon, s.0.max(s.1), scale))
        .collect();
    let bound = l2_bound::<f64>(SHAPES[0].0, scale);
    let self_check_ok = self_check(&inputs, &refs[0], bound);
    let host = host::Host::probe();
    info(host.line());
    let cells: usize = SHAPES.iter().map(|s| s.0 * s.1 * s.2).max().unwrap();
    info(host.working_set_line(inputs.classes.len() * 2 * cells * 8));
    for k in 0..KERNELS.len() {
        info(host::computed_line(KERNELS[k], &stencil(k), cells, false));
    }
    info(format!(
        "flip bits {bits:?}, corrected-op l2 bound {bound:e}, rate {RATE}/s"
    ));

    let mut rng = Rng::new(args.seed, 2);
    let mut deck = job_deck();
    let burst = deck.len();
    let (tx, rx) = channel::<Done>();
    let mut sink = Sink {
        refs: &refs,
        bound,
        in_flight: HashMap::new(),
        ledger: Ledger::default(),
        acc: DistAcc::default(),
        lat_ms: Vec::new(),
        lat_traced: Vec::new(),
        lat_plain: Vec::new(),
        last_done: Instant::now(),
        cell_updates: 0.0,
    };
    let mut op = 0u64;
    let mut submit = |sink: &mut Sink,
                      d: Draw,
                      due: Instant,
                      fixed_phase: bool,
                      traced: bool,
                      tracer: &mut Tracer| {
        let submit_at = Instant::now();
        let span = tracer.enter("service.submit", op);
        let handle = inputs.service.submit(d.spec);
        tracer.exit(span);
        let submit_s = submit_at.elapsed().as_secs_f64();
        match handle {
            Ok(h) => {
                sink.in_flight.insert(
                    op,
                    InFlight {
                        class: d.class,
                        plan: d.plan,
                        fault: d.fault,
                        due,
                        submit_at,
                        submit_s,
                        fixed_phase,
                        traced,
                    },
                );
                let tx = tx.clone();
                let id = op;
                h.on_complete(move |r| {
                    let _ = tx.send((id, Instant::now(), r));
                });
            }
            Err(e) => sink
                .ledger
                .record_error(op, d.fault, format!("{e} [{}]", d.plan)),
        }
        op += 1;
    };

    // Phase 1: fixed rate, latency from each job's due time.
    let t0 = Instant::now();
    let fixed_s = args.seconds * FIXED_SHARE;
    let mut i = 0u64;
    loop {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        if (due - t0).as_secs_f64() >= fixed_s {
            break;
        }
        let d = draw(&mut rng, &mut deck, &inputs, cfg, &bits);
        sink.drain(&rx, Some(due), tracer);
        let traced = args.trace && i.is_multiple_of(2);
        tracer.set_on(traced);
        submit(&mut sink, d, due, true, traced, tracer);
        tracer.set_on(args.trace);
        i += 1;
    }
    sink.drain(&rx, None, tracer);

    // Phase 2: bursts, completed jobs per second.
    let (mut burst_rates, mut burst_s) = (Vec::new(), 0.0);
    let cells_before = sink.cell_updates;
    while t0.elapsed().as_secs_f64() < args.seconds {
        deck.restart();
        let draws: Vec<Draw> = (0..burst)
            .map(|_| draw(&mut rng, &mut deck, &inputs, cfg, &bits))
            .collect();
        let start = Instant::now();
        for d in draws {
            submit(&mut sink, d, Instant::now(), false, false, tracer);
        }
        sink.drain(&rx, None, tracer);
        let secs = (sink.last_done - start).as_secs_f64();
        burst_rates.push(burst as f64 / secs);
        burst_s += secs;
    }
    info(format!(
        "burst rates (jobs/s, bursts of {burst}): {burst_rates:.1?}"
    ));

    let e2e = EndToEnd {
        setup_s,
        tail_window: Some(TAIL_WINDOW),
        throughput_mcells_s: (sink.cell_updates - cells_before) / burst_s / 1e6,
        jobs_per_s: median(&burst_rates),
        latency_ms: std::mem::take(&mut sink.lat_ms),
    };
    let mut out = Outcome::new(self_check_ok);
    push_end_to_end(&e2e, &sink.ledger, &mut out.e2e);
    if args.trace {
        let c = &inputs.classes[0];
        let proto = StencilSim::new(c.initial.clone(), stencil(c.kernel), BoundarySpec::clamp());
        layers::probe(&proto, cfg, tracer, &mut out.layers);
        push_core_counts(&sink.ledger, &mut out.layers);
        sink.acc.metrics(&inputs.service.stats(), &mut out.layers);
        crate::push_trace_overhead(&sink.lat_traced, &sink.lat_plain, &mut out.layers);
    }
    let _ = NO_OP;
    out.ledger = std::mem::take(&mut sink.ledger);
    out
}

/// Run one unprotected flipped job for the oracle's self-check.
fn self_check(inputs: &Inputs, reference_grid: &Grid3D<f64>, bound: f64) -> bool {
    let c = &inputs.classes[0];
    let flip = abft_fault::BitFlip {
        iteration: 2,
        x: 3,
        y: 4,
        z: 1,
        bit: 50,
    };
    let spec = JobSpec::over(c.initial.clone(), stencil(c.kernel))
        .with_bounds(BoundarySpec::clamp())
        .with_iters(ITERS)
        .with_flip(0, flip);
    let result = inputs.service.submit(spec).and_then(|h| h.wait());
    oracle::self_check(
        result.ok().map(|r| r.global).as_ref(),
        reference_grid,
        bound,
    )
}
