//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <hotspot_thin|dist_thick|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets up several times
//! (`setup_s` is the median), computes the oracle's serial references,
//! then runs ops for `--seconds` seconds and checks every op's output.
//! Info lines start with `# `; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` spans
//! are recorded around each layer call, the per-layer probes run, the
//! per-layer set is printed and the spans are written to
//! `perfbench/out/`.

mod common;
mod dist_thick;
mod host;
mod hotspot_thin;
mod jobs;
mod layers;
mod oracle;
mod report;
mod rng;
mod serve_mix;
mod stats;
mod trace;

use report::{info, Metrics};
use std::time::Instant;
use trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: its ledger, whether the oracle's
/// self-check passed, and both metric sets.
pub struct Outcome {
    pub self_check_ok: bool,
    pub ledger: oracle::Ledger,
    pub e2e: Metrics,
    pub layers: Metrics,
}

impl Outcome {
    pub fn new(self_check_ok: bool) -> Self {
        Self {
            self_check_ok,
            ledger: oracle::Ledger::default(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
        }
    }
}

/// `trace.overhead_pct`: how much slower the traced ops of a traced run
/// were than its untraced ops, by median op time.
pub fn push_trace_overhead(traced_s: &[f64], plain_s: &[f64], out: &mut Metrics) {
    let pct = 100.0 * (stats::median(traced_s) / stats::median(plain_s) - 1.0);
    out.push("trace.overhead_pct", pct, "%");
}

const WORKLOADS: [&str; 3] = ["hotspot_thin", "dist_thick", "serve_mix"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

extern "C" {
    /// glibc's allocator tuning call (`malloc.h`).
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameter: the size from which allocations are served by
/// their own `mmap`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin the allocator's mmap threshold. By default glibc raises it each
/// time a large mmapped block is freed, so whether a grid lands in its own
/// page-aligned mapping or inside the heap — and with it the grids'
/// relative alignment, their cache behaviour and the peak RSS — depends on
/// the order of earlier allocations, which differs from seed to seed.
/// With the threshold pinned every grid gets its own mapping in every run.
fn pin_mmap_threshold() {
    // SAFETY: mallopt only adjusts allocator parameters; it is called
    // once, before this program starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    }
}

fn main() {
    let started = Instant::now();
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    info(format!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let mut tracer = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "hotspot_thin" => hotspot_thin::run(&args, started, &mut tracer),
        "dist_thick" => dist_thick::run(&args, started, &mut tracer),
        "serve_mix" => serve_mix::run(&args, started, &mut tracer),
        _ => unreachable!("workload validated by parse_args"),
    };
    for msg in &out.ledger.messages {
        info(format!("FAILED {msg}"));
    }
    if args.trace {
        write_trace(&args, &tracer);
    }
    let correct = out.self_check_ok && out.ledger.failed == 0;
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    report::emit(correct, out.ledger.attempted, out.ledger.failed, metrics);
}

fn write_trace(args: &Args, tracer: &Tracer) {
    info("self time by span (ms): name count total self");
    for a in tracer.self_times() {
        info(format!(
            "  {:<40} {:>6} {:>10.3} {:>10.3}",
            a.name,
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        ));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let mut header = vec![format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{}}}",
        args.workload, args.seed, args.seconds
    )];
    header.extend(
        report::info_lines()
            .iter()
            .map(|l| format!("{{\"info\":{l:?}}}")),
    );
    match tracer.write(&path, &header) {
        Ok(()) => info(format!("spans written to {}", path.display())),
        Err(e) => info(format!("could not write spans to {}: {e}", path.display())),
    }
}
