//! Client-side bookkeeping for jobs served by `DistService`: the
//! `dist.*` and `service.*` per-layer metrics, read from the fields every
//! `DistReport` already carries plus the client's own timing.

use crate::report::Metrics;
use crate::stats::median;
use abft_dist::{DistReport, ServeStats};
use abft_num::Real;

/// Client timing of one job, all in seconds.
#[derive(Clone, Copy)]
pub struct ClientTiming {
    /// Duration of the `submit` call.
    pub submit_s: f64,
    /// From the start of `submit` until the client held the result.
    pub observed_s: f64,
    /// How late the client submitted: against the schedule in an open
    /// loop, against the previous completion in a closed loop.
    pub lag_s: f64,
}

#[derive(Default)]
pub struct DistAcc {
    cell_updates: f64,
    post_s: f64,
    edge_s: f64,
    verify_s: f64,
    steps: f64,
    msgs: f64,
    bytes: f64,
    wait_fraction: Vec<f64>,
    overhead_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    steps_lost: f64,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    delivery_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

impl DistAcc {
    pub fn add<T: Real>(&mut self, r: &DistReport<T>, iters: usize, client: ClientTiming) {
        self.cell_updates += (r.global.len() * iters) as f64;
        self.steps += iters as f64;
        for rank in &r.ranks {
            let t = &rank.timing;
            self.post_s += t.post_s;
            self.edge_s += t.edge_s;
            self.verify_s += t.verify_s;
            self.msgs += t.halo_msgs_sent as f64;
            self.bytes += t.halo_bytes_sent as f64;
            self.wait_fraction.push(t.halo_wait_fraction());
        }
        self.overhead_ms.push((r.exec_s - r.wall_s) * 1e3);
        if r.recovery.rollbacks > 0 {
            self.recovery_ms.push(r.recovery.recovery_s * 1e3);
            self.steps_lost += r.recovery.steps_lost as f64;
        }
        self.submit_us.push(client.submit_s * 1e6);
        self.queue_ms.push(r.queue_wait_s * 1e3);
        self.exec_ms.push(r.exec_s * 1e3);
        // What the client saw beyond the service's own latency: admission
        // checks before the service stamps the job, and the hand-back.
        self.delivery_ms
            .push((client.observed_s - r.latency_s) * 1e3);
        self.lag_ms.push(client.lag_s * 1e3);
    }

    /// Push the `dist.*` and `service.*` metrics. Phase times are summed
    /// over ranks and divided by the jobs' cell updates; ratios and
    /// per-job figures are medians over jobs (ranks for the wait
    /// fraction); `steps_lost` is the mean per recovered job.
    pub fn metrics(&self, serve: &ServeStats, out: &mut Metrics) {
        let per_cell = |s: f64| s * 1e9 / self.cell_updates;
        let recovered = self.recovery_ms.len().max(1) as f64;
        out.push("dist.post_ns_per_cell", per_cell(self.post_s), "ns");
        out.push("dist.edge_ns_per_cell", per_cell(self.edge_s), "ns");
        out.push("dist.verify_ns_per_cell", per_cell(self.verify_s), "ns");
        out.push(
            "dist.halo_wait_fraction",
            median(&self.wait_fraction),
            "ratio",
        );
        out.push("dist.halo_msgs_per_step", self.msgs / self.steps, "count");
        out.push("dist.halo_bytes_per_step", self.bytes / self.steps, "B");
        out.push("dist.job_overhead_ms", median(&self.overhead_ms), "ms");
        out.push("dist.recovery_ms", median(&self.recovery_ms), "ms");
        out.push("dist.steps_lost", self.steps_lost / recovered, "count");
        out.push("service.submit_us", median(&self.submit_us), "us");
        out.push("service.queue_wait_ms", median(&self.queue_ms), "ms");
        out.push("service.exec_ms", median(&self.exec_ms), "ms");
        out.push("service.delivery_ms", median(&self.delivery_ms), "ms");
        let lookups = (serve.topology_hits + serve.topology_misses).max(1) as f64;
        out.push(
            "service.topology_hit_ratio",
            serve.topology_hits as f64 / lookups,
            "ratio",
        );
        out.push("service.generator_lag_ms", median(&self.lag_ms), "ms");
    }
}

/// Submit one job and block for its result (a closed-loop client).
/// `prev_done` is when the client got its previous result, so the lag is
/// the client's own turnaround between ops. Returns the result, the
/// client timing and the instant the result arrived.
pub fn serve_closed<T: Real>(
    service: &abft_dist::DistService<T>,
    spec: abft_dist::JobSpec<T>,
    prev_done: std::time::Instant,
    tracer: &mut crate::trace::Tracer,
    op: u64,
) -> (
    Result<DistReport<T>, abft_dist::DistError>,
    ClientTiming,
    std::time::Instant,
) {
    let t0 = std::time::Instant::now();
    let lag_s = (t0 - prev_done).as_secs_f64();
    let span = tracer.enter("service.submit", op);
    let submitted = service.submit(spec);
    tracer.exit(span);
    let submit_s = t0.elapsed().as_secs_f64();
    let result = match submitted {
        Ok(handle) => tracer.leaf("service.JobHandle::wait", op, || handle.wait()),
        Err(e) => Err(e),
    };
    let done = std::time::Instant::now();
    let timing = ClientTiming {
        submit_s,
        observed_s: (done - t0).as_secs_f64(),
        lag_s,
    };
    (result, timing, done)
}
