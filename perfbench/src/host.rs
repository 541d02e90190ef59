//! Host facts and computed (not measured) kernel counters, printed with
//! every run so a number can be read against the machine it came from.

use abft_num::Real;
use abft_stencil::Stencil3D;

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub llc_mib: Option<f64>,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            llc_mib: llc_mib(),
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    pub fn line(&self) -> String {
        let llc = self
            .llc_mib
            .map_or("unknown".to_string(), |m| format!("{m} MiB"));
        format!(
            "host: nproc={} cpu=\"{}\" llc={llc} git_rev={}",
            self.nproc, self.cpu, self.git_rev
        )
    }

    /// Working set against the last-level cache. When it fits, sweep
    /// timings are cache-resident and say nothing about DRAM bandwidth.
    pub fn working_set_line(&self, bytes: usize) -> String {
        let mib = bytes as f64 / (1u64 << 20) as f64;
        match self.llc_mib {
            Some(llc) => format!(
                "working set: {mib:.1} MiB vs LLC {llc} MiB ({}; no bandwidth or roofline claim is made)",
                if mib <= llc { "cache-resident" } else { "exceeds LLC" }
            ),
            None => format!("working set: {mib:.1} MiB (LLC size unknown)"),
        }
    }
}

/// Computed counters of one kernel: arithmetic per cell update and the
/// minimum bytes one sweep must move (read the source and the constant
/// field once, write the destination once). Labelled "computed" because
/// they are derived from the stencil, not measured.
pub fn computed_line<T: Real>(
    label: &str,
    stencil: &Stencil3D<T>,
    cells: usize,
    constant: bool,
) -> String {
    let taps = stencil.len();
    // One multiply and one add per tap, one add for the constant term,
    // one widening add for the fused column checksum.
    let flops = 2 * taps + usize::from(constant) + 1;
    let elem = (T::BITS / 8) as usize;
    let bytes = cells * elem * (2 + usize::from(constant));
    format!("computed: kernel={label} taps={taps} flops_per_cell={flops} bytes_per_step={bytes} cells={cells} elem_bytes={elem}")
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

fn llc_mib() -> Option<f64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, f64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        if let Some((level, mib)) = cache_index(&entry.path()) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, mib));
            }
        }
    }
    best.map(|(_, m)| m)
}

/// `(level, size in MiB)` of one `cacheN/indexM` directory.
fn cache_index(dir: &std::path::Path) -> Option<(u32, f64)> {
    let level = std::fs::read_to_string(dir.join("level"))
        .ok()?
        .trim()
        .parse()
        .ok()?;
    let size = std::fs::read_to_string(dir.join("size")).ok()?;
    let size = size.trim();
    let kib: f64 = match size.strip_suffix('K') {
        Some(k) => k.parse().ok()?,
        None => size.strip_suffix('M')?.parse::<f64>().ok()? * 1024.0,
    };
    Some((level, kib / 1024.0))
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory (no `git` process is started).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
