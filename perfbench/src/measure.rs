//! Measurement plumbing: order statistics, `/proc` samples, reply
//! digests and the run report.

use std::fmt::Write as _;
use std::path::Path;

/// Nearest-rank percentile (`p` in 0..=100) of `v`; sorts `v`. NaN-free
/// input expected; `f64::INFINITY` marks a failed operation, which
/// counts as missing any limit.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (nearest rank, like [`percentile`]).
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linux reports per-process CPU time in clock ticks of this length
/// (`USER_HZ`, fixed at 100 on every Linux ABI).
const MS_PER_TICK: f64 = 10.0;

/// One reading of a process's counters from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all its threads, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`), in KiB.
    pub hwm_kb: u64,
    /// Current resident set (`VmRSS`), in KiB.
    pub rss_kb: u64,
}

/// Reads `/proc/<pid>` (`pid` may be `"self"`).
pub fn sample(pid: &str) -> Result<ProcSample, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed /proc/{pid}/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 * MS_PER_TICK)
            .ok_or_else(|| format!("malformed /proc/{pid}/stat"))
    };
    // Fields 14 (utime) and 15 (stime), counted from 1 before the name.
    let cpu_ms = tick(11)? + tick(12)?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let kb = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Ok(ProcSample {
        cpu_ms,
        hwm_kb: kb("VmHWM:"),
        rss_kb: kb("VmRSS:"),
    })
}

/// Resets the process's `VmHWM` to its current resident set (Linux
/// `clear_refs` mode 5), so a later [`sample`] reports the peak since
/// now.
pub fn reset_peak(pid: &str) -> Result<(), String> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
        .map_err(|e| format!("cannot reset the peak RSS of {pid}: {e}"))
}

/// Order-sensitive 64-bit digest of a reply, eight bytes per step: each
/// step is a bijection of the running state, so replies that differ in
/// any single word always digest differently. Used to compare served
/// replies with their offline renderings without holding megabytes of
/// expected output in the client while it is being measured.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h
}

/// A metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run: the benchmark's result line plus what the
/// report file records besides it.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (error reply, transport error, failed cell).
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Failed output checks; the run is correct when there are none.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            // A percentile over failed operations is unbounded.
            self.problem(format!("{name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push('}');
        out
    }

    /// The single-line result object printed last on stdout.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The report file: the result plus the run's identity (workload,
    /// seed, window, trace flag) and any failed checks.
    pub fn file_json(&self, workload: &str, opts: &crate::RunOptions) -> String {
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", polyflow_serve::json::escape(p)))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \
             \"metrics\": {}}}\n",
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            self.correct(),
            self.attempted,
            self.failed,
            problems.join(", "),
            self.metrics_json()
        )
    }

    /// Human-readable table (stderr).
    pub fn table(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("[perfbench] {workload} seed={seed}\n");
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        out
    }
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_count_failures_high() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 90.0), f64::INFINITY);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn digest_separates_single_word_changes() {
        let a = b"{\"ok\":true,\"result\":{\"cycles\":1234}}".to_vec();
        let mut b = a.clone();
        b[20] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&a[..a.len() - 1]));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn self_sample_reads() {
        let s = sample("self").unwrap();
        assert!(s.hwm_kb > 0 && s.rss_kb > 0);
    }
}
