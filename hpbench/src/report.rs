//! Shared measurement plumbing: metric lists, the sim-statistics digest,
//! percentiles, host-clock spans and the peak-RSS probe.

use hpsparse_gnn::TrainStats;
use hpsparse_serve::ServeReport;
use hpsparse_sim::{LaunchReport, WarpCounters};
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics; a name set twice keeps the last value.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// FNV-1a over 64-bit words: a stable hash of every simulated statistic a
/// run produces, in op order. Two runs whose digests match produced
/// bit-identical launch reports, training statistics and serve reports.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Every field of a launch report. The exhaustive destructuring makes
    /// a new report field a compile error here instead of a silent gap.
    pub fn launch(&mut self, r: &LaunchReport) {
        let LaunchReport {
            cycles,
            time_ms,
            blocks,
            warps,
            num_waves,
            full_wave_size,
            active_blocks_per_sm,
            warp_occupancy,
            tail_utilization,
            totals,
            l2_hit_rate,
            max_warp_cycles,
            mean_warp_cycles,
            dram_bound_cycles,
            schedule_cycles,
        } = r;
        for x in [*cycles, *blocks, *warps, *num_waves, *full_wave_size] {
            self.u64(x);
        }
        self.u64(u64::from(*active_blocks_per_sm));
        for x in [*time_ms, *warp_occupancy, *tail_utilization, *l2_hit_rate] {
            self.f64(x);
        }
        self.counters(totals);
        self.f64(*max_warp_cycles);
        self.f64(*mean_warp_cycles);
        self.u64(*dram_bound_cycles);
        self.u64(*schedule_cycles);
    }

    fn counters(&mut self, c: &WarpCounters) {
        let WarpCounters {
            instructions,
            shared_ops,
            l2_hit_sectors,
            dram_sectors,
            atomics,
            shuffles,
            global_bytes,
            transactions,
            descriptor_fallbacks,
        } = c;
        for x in [
            instructions,
            shared_ops,
            l2_hit_sectors,
            dram_sectors,
            atomics,
            shuffles,
            global_bytes,
            transactions,
            descriptor_fallbacks,
        ] {
            self.u64(*x);
        }
    }

    /// Every field of a training-statistics record.
    pub fn train(&mut self, s: &TrainStats) {
        let TrainStats {
            losses,
            final_accuracy,
            sparse_ms,
            dense_ms,
            total_ms,
        } = s;
        self.u64(losses.len() as u64);
        for l in losses {
            self.u64(u64::from(l.to_bits()));
        }
        for x in [*final_accuracy, *sparse_ms, *dense_ms, *total_ms] {
            self.f64(x);
        }
    }

    /// Every field of a serve report, per-device statistics included.
    pub fn serve(&mut self, r: &ServeReport) {
        let ServeReport {
            num_requests,
            num_rows,
            num_batches,
            makespan_cycles,
            throughput_rps,
            p50_cycles,
            p95_cycles,
            p99_cycles,
            mean_cycles,
            max_cycles,
            ms_per_cycle,
            halo_bytes,
            halo_transfers,
            per_device,
        } = r;
        for x in [*num_requests, *num_rows, *num_batches] {
            self.u64(x as u64);
        }
        for x in [*makespan_cycles, *p50_cycles, *p95_cycles, *p99_cycles] {
            self.u64(x);
        }
        for x in [*throughput_rps, *mean_cycles, *ms_per_cycle] {
            self.f64(x);
        }
        for x in [*max_cycles, *halo_bytes, *halo_transfers] {
            self.u64(x);
        }
        for d in per_device {
            for x in [
                d.batches,
                d.kernel_cycles,
                d.halo_bytes,
                d.halo_stall_cycles,
            ] {
                self.u64(x);
            }
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99, p95, p90, p75 and p50 that still has at least ten
/// samples above it: `(percentile, value, samples beyond)`. With fewer
/// than 20 samples no percentile qualifies and the maximum is reported as
/// the 100th, with its (small) beyond-count.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    for q in [99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return (q, percentile(sorted, q), n - rank);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0), 0)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median of unsorted values (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One host-clock span recorded by the benchmark around a call into a
/// layer. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory host-clock span recorder, written out once at exit. When
/// disabled, `time` only reads the clock for the caller's own timing and
/// records nothing.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new(false)
    }
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off, e.g. around an untraced baseline phase.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` for op `op` and returns its
    /// result with the elapsed host seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent,
                op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = idx {
            self.open.pop();
            self.spans[i].end_ns = self.ns(end);
        }
        (out, (end - start).as_secs_f64())
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Chrome trace-event JSON (complete events, microseconds) with the
    /// parent index and op id on each event.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0, 10));
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 10));
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&xs), (100.0, 5.0, 0));
    }

    #[test]
    fn spans_nest_and_sum() {
        let mut s = Spans::new(true);
        s.time("outer", 1, |s| s.time("inner", 1, |_| ()));
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        let dur = |i: usize| s.spans[i].end_ns - s.spans[i].start_ns;
        assert!(dur(0) >= dur(1));
        assert!(s.to_chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.hex(), b.hex());
    }
}
