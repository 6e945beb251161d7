//! The repository benchmark: three seeded workloads that drive each layer
//! through its public functions, check the outputs, and print every
//! metric by name with its unit. See `README.md` beside this file.
//!
//! ```text
//! hpbench --workload kernels|train|serve --seed N --seconds S --trace 0|1 [--scale full|smoke]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod catalog;
mod kernels;
mod report;
mod serve;
mod train;

use hpsparse_sparse::Dense;
use hpsparse_trace::TraceSession;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use report::{median, tail, Digest, Metrics, Spans};
use serde_json::{json, Map, Value};
use std::process::ExitCode;

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Minimal inputs for the benchmark's own tests.
    pub smoke: bool,
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub digest: Digest,
    pub notes: Vec<String>,
    pub spans: Spans,
    pub session: Option<TraceSession>,
}

impl Outcome {
    /// Counts `ops` attempted ops, all failed unless `ok`.
    pub fn record(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The host-clock end-to-end metrics every workload reports, from its
/// set-up repetitions and the host seconds of each measured op.
pub fn e2e_host(out: &mut Outcome, setup_s: &[f64], op_s: &[f64]) {
    let mut ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let (q, value, beyond) = tail(&ms);
    out.e2e.set("setup_s", median(setup_s), "s");
    out.e2e.set(
        "host_ops_per_s",
        op_s.len() as f64 / op_s.iter().sum::<f64>(),
        "1/s",
    );
    out.e2e
        .set("host_op_ms_p50", report::percentile(&ms, 50.0), "ms");
    out.e2e.set("host_op_ms_tail", value, "ms");
    out.note(format!(
        "host op samples: {} (tail = p{q} with {beyond} beyond); set-up repetitions: {}",
        ms.len(),
        setup_s.len()
    ));
}

/// The simulated-clock end-to-end metrics: per-op simulated ms and the
/// simulated capacity in ops per second.
pub fn e2e_sim(out: &mut Outcome, sim_ms: &[f64], ops_per_s: f64) {
    let mut v = sim_ms.to_vec();
    v.sort_by(f64::total_cmp);
    let (q, value, beyond) = tail(&v);
    out.e2e
        .set("sim_op_ms_geomean", report::geomean(&v), "sim_ms");
    out.e2e.set("sim_op_ms_tail", value, "sim_ms");
    out.e2e.set("sim_ops_per_s", ops_per_s, "sim_1/s");
    out.note(format!(
        "sim op samples: {} (tail = p{q} with {beyond} beyond)",
        v.len()
    ));
}

/// A seeded `rows × cols` matrix of uniform values in `[0, 1)`.
pub fn seeded_uniform(rows: usize, cols: usize, seed: u64) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    Dense::from_fn(rows, cols, |_, _| rng.random::<f32>())
}

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err("--scale takes full or smoke".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = catalog::workloads();
    if !known.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; expected one of {known:?}"
        ));
    }
    Ok((
        workload,
        Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "hpbench: workload={workload} seed={} seconds={} trace={} scale={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.smoke { "smoke" } else { "full" }
    );
    println!(
        "host: nproc={nproc} pool_threads={} op_threads=1 engine={} profile={}",
        rayon::current_num_threads(),
        hpsparse_sim::default_engine().label(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    if cfg.trace {
        // The plan cache and planner report into the global session.
        hpsparse_trace::install(TraceSession::new());
    }

    let mut out = match workload.as_str() {
        "kernels" => kernels::run(&cfg),
        "train" => train::run(&cfg),
        "serve" => serve::run(&cfg),
        other => unreachable!("workload {other} is listed but has no implementation"),
    };
    let global = hpsparse_trace::uninstall();

    out.e2e.set("peak_rss_mb", report::peak_rss_mb(), "MB");
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.set("ok_op_ratio", 1.0 - failed_ratio, "ratio");
    out.layers.set("failed_op_ratio", failed_ratio, "ratio");
    // Workloads whose backends hide their plan cache fall back to the
    // global session's plan-cache counters.
    if let (Some(g), None) = (&global, out.layers.get("autotune.cache_hit_ratio")) {
        let m = g.metrics();
        let count = |name: &str| match m.get(name) {
            Some(hpsparse_trace::Metric::Counter(c)) => c as f64,
            _ => 0.0,
        };
        let (hits, misses) = (
            count("autotune.plan_cache.hit"),
            count("autotune.plan_cache.miss"),
        );
        if hits + misses > 0.0 {
            out.layers
                .set("autotune.cache_hit_ratio", hits / (hits + misses), "ratio");
        }
    }

    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "ops: attempted={} failed={} failed_op_ratio={failed_ratio}",
        out.attempted, out.failed
    );
    println!("digest: {}", out.digest.hex());
    for m in &out.e2e.0 {
        println!("e2e {} = {} {}", m.name, m.value, m.unit);
    }
    if cfg.trace {
        for m in &out.layers.0 {
            println!("layer {} = {} {}", m.name, m.value, m.unit);
        }
        if let Err(e) = write_trace(&workload, &cfg, &out) {
            eprintln!("hpbench: writing trace files failed: {e}");
        }
    }

    let (chosen, list) = if cfg.trace {
        (&out.layers, catalog::per_layer())
    } else {
        (&out.e2e, catalog::end_to_end())
    };
    for m in &chosen.0 {
        assert!(
            list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} ({}) is missing from the catalog",
            m.name,
            m.unit
        );
    }
    let mut metrics = Map::new();
    for (name, unit) in list {
        let value = chosen.get(&name).unwrap_or(0.0);
        metrics.insert(name, json!({ "value": value, "unit": unit }));
    }
    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(out.failed == 0));
    result.insert("attempted".into(), json!(out.attempted));
    result.insert("failed".into(), json!(out.failed));
    result.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("metrics serialise")
    );
    ExitCode::SUCCESS
}

/// Writes the host-clock spans (Chrome trace-event JSON) and the trace
/// session's metrics next to the benchmark, under `out/`.
fn write_trace(workload: &str, cfg: &Run, out: &Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{workload}-seed{}", cfg.seed);
    std::fs::write(
        dir.join(format!("{stem}.spans.json")),
        out.spans.to_chrome_json(),
    )?;
    if let Some(s) = &out.session {
        s.write_metrics(dir.join(format!("{stem}.sim-metrics.json")))?;
    }
    println!("trace files: {}/{stem}.*", dir.display());
    Ok(())
}
