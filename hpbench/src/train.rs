//! `train`: full-graph GCN training on the arxiv stand-in (Table V's DGL
//! row) as a closed loop. One op is one epoch, driven through the public
//! `Gcn::forward`, `softmax_cross_entropy`, `Gcn::backward` and
//! `Adam::step` on the planned `AutoBackend`.

use crate::report::{median, Spans};
use crate::{e2e_host, e2e_sim, Outcome, Run};
use hpsparse_datasets::features::{planted_labels, random_features};
use hpsparse_datasets::registry::by_name;
use hpsparse_gnn::linalg::{accuracy, softmax_cross_entropy};
use hpsparse_gnn::train::prepare_operator;
use hpsparse_gnn::{Adam, AutoBackend, CpuBackend, Gcn, GcnConfig, SparseBackend, TrainStats};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Hybrid};
use hpsparse_trace::TraceSession;
use std::time::Instant;

/// Table V's quick-scale edge cap.
const MAX_EDGES: usize = 60_000;
const SETUP_REPEATS: usize = 5;
/// Measured epochs behind the simulated metrics and the digest; a run
/// always completes at least this many.
const SIM_EPOCHS: usize = 3;
/// Loss agreement with the CPU backend, as in the training integration
/// tests.
const LOSS_TOL: f32 = 1e-3;

/// A `SparseBackend` that forwards to the planned backend and meters the
/// host time spent inside sparse calls.
struct Metered {
    inner: AutoBackend,
    host_s: f64,
}

impl Metered {
    fn timed<R>(&mut self, f: impl FnOnce(&mut AutoBackend) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.host_s += t0.elapsed().as_secs_f64();
        r
    }
}

impl SparseBackend for Metered {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        self.timed(|b| b.spmm(s, a))
    }
    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        self.timed(|b| b.sddmm(s, a1, a2t))
    }
    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        self.timed(|b| b.mha(s, q, k, v))
    }
    fn account_dense(&mut self, cycles: u64) {
        self.inner.account_dense(cycles);
    }
    fn sparse_cycles(&self) -> u64 {
        self.inner.sparse_cycles()
    }
    fn dense_cycles(&self) -> u64 {
        self.inner.dense_cycles()
    }
    fn device(&self) -> &DeviceSpec {
        self.inner.device()
    }
    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        self.inner.sim_mut()
    }
    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}

/// The seeded training problem.
struct Problem {
    s: Hybrid,
    st: Hybrid,
    x: Dense,
    y: Vec<u32>,
    model: GcnConfig,
}

/// Host seconds of one epoch's phases.
#[derive(Default, Clone, Copy)]
struct EpochTimes {
    total: f64,
    forward: f64,
    backward: f64,
    optimizer: f64,
    sparse: f64,
}

/// A model, its optimiser and the backend it trains on.
struct Trainer {
    model: Gcn,
    opt: Adam,
    backend: Metered,
}

impl Trainer {
    fn new(p: &Problem, device: &DeviceSpec) -> Self {
        let model = Gcn::new(p.model);
        let opt = Adam::new(&model, 0.01);
        let backend = Metered {
            inner: AutoBackend::new(device.clone()),
            host_s: 0.0,
        };
        Self {
            model,
            opt,
            backend,
        }
    }

    /// One epoch: its loss, host times and simulated statistics.
    fn epoch(&mut self, p: &Problem, spans: &mut Spans, op: u64) -> (f32, EpochTimes, TrainStats) {
        let Self {
            model,
            opt,
            backend,
        } = self;
        let before = (
            backend.sparse_cycles(),
            backend.dense_cycles(),
            backend.host_s,
        );
        let mut t = EpochTimes::default();
        let (loss, total) = spans.time("epoch", op, |spans| {
            let ((logits, cache), s) =
                spans.time("gnn.forward", op, |_| model.forward(backend, &p.s, &p.x));
            t.forward = s;
            let ((loss, grads), s) = spans.time("gnn.backward", op, |_| {
                let (loss, grad) = softmax_cross_entropy(&logits, &p.y);
                (loss, model.backward(backend, &p.st, &cache, grad))
            });
            t.backward = s;
            t.optimizer = spans
                .time("gnn.optimizer", op, |_| opt.step(model, &grads))
                .1;
            (loss, logits)
        });
        t.total = total;
        t.sparse = backend.host_s - before.2;
        let (loss, logits) = loss;
        let device = backend.device();
        let sparse = backend.sparse_cycles() - before.0;
        let dense = backend.dense_cycles() - before.1;
        let stats = TrainStats {
            losses: vec![loss],
            final_accuracy: accuracy(&logits, &p.y),
            sparse_ms: device.cycles_to_ms(sparse),
            dense_ms: device.cycles_to_ms(dense),
            total_ms: device.cycles_to_ms(sparse + dense),
        };
        (loss, t, stats)
    }
}

pub fn run(cfg: &Run) -> Outcome {
    let device = DeviceSpec::v100();
    let (max_edges, model_cfg, repeats) = if cfg.smoke {
        let m = GcnConfig {
            in_dim: 8,
            hidden: 16,
            layers: 2,
            classes: 4,
            seed: cfg.seed,
        };
        (3_000, m, 1)
    } else {
        let m = GcnConfig {
            in_dim: 32,
            hidden: 32,
            layers: 8,
            classes: 8,
            seed: cfg.seed,
        };
        (MAX_EDGES, m, SETUP_REPEATS)
    };
    let mut out = Outcome::default();
    let spec = by_name("arxiv").expect("arxiv is in the registry");

    // Set-up: graph build, operator prep and a warm-up epoch that pays for
    // cold `Measured` planning, repeated from scratch so its median is
    // steady. Seeded input generation is excluded. The last repetition is
    // kept.
    let mut setup = Vec::new();
    let (mut build_s, mut convert_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    out.spans.set_enabled(cfg.trace);
    for _ in 0..repeats {
        let (g, b) = out
            .spans
            .time("datasets.build", 0, |_| spec.generate(max_edges));
        let ((s, st), c) = out
            .spans
            .time("sparse.convert", 0, |_| prepare_operator(&g));
        let x = random_features(g.num_nodes(), model_cfg.in_dim, cfg.seed);
        let y = planted_labels(&x, model_cfg.classes, cfg.seed);
        let p = Problem {
            s,
            st,
            x,
            y,
            model: model_cfg,
        };
        let ((tr, warm), w) = out.spans.time("setup.warmup_epoch", 0, |spans| {
            let mut tr = Trainer::new(&p, &device);
            let warm = tr.epoch(&p, spans, 0);
            (tr, warm)
        });
        setup.push(b + c + w);
        build_s.push(b);
        convert_s.push(c);
        kept = Some((p, tr, warm));
    }
    out.spans.set_enabled(false);
    let mut off = Spans::new(false);
    let (p, mut tr, (warm_loss, warm_times, warm_stats)) = kept.expect("at least one set-up");
    let plan_launches = tr.backend.inner.planning_sim_launches();
    out.note(format!(
        "inputs: arxiv stand-in at a {max_edges}-edge cap ({} nodes, {} nnz with self loops), GCN {} layers x hidden {}, {} features, {} classes, planned AutoBackend on V100",
        p.s.rows(),
        p.s.nnz(),
        model_cfg.layers,
        model_cfg.hidden,
        model_cfg.in_dim,
        model_cfg.classes
    ));

    // Each epoch's loss is checked, outside every timed span, against a
    // `CpuBackend` forward pass of the same model state on the same seeded
    // problem. Two independently trained copies would not do: their float
    // summation orders differ, and Adam compounds the difference past the
    // tolerance within a few dozen epochs.
    let cpu_loss = |model: &Gcn| {
        softmax_cross_entropy(&model.forward(&mut CpuBackend::new(), &p.s, &p.x).0, &p.y).0
    };
    let mut max_diff = 0f32;
    let mut check = |want: f32, loss: f32, out: &mut Outcome| {
        let diff = (loss - want).abs();
        max_diff = max_diff.max(diff);
        out.record(1, diff < LOSS_TOL);
    };
    out.digest.train(&warm_stats);
    check(cpu_loss(&Gcn::new(p.model)), warm_loss, &mut out);

    // Measured phase: untraced epochs until their host time reaches the
    // budget (at least SIM_EPOCHS). Trace mode spends half the budget
    // untraced, then runs as many epochs again with the session attached
    // and spans recorded.
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut untraced: Vec<EpochTimes> = Vec::new();
    let mut sim = Vec::new();
    while untraced.len() < SIM_EPOCHS || untraced.iter().map(|t| t.total).sum::<f64>() < budget {
        let op = out.attempted;
        let want = cpu_loss(&tr.model);
        let (loss, t, stats) = tr.epoch(&p, &mut off, op);
        if sim.len() < SIM_EPOCHS {
            out.digest.train(&stats);
            sim.push(stats);
        }
        untraced.push(t);
        check(want, loss, &mut out);
    }
    let mut traced: Vec<EpochTimes> = Vec::new();
    if cfg.trace {
        let session = TraceSession::new();
        tr.backend
            .sim_mut()
            .expect("auto backend has a simulator")
            .attach_tracer(session.clone());
        out.session = Some(session);
        out.spans.set_enabled(true);
        for _ in 0..untraced.len() {
            let op = out.attempted;
            let want = cpu_loss(&tr.model);
            let (loss, t, _) = tr.epoch(&p, &mut out.spans, op);
            traced.push(t);
            check(want, loss, &mut out);
        }
    }

    out.note(format!(
        "loss check: max |auto - cpu| = {max_diff:e} (tolerance {LOSS_TOL:e})"
    ));
    let op_s: Vec<f64> = untraced.iter().map(|t| t.total).collect();
    e2e_host(&mut out, &setup, &op_s);
    let sim_ms = |f: fn(&TrainStats) -> f64| sim.iter().map(f).collect::<Vec<_>>();
    let epoch_ms = sim_ms(|s| s.total_ms);
    let mean_sim = epoch_ms.iter().sum::<f64>() / epoch_ms.len() as f64;
    e2e_sim(&mut out, &epoch_ms, 1e3 / mean_sim);

    let layer_times = if traced.is_empty() {
        &untraced
    } else {
        &traced
    };
    let per_epoch_ms =
        |f: fn(&EpochTimes) -> f64| median(&layer_times.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let l = &mut out.layers;
    l.set("sim_epoch_ms", median(&epoch_ms), "sim_ms");
    l.set(
        "gnn.sim_sparse_ms",
        median(&sim_ms(|s| s.sparse_ms)),
        "sim_ms",
    );
    l.set(
        "gnn.sim_dense_ms",
        median(&sim_ms(|s| s.dense_ms)),
        "sim_ms",
    );
    l.set("datasets.build_s", median(&build_s), "s");
    l.set("sparse.convert_s", median(&convert_s), "s");
    l.set("gnn.forward_ms", per_epoch_ms(|t| t.forward), "ms");
    l.set("gnn.backward_ms", per_epoch_ms(|t| t.backward), "ms");
    l.set("gnn.optimizer_ms", per_epoch_ms(|t| t.optimizer), "ms");
    l.set("gnn.sparse_host_ms", per_epoch_ms(|t| t.sparse), "ms");
    let sparse_steady = median(&untraced.iter().map(|t| t.sparse).collect::<Vec<_>>());
    // Planning happens inside the warm-up epoch's sparse calls; a steady
    // epoch makes the same calls from the plan cache.
    l.set(
        "autotune.plan_s",
        (warm_times.sparse - sparse_steady).max(0.0),
        "s",
    );
    l.set("autotune.plan_sim_launches", plan_launches as f64, "count");
    let cache = tr.backend.inner.cache();
    l.set(
        "autotune.cache_hit_ratio",
        cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
        "ratio",
    );
    if cfg.trace {
        let base = median(&op_s);
        let with = median(&traced.iter().map(|t| t.total).collect::<Vec<_>>());
        l.set("trace.overhead_ratio", with / base - 1.0, "ratio");
    }
    out
}
