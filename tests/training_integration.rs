//! End-to-end training integration: both sparse backends drive identical
//! learning, the simulated costs differ in the paper's direction, and the
//! full pipeline (datasets → reorder → kernels → GNN) composes.

use hpsparse::datasets::features::{planted_labels, random_features};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::gat::GatLayer;
use hpsparse::gnn::{
    train_full_graph, train_graph_sampling, CpuBackend, GcnConfig, SimBackend, SparseBackend,
    TrainConfig,
};
use hpsparse::reorder::gcr_reorder;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Graph;

fn problem(seed: u64) -> (Graph, hpsparse::sparse::Dense, Vec<u32>) {
    let g = GeneratorConfig {
        nodes: 400,
        edges: 3_000,
        topology: Topology::Community {
            communities: 8,
            p_in: 0.85,
            alpha: 2.4,
        },
        seed,
    }
    .generate();
    let x = random_features(400, 16, seed);
    let y = planted_labels(&x, 4, seed);
    (g, x, y)
}

fn model() -> GcnConfig {
    GcnConfig {
        in_dim: 16,
        hidden: 24,
        layers: 2,
        classes: 4,
        seed: 3,
    }
}

#[test]
fn backends_produce_identical_training_trajectories() {
    let (g, x, y) = problem(1);
    let cfg = TrainConfig {
        epochs: 4,
        lr: 0.02,
        ..Default::default()
    };
    let (_, s_cpu) = train_full_graph(&mut CpuBackend::new(), &g, &x, &y, model(), cfg);
    for mut backend in [
        SimBackend::hp(DeviceSpec::v100()),
        SimBackend::baseline(DeviceSpec::v100()),
        SimBackend::new(DeviceSpec::v100()),
    ] {
        let (_, stats) = train_full_graph(&mut backend, &g, &x, &y, model(), cfg);
        for (a, b) in s_cpu.losses.iter().zip(&stats.losses) {
            assert!((a - b).abs() < 1e-3, "cpu {a} vs {} {b}", backend.name());
        }
    }
}

/// Full-graph epochs issue the same sparse launches every epoch, so the
/// backend simulates the first epoch's launches and replays the rest. A
/// tracer turns the replay off; the traced run must agree bit for bit.
#[test]
fn replayed_epochs_train_exactly_like_simulated_ones() {
    const EPOCHS: usize = 4;
    let (g, x, y) = problem(6);
    let cfg = |epochs| TrainConfig {
        epochs,
        lr: 0.02,
        ..Default::default()
    };
    let backends = || {
        [
            SimBackend::hp(DeviceSpec::v100()),
            SimBackend::baseline(DeviceSpec::v100()),
            SimBackend::new(DeviceSpec::v100()),
        ]
    };
    for ((mut one, mut plain), mut traced) in backends().into_iter().zip(backends()).zip(backends())
    {
        let name = plain.name();
        train_full_graph(&mut one, &g, &x, &y, model(), cfg(1));
        let per_epoch = one.launch_replays() + one.launch_records();
        assert!(per_epoch > 0, "{name}");

        traced
            .sim_mut()
            .expect("simulated backend")
            .attach_tracer(hpsparse_trace::TraceSession::new());
        let (_, want) = train_full_graph(&mut traced, &g, &x, &y, model(), cfg(EPOCHS));
        let (_, got) = train_full_graph(&mut plain, &g, &x, &y, model(), cfg(EPOCHS));

        let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.losses), bits(&want.losses), "{name}");
        assert_eq!(plain.sparse_cycles(), traced.sparse_cycles(), "{name}");
        assert_eq!(plain.dense_cycles(), traced.dense_cycles(), "{name}");
        assert_eq!(
            (traced.launch_replays(), traced.launch_records()),
            (0, 0),
            "{name}: a traced backend never replays"
        );
        assert_eq!(
            plain.launch_records(),
            one.launch_records(),
            "{name}: only the first epoch simulates"
        );
        assert_eq!(
            plain.launch_replays() - one.launch_replays(),
            (EPOCHS as u64 - 1) * per_epoch,
            "{name}: every later launch replays"
        );
    }
}

#[test]
fn simulated_costs_account_every_epoch() {
    let (g, x, y) = problem(2);
    let mut hp = SimBackend::hp(DeviceSpec::v100());
    let cfg_short = TrainConfig {
        epochs: 2,
        lr: 0.02,
        ..Default::default()
    };
    let (_, short) = train_full_graph(&mut hp, &g, &x, &y, model(), cfg_short);
    let cfg_long = TrainConfig {
        epochs: 6,
        lr: 0.02,
        ..Default::default()
    };
    let (_, long) = train_full_graph(&mut hp, &g, &x, &y, model(), cfg_long);
    assert!(long.sparse_ms > 2.5 * short.sparse_ms);
    assert!(long.dense_ms > 2.5 * short.dense_ms);
    assert!((long.total_ms - long.sparse_ms - long.dense_ms).abs() < 1e-9);
}

#[test]
fn sampling_mode_trains_on_fresh_subgraphs() {
    let (g, x, y) = problem(3);
    let mut hp = SimBackend::hp(DeviceSpec::v100());
    let cfg = TrainConfig {
        epochs: 6,
        lr: 0.03,
        sample_nodes: 150,
        seed: 8,
    };
    let (_, stats) = train_graph_sampling(&mut hp, &g, &x, &y, model(), cfg);
    assert_eq!(stats.losses.len(), 6);
    assert!(stats.sparse_ms > 0.0);
    // Losses vary across iterations because every batch is a different
    // subgraph.
    let all_same = stats.losses.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9);
    assert!(!all_same);
}

#[test]
fn gcr_composes_with_training() {
    // Reordering the graph must not change what the model learns, only
    // the (simulated) time it takes.
    let (g, x, y) = problem(4);
    let r = gcr_reorder(&g);
    // Permute features/labels to match the relabelled graph.
    let mut xp = hpsparse::sparse::Dense::zeros(x.rows(), x.cols());
    let mut yp = vec![0u32; y.len()];
    for (v, &label) in y.iter().enumerate() {
        let nv = r.perm[v] as usize;
        xp.row_mut(nv).copy_from_slice(x.row(v));
        yp[nv] = label;
    }
    let cfg = TrainConfig {
        epochs: 3,
        lr: 0.02,
        ..Default::default()
    };
    let mut b1 = SimBackend::hp(DeviceSpec::v100());
    let (_, orig) = train_full_graph(&mut b1, &g, &x, &y, model(), cfg);
    let mut b2 = SimBackend::hp(DeviceSpec::v100());
    let (_, reord) = train_full_graph(&mut b2, &r.graph, &xp, &yp, model(), cfg);
    for (a, b) in orig.losses.iter().zip(&reord.losses) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

#[test]
fn gat_layer_runs_on_all_backends() {
    let (g, x, _) = problem(5);
    let s = g.with_self_loops().to_hybrid();
    let layer = GatLayer::new(16, 8, 7);
    let mut cpu = CpuBackend::new();
    let (out_cpu, w_cpu) = layer.forward(&mut cpu, &s, &x);
    let mut hp = SimBackend::hp(DeviceSpec::v100());
    let (out_hp, w_hp) = layer.forward(&mut hp, &s, &x);
    assert!(out_cpu.approx_eq(&out_hp, 1e-3, 1e-4));
    for (a, b) in w_cpu.iter().zip(&w_hp) {
        assert!((a - b).abs() < 1e-4);
    }
    assert!(hp.sparse_cycles() > 0);
}
