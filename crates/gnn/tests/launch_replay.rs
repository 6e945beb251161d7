//! The premise of `SimBackend`'s launch replay, over every kernel the
//! backend can launch: a kernel run's reports depend only on the kernel,
//! the sparsity structure and the dense shapes. On registry graphs, each
//! kernel's reports on a fresh simulator must equal its reports on a warm
//! one given different values of `S` and different dense operands, and a
//! replay of a recorded run must compute the same output bits as a
//! simulation of the same inputs.

use hpsparse_autotune::{
    instantiate_fused_mha, instantiate_sddmm, instantiate_spmm, mha_candidates, sddmm_candidates,
    spmm_candidates, GraphFingerprint,
};
use hpsparse_core::baselines::{CusparseCsrAlg2, DglSddmm};
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_datasets::registry::by_name;
use hpsparse_sim::{DeviceSpec, GpuSim, LaunchReport};
use hpsparse_sparse::{Dense, Hybrid};

/// Registry graphs of different shapes, at a test-sized edge cap, each
/// paired with the feature width it runs at (covering every vector width).
const GRAPHS: [(&str, usize); 4] = [
    ("Flickr", 16),
    ("arxiv", 32),
    ("ddi", 64),
    ("proteins", 128),
];
const MAX_EDGES: usize = 20_000;
const HEADS: usize = 2;

/// One kernel run: its reports and its output bits.
type Run = (Vec<LaunchReport>, Vec<u32>);

fn bits<'a>(xs: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
    xs.into_iter().map(|v| v.to_bits()).collect()
}

/// Dense operand `rows × k` whose values depend on `seed`.
fn dense(rows: usize, k: usize, seed: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| {
        (((i * 37 + j * 11 + seed * 101) % 53) as f32 - 26.0) * 0.03
    })
}

/// `s` with its values replaced by a `seed`-dependent pattern that puts
/// exact zeros at `seed`-dependent positions, so accounting that skipped
/// zero values would show.
fn revalue(s: &Hybrid, seed: usize) -> Hybrid {
    let mut out = s.clone();
    out.set_values(
        (0..s.nnz())
            .map(|e| (((e * 7 + seed * 13) % 19) as f32 - 9.0) * 0.1)
            .collect(),
    );
    out
}

/// Runs `run` fresh, then warm on the same simulator with other values,
/// then replays the warm simulator's recording of the first inputs on the
/// second ones. Returns a description of each disagreement.
fn check(name: &str, s: &Hybrid, run: impl Fn(&mut GpuSim, &Hybrid, usize) -> Run) -> Vec<String> {
    let (s1, s2) = (revalue(s, 1), revalue(s, 2));
    let mut sim = GpuSim::new(DeviceSpec::v100());
    let (fresh, _) = run(&mut sim, &s1, 1);
    let (_, recording) = sim.record(|sim| run(sim, &s1, 1));
    let (warm, simulated) = run(&mut sim, &s2, 2);
    let (replayed, replayed_out) = sim.replay(&recording, |sim| run(sim, &s2, 2));
    let mut errors = Vec::new();
    if warm != fresh {
        errors.push(format!("{name}: warm reports differ from fresh ones"));
    }
    if replayed != fresh {
        errors.push(format!("{name}: replayed reports differ from fresh ones"));
    }
    if replayed_out != simulated {
        errors.push(format!(
            "{name}: replayed output bits differ from simulated ones"
        ));
    }
    errors
}

fn spmm_run(kernel: &dyn SpmmKernel, k: usize) -> impl Fn(&mut GpuSim, &Hybrid, usize) -> Run + '_ {
    move |sim, s, seed| {
        let run = kernel.run_on(sim, s, &dense(s.cols(), k, seed)).unwrap();
        let reports = run.preprocess.into_iter().chain([run.report]).collect();
        (reports, bits(run.output.data()))
    }
}

fn sddmm_run(
    kernel: &dyn SddmmKernel,
    k: usize,
) -> impl Fn(&mut GpuSim, &Hybrid, usize) -> Run + '_ {
    move |sim, s, seed| {
        let (a1, a2t) = (dense(s.rows(), k, seed), dense(s.cols(), k, seed + 7));
        let run = kernel.run_on(sim, s, &a1, &a2t).unwrap();
        let reports = run.preprocess.into_iter().chain([run.report]).collect();
        (reports, bits(&run.output_values))
    }
}

fn mha_run(kernel: HpFusedMha, d: usize) -> impl Fn(&mut GpuSim, &Hybrid, usize) -> Run {
    move |sim, s, seed| {
        let heads = |rows, salt| -> Vec<Dense> {
            (0..HEADS)
                .map(|h| dense(rows, d, seed * 3 + h + salt))
                .collect()
        };
        let (q, k, v) = (heads(s.rows(), 0), heads(s.cols(), 10), heads(s.cols(), 20));
        let run = kernel.run_on(sim, s, &q, &k, &v).unwrap();
        let out = run
            .outputs
            .iter()
            .flat_map(|o| o.data())
            .chain(run.attn.iter().flatten());
        (run.reports, bits(out))
    }
}

#[test]
fn every_backend_kernel_reports_the_same_on_a_warm_sim_and_replays_exactly() {
    let device = DeviceSpec::v100();
    let mut errors = Vec::new();
    let mut cases = 0;
    for (graph, k) in GRAPHS {
        let g = by_name(graph).expect("registry graph").generate(MAX_EDGES);
        let s = g.with_self_loops().to_hybrid();
        let fp = GraphFingerprint::of(&s, k, &device);

        let mut spmm: Vec<(String, Box<dyn SpmmKernel>)> = spmm_candidates(&device, &fp)
            .into_iter()
            .map(|c| (c.kernel_id.clone(), instantiate_spmm(&c).expect("known id")))
            .collect();
        spmm.push(("cusparse-csr-alg2".into(), Box::new(CusparseCsrAlg2)));
        spmm.push((
            "hp-spmm auto".into(),
            Box::new(HpSpmm::auto(&device, &s, k)),
        ));
        for (id, kernel) in &spmm {
            errors.extend(check(
                &format!("{graph} spmm {id}"),
                &s,
                spmm_run(kernel.as_ref(), k),
            ));
        }

        let mut sddmm: Vec<(String, Box<dyn SddmmKernel>)> = sddmm_candidates(&device, &fp)
            .into_iter()
            .map(|c| {
                (
                    c.kernel_id.clone(),
                    instantiate_sddmm(&c).expect("known id"),
                )
            })
            .collect();
        sddmm.push(("dgl-sddmm".into(), Box::new(DglSddmm)));
        sddmm.push((
            "hp-sddmm auto".into(),
            Box::new(HpSddmm::auto(&device, &s, k)),
        ));
        for (id, kernel) in &sddmm {
            errors.extend(check(
                &format!("{graph} sddmm {id}"),
                &s,
                sddmm_run(kernel.as_ref(), k),
            ));
        }

        let mut mha: Vec<(String, HpFusedMha)> = mha_candidates(&device, &fp)
            .iter()
            .filter_map(|c| Some((c.kernel_id.clone(), instantiate_fused_mha(c)?)))
            .collect();
        mha.push(("hp-fused-mha auto".into(), HpFusedMha::auto(&device, &s, k)));
        assert!(mha.len() >= 2, "{graph}: the fused-MHA configs");
        for (id, kernel) in mha {
            errors.extend(check(&format!("{graph} mha {id}"), &s, mha_run(kernel, k)));
        }
        cases += spmm.len() + sddmm.len() + 2;
    }
    assert!(cases >= 4 * (18 + 2 + 9 + 2 + 2), "{cases} cases");
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}
