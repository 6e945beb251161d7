//! Static verifier verdicts over the kernel registry.
//!
//! Every registry kernel's symbolic plans must come back fully `Proved` on
//! all three checkers — for every HP configuration the autotuner can pick —
//! and each seeded mutant must be statically `Refuted` by exactly the
//! checker its defect targets, with a concrete counterexample attached.

use hpsparse_bench::experiments::verify::hp_configs;
use hpsparse_core::baselines::registry;
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::mutants;
use hpsparse_verify::{verify_plan, CheckKind, CheckVerdict};

fn expect_all_proved(
    label: &str,
    plans: &[hpsparse_sim::SymbolicPlan],
    failures: &mut Vec<String>,
) {
    if plans.is_empty() {
        failures.push(format!("{label}: no symbolic plans emitted"));
        return;
    }
    for plan in plans {
        let v = verify_plan(plan);
        for kind in CheckKind::ALL {
            match v.check(kind) {
                CheckVerdict::Proved => {}
                CheckVerdict::Refuted(cex) => {
                    failures.push(format!("{label} [{}] {kind}: REFUTED {cex}", plan.variant));
                }
                CheckVerdict::Unknown { reason } => {
                    failures.push(format!(
                        "{label} [{}] {kind}: UNKNOWN ({reason})",
                        plan.variant
                    ));
                }
            }
        }
    }
}

#[test]
fn hp_kernels_fully_proved_for_every_config() {
    let mut failures = Vec::new();
    for cfg in hp_configs() {
        let spmm = HpSpmm { config: cfg };
        expect_all_proved(
            "hp-spmm",
            &hpsparse_core::SpmmKernel::symbolic_plans(&spmm),
            &mut failures,
        );
        let sddmm = HpSddmm { config: cfg };
        expect_all_proved(
            "hp-sddmm",
            &hpsparse_core::SddmmKernel::symbolic_plans(&sddmm),
            &mut failures,
        );
        // The fused attention plan covers all three launches, including the
        // shared-memory score tile and the L2 spill path.
        let fused = HpFusedMha { config: cfg };
        expect_all_proved("hp-fused-mha", &fused.symbolic_plans(), &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn registry_baselines_fully_proved() {
    let mut failures = Vec::new();
    for id in registry::SPMM_IDS {
        let kernel = registry::spmm_by_id(id).expect("registry id resolves");
        expect_all_proved(id, &kernel.symbolic_plans(), &mut failures);
    }
    for id in registry::SDDMM_IDS {
        let kernel = registry::sddmm_by_id(id).expect("registry id resolves");
        expect_all_proved(id, &kernel.symbolic_plans(), &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn mutants_statically_refuted_by_their_target_checker() {
    let expectations = [
        ("mutant:oob-tail", CheckKind::Bounds),
        ("mutant:racy-tail", CheckKind::Race),
        ("mutant:uninit-acc", CheckKind::Init),
        ("mutant:eager-norm", CheckKind::Init),
    ];
    for m in mutants::all_mutants() {
        let expected = expectations
            .iter()
            .find(|(name, _)| *name == m.name())
            .map(|(_, k)| *k)
            .unwrap_or_else(|| panic!("unknown mutant {}", m.name()));
        let plans = m.symbolic_plans();
        assert_eq!(plans.len(), 1, "{}: one plan expected", m.name());
        let v = verify_plan(&plans[0]);
        match v.check(expected) {
            CheckVerdict::Refuted(cex) => {
                // The counterexample must name a real buffer and carry the
                // overrun-vs-wild attribution for bounds defects.
                assert!(!cex.buffer.is_empty());
                if expected == CheckKind::Bounds {
                    assert!(
                        cex.oob.is_some(),
                        "{}: bounds refutation lacks attribution",
                        m.name()
                    );
                }
            }
            other => panic!(
                "{} should be statically refuted on {expected}, got {other:?}",
                m.name()
            ),
        }
        // The seeded defect is the *only* refuted property.
        for kind in CheckKind::ALL {
            if kind != expected {
                assert!(
                    !v.check(kind).is_refuted(),
                    "{}: unexpected refutation on {kind}",
                    m.name()
                );
            }
        }
    }
}
