//! Property tests for the successive-halving tuner.
//!
//! Three invariants are pinned: (1) the search never invents
//! configurations — every survivor of every rung is a member of the
//! original grid; (2) rung sizes are strictly decreasing, so the ladder
//! always terminates; (3) the tuner artifact is byte-identical for any
//! worker count, the same contract the sweep binaries honour.

use std::collections::HashSet;

use neura_chip::accelerator::Accelerator;
use neura_chip::config::{ChipConfig, EvictionPolicy, HbmPreset};
use neura_lab::tune::{Evaluation, Objective, RungContext, TuneSpec, Tuner};
use neura_lab::{Artifact, Runner, SweepGrid, SweepPoint};
use neura_sparse::gen::GraphGenerator;
use neura_sparse::CsrMatrix;
use proptest::prelude::*;

/// A 16-point grid over four axes, including the paper defaults.
fn test_grid() -> SweepGrid {
    SweepGrid::new()
        .datasets(["cora"])
        .mmh_tiles([2, 4])
        .hashlines([256, 2048])
        .evictions([EvictionPolicy::Rolling, EvictionPolicy::Barrier])
        .hbm_presets([HbmPreset::Hbm2, HbmPreset::Hbm2DualStack])
}

/// Deterministic per-fidelity workloads: shrink 8 gets the smallest graph.
fn matrices_for(tuner: &Tuner) -> Vec<(usize, CsrMatrix)> {
    tuner
        .shrinks()
        .into_iter()
        .map(|shrink| {
            let nodes = (256 / shrink).max(32);
            (shrink, GraphGenerator::power_law(nodes, nodes * 6, 2.1, 7).generate().to_csr())
        })
        .collect()
}

/// Simulates `point` on its rung's matrix and scores the report.
fn simulate(
    objective: Objective,
    matrices: &[(usize, CsrMatrix)],
    point: &SweepPoint,
    context: RungContext,
) -> Evaluation {
    let (_, a) = matrices.iter().find(|(s, _)| *s == context.shrink).expect("matrix per shrink");
    let mut chip = Accelerator::new(point.config.clone());
    let report = chip.run_spgemm(a, a).expect("simulation drains").report;
    Evaluation::simulated(objective, &point.config, report)
}

#[test]
fn survivors_are_grid_members_and_rungs_strictly_shrink() {
    let tuner =
        Tuner::new(TuneSpec::new("prop", ChipConfig::tile_16(), test_grid(), Objective::Cycles));
    let matrices = matrices_for(&tuner);
    let outcome = tuner.run(&Runner::new(4), |p, c| simulate(Objective::Cycles, &matrices, p, c));

    let grid_ids: HashSet<&str> = tuner.points().iter().map(|p| p.id.as_str()).collect();
    for rung in &outcome.rungs {
        for &survivor in &rung.survivors {
            let id = tuner.points()[survivor].id.as_str();
            assert!(grid_ids.contains(id), "survivor {id} must be an original grid point");
        }
    }
    assert!(grid_ids.contains(outcome.winner.id.as_str()), "the winner is a grid member");

    let sizes: Vec<usize> = outcome.rungs.iter().map(|r| r.evaluated).collect();
    assert!(sizes.windows(2).all(|w| w[0] > w[1]), "rung sizes must strictly decrease: {sizes:?}");
    assert_eq!(*sizes.first().unwrap(), tuner.points().len(), "rung 0 evaluates the full grid");
    assert_eq!(outcome.rungs.last().unwrap().shrink, 1, "the final rung runs at full fidelity");

    // The acceptance bound: never worse than the paper default.
    assert!(outcome.best_score <= outcome.baseline_score);
    assert!(outcome.improvement_vs_default() >= 1.0);
}

#[test]
fn tuner_artifact_is_byte_identical_across_thread_counts() {
    let artifact_with = |threads: usize| -> String {
        let tuner = Tuner::new(TuneSpec::new(
            "threads",
            ChipConfig::tile_16(),
            test_grid(),
            Objective::EnergyDelay,
        ));
        let matrices = matrices_for(&tuner);
        let outcome = tuner
            .run(&Runner::new(threads), |p, c| simulate(Objective::EnergyDelay, &matrices, p, c));
        let mut artifact = Artifact::new("tune", 1);
        artifact.extend(outcome.records().iter().cloned());
        artifact.to_bytes()
    };
    let two = artifact_with(2);
    let eight = artifact_with(8);
    assert!(!two.is_empty());
    assert_eq!(two, eight, "tuner artifact bytes must not depend on the thread count");

    // And the winner is recoverable from the artifact: a best_config record
    // exists with the objective score attached.
    let parsed = Artifact::from_json(&neura_lab::parse_json(&two).unwrap()).unwrap();
    let best = parsed
        .records
        .iter()
        .find(|r| r.id.ends_with("/best_config"))
        .expect("best_config record present");
    assert!(best.metric_value("objective_score").is_some());
    assert!(best.metric_value("improvement_vs_default").unwrap() >= 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The rung plan halves to a single survivor within budget, with
    /// strictly decreasing sizes and full fidelity on the last rung, for
    /// arbitrary grid shapes and budgets.
    #[test]
    fn plans_shrink_strictly_and_respect_budgets(
        n_mmh in 1usize..=4,
        n_hash in 1usize..=4,
        n_cores in 1usize..=3,
        budget in 1usize..=200,
    ) {
        const MMH: [u8; 4] = [1, 2, 4, 8];
        const HASH: [usize; 4] = [256, 1024, 2048, 4096];
        const CORES: [usize; 3] = [2, 4, 8];
        let grid = SweepGrid::new()
            .mmh_tiles(MMH[..n_mmh].to_vec())
            .hashlines(HASH[..n_hash].to_vec())
            .cores_per_tile(CORES[..n_cores].to_vec());
        let tuner = Tuner::new(
            TuneSpec::new("plan", ChipConfig::tile_16(), grid.clone(), Objective::Cycles)
                .with_budget(budget),
        );
        let plan = tuner.plan();

        prop_assert_eq!(plan[0].size, grid.len());
        prop_assert!(plan.windows(2).all(|w| w[0].size > w[1].size));
        // An untruncated ladder (one final survivor) ends at full fidelity;
        // a budget-truncated one keeps its cheap shrink instead.
        let last = plan.last().unwrap();
        prop_assert!(if last.size == 1 { last.shrink == 1 } else { last.shrink > 1 });
        prop_assert!(plan.iter().all(|r| r.shrink.is_power_of_two() && r.shrink <= 8));
        prop_assert!(plan.windows(2).all(|w| w[0].shrink >= w[1].shrink),
            "fidelity never decreases along the ladder");
        let total: usize = plan.iter().map(|r| r.size).sum();
        prop_assert!(plan.len() == 1 || total <= budget,
            "a multi-rung plan fits the budget (total {}, budget {})", total, budget);
    }
}
