//! Determinism regression: the tuner is a pure function of its spec and
//! seed. Two in-process runs of the same spec must pick the identical best
//! configuration, walk the identical rung trace and emit byte-identical
//! records.

use neura_chip::accelerator::Accelerator;
use neura_chip::config::ChipConfig;
use neura_lab::tune::{Evaluation, Objective, TuneOutcome, TuneSpec, Tuner};
use neura_lab::{Artifact, Runner, SweepGrid};
use neura_sparse::gen::GraphGenerator;

fn run_once() -> (TuneOutcome, String) {
    let grid = SweepGrid::new()
        .datasets(["cora"])
        .mmh_tiles([1, 2, 4, 8])
        .router_buffers([8, 16])
        .hashlines([1024, 2048]);
    let spec = TuneSpec::new("det", ChipConfig::tile_16().with_seed(42), grid, Objective::Speedup)
        .with_budget(24);
    let tuner = Tuner::new(spec);
    let a = GraphGenerator::power_law(96, 600, 2.1, 7).generate().to_csr();
    let outcome = tuner.run(&Runner::new(4), |point, _context| {
        let mut chip = Accelerator::new(point.config.clone());
        let report = chip.run_spgemm(&a, &a).expect("simulation drains").report;
        Evaluation::simulated(Objective::Speedup, &point.config, report)
    });
    let mut artifact = Artifact::new("tune", 1);
    artifact.extend(outcome.records().iter().cloned());
    let bytes = artifact.to_bytes();
    (outcome, bytes)
}

#[test]
fn same_spec_and_seed_reproduce_best_config_and_rung_trace() {
    let (first, first_bytes) = run_once();
    let (second, second_bytes) = run_once();

    assert_eq!(first.best.id, second.best.id, "best configuration is reproducible");
    assert_eq!(first.best.config, second.best.config);
    assert_eq!(first.best_score.to_bits(), second.best_score.to_bits());
    assert_eq!(first.baseline_score.to_bits(), second.baseline_score.to_bits());

    assert_eq!(first.rungs.len(), second.rungs.len(), "same rung count");
    for (a, b) in first.rungs.iter().zip(&second.rungs) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.shrink, b.shrink);
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.survivors, b.survivors, "rung {} survivors", a.index);
        assert_eq!(a.best_index, b.best_index);
        assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    }

    assert_eq!(first_bytes, second_bytes, "artifact bytes are reproducible");
}
