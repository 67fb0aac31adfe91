//! A chip that stops moving says so. The paper-default Tile-16 with its
//! HashPads cut to 1 024 lines, the `hashlines` point of the tuner's grid,
//! fills every pad on the `web-Google` analog with lines whose remaining
//! partial products wait behind a tag no pad can place. The run returns
//! `Wedged` one patience after its last progress instead of simulating on.

use neura_chip::accelerator::{Accelerator, ChipError};
use neura_chip::config::ChipConfig;
use neura_sparse::{CsrMatrix, DatasetCatalog};

/// The dataset's analog as the tuner simulates it at full fidelity: the
/// catalog graph scaled to `nodes / 512` nodes, clamped to 256..=2 000.
fn full_fidelity_analog(name: &str) -> CsrMatrix {
    let dataset = DatasetCatalog::by_name(name).expect("a catalog dataset");
    let target_nodes = (dataset.nodes / 512).clamp(256, 2_000);
    let scale = (dataset.nodes / target_nodes).max(1);
    dataset.generate_scaled(scale, 0xDA7A + dataset.nodes as u64).to_csr()
}

#[test]
fn a_thousand_line_hashpad_wedges_on_web_google() {
    let a = full_fidelity_analog("web-Google");
    let mut config = ChipConfig::default();
    config.mem.hashlines = 1_024;
    match Accelerator::new(config).run_spgemm(&a, &a) {
        Err(ChipError::Wedged { cycle, outstanding_haccs }) => {
            assert_eq!((cycle, outstanding_haccs), (35_940, 279_845));
        }
        other => panic!("expected a wedge, got {:?}", other.map(|run| run.report.total_cycles)),
    }
}
