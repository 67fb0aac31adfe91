//! Table 1 — SpGEMM memory-bloat analysis across the hyper-sparse graph suite.
//!
//! Regenerates, for a synthetic analog of every Table-1 dataset, the bloat
//! percent of the self-product `A × A` and prints it next to the paper's
//! reported value. The per-dataset analysis runs on the `neura_lab`
//! parallel runner; the measured bloat must rank the suite in the pinned
//! order (`neura_lab::golden::table1_bloat_order`).

use crate::{scaled_matrix, MODEL_SCALE};
use neura_lab::{fmt, print_table, ArtifactSession, RunRecord, Runner};
use neura_sparse::{spgemm, DatasetCatalog};

pub(super) fn run(session: &mut ArtifactSession) {
    let datasets = DatasetCatalog::spgemm_suite();
    let analyses = Runner::from_env().run(&datasets, |_, dataset| {
        let a = scaled_matrix(dataset, MODEL_SCALE);
        (a.rows(), a.nnz(), spgemm::count_products(&a, &a).bloat_percent())
    });

    let mut rows = Vec::new();
    for (dataset, (sim_nodes, sim_edges, bloat_percent)) in datasets.iter().zip(&analyses) {
        rows.push(vec![
            dataset.name.to_string(),
            dataset.nodes.to_string(),
            dataset.edges.to_string(),
            fmt(dataset.sparsity_percent, 4),
            sim_nodes.to_string(),
            sim_edges.to_string(),
            fmt(*bloat_percent, 2),
            dataset.paper_bloat_percent.map(|b| fmt(b, 2)).unwrap_or_else(|| "-".to_string()),
        ]);
        let mut record = RunRecord::new(format!("table1/{}", dataset.name))
            .param("dataset", dataset.name)
            .metric("sim_nodes", *sim_nodes as f64)
            .metric("sim_edges", *sim_edges as f64)
            .unit_metric("bloat_percent", *bloat_percent, "%")
            .unit_metric("sparsity_percent_paper", dataset.sparsity_percent, "%");
        if let Some(paper) = dataset.paper_bloat_percent {
            record = record.unit_metric("bloat_percent_paper", paper, "%");
        }
        session.push(record);
    }
    print_table(
        "Table 1: SpGEMM memory bloat (synthetic analogs, scaled)",
        &[
            "Dataset",
            "Nodes (paper)",
            "Edges (paper)",
            "Sparsity % (paper)",
            "Nodes (sim)",
            "Edges (sim)",
            "Bloat % (measured)",
            "Bloat % (paper)",
        ],
        &rows,
    );
    println!(
        "\nNote: analogs are scaled down by {MODEL_SCALE}x with average degree preserved; \
         the bloat ordering across datasets is the quantity being reproduced."
    );
}
