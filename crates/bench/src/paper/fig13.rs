//! Figures 12 and 13 — compute-mapping heat maps for four mapping schemes
//! across five sparse matrices and one dense matrix.
//!
//! For each (dataset, mapping) pair the harness maps every partial-product
//! tag of the SpGEMM onto the 32 NeuraMems of the Tile-16 configuration and
//! reports the per-unit workload distribution (max/mean ratio, coefficient
//! of variation and Gini coefficient). The (dataset × mapping) sweep is a
//! `neura_lab` experiment: matrices and tag groups are prepared once per
//! dataset on the parallel runner, then the 24 sweep points fan out over it.

use crate::scaled_matrix_by_name;
use neura_chip::config::ChipConfig;
use neura_chip::mapping::{workload_histogram, MappingKind};
use neura_lab::{fmt, print_table, Artifact, ExperimentSpec, Runner, SweepGrid};
use neura_sparse::gen::GraphGenerator;
use neura_sparse::stats::{gini, imbalance};
use neura_sparse::{CsrMatrix, DatasetCatalog};

const UNITS: usize = 32; // NeuraMems in the Tile-16 configuration

/// Builds, per processed column of `A` (a DRHM reseed boundary), the list of
/// output tags whose partial products that column generates.
fn tag_rows(a: &CsrMatrix) -> Vec<Vec<u64>> {
    let a_csc = a.to_csc();
    let cols = a.cols() as u64;
    (0..a.cols())
        .map(|k| {
            let (rows, _) = a_csc.col(k);
            let (b_cols, _) = a.row(k);
            let mut tags = Vec::with_capacity(rows.len() * b_cols.len());
            for &i in rows {
                for &j in b_cols {
                    tags.push(i as u64 * cols + j as u64);
                }
            }
            tags
        })
        .collect()
}

pub(super) fn run(artifact: &mut Artifact) {
    let runner = Runner::from_env();

    let mut names: Vec<String> =
        DatasetCatalog::heatmap_suite().iter().map(|d| d.name.to_string()).collect();
    names.push("dense-256".to_string());

    // Phase 1: per-dataset preparation (matrix generation + tag grouping),
    // parallel over datasets.
    let tag_groups: Vec<Vec<Vec<u64>>> = runner.run(&names, |_, name| {
        let matrix = if name == "dense-256" {
            GraphGenerator::dense(256, 9).generate().to_csr()
        } else {
            scaled_matrix_by_name(name, 64)
        };
        tag_rows(&matrix)
    });

    // Phase 2: the (dataset × mapping) sweep over the prepared tag groups.
    let spec = ExperimentSpec::new(
        "fig13",
        ChipConfig::tile_16(),
        SweepGrid::new().datasets(names.iter().cloned()).mappings(MappingKind::ALL),
    );
    let results = runner.run_spec(&spec, |point| {
        let dataset = point.dataset.as_deref().expect("grid has a dataset axis");
        let index = names.iter().position(|n| n == dataset).expect("dataset prepared");
        let mut mapper = point.config.mapping.build(UNITS, point.config.seed);
        let histogram = workload_histogram(&mut mapper, &tag_groups[index]);
        let (max_over_mean, cv) = imbalance(&histogram);
        let max_work = histogram.iter().max().copied().unwrap_or(0);
        let mean_work = histogram.iter().sum::<u64>() as f64 / UNITS as f64;
        (max_over_mean, cv, gini(&histogram), max_work, mean_work)
    });

    let mut rows = Vec::new();
    for (point, (max_over_mean, cv, gini_coeff, max_work, mean_work)) in &results {
        rows.push(vec![
            point.dataset.clone().expect("dataset axis"),
            point.config.mapping.name().to_string(),
            fmt(*max_over_mean, 3),
            fmt(*cv, 3),
            fmt(*gini_coeff, 3),
            max_work.to_string(),
            fmt(*mean_work, 1),
        ]);
        artifact.push(
            point
                .record()
                .metric("max_over_mean", *max_over_mean)
                .metric("cv", *cv)
                .metric("gini", *gini_coeff)
                .metric("max_work", *max_work as f64)
                .metric("mean_work", *mean_work),
        );
    }
    print_table(
        "Figures 12/13: per-NeuraMem workload distribution under each compute mapping",
        &["Matrix", "Mapping", "Max/mean", "CV", "Gini", "Max work", "Mean work"],
        &rows,
    );
    println!(
        "\nThe paper's qualitative result: ring and modular hashing show hot spots\n\
         (high max/mean), the random table and DRHM are flat, and DRHM stays flat\n\
         even for the dense matrix."
    );
}
