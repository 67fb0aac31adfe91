//! `neura_perf` — the repo's host-side perf ledger. See `README.md`.

pub mod drives;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod util;
pub mod workloads;
