//! Sweep-driven auto-tuning of [`ChipConfig`](neura_chip::config::ChipConfig)
//! by successive halving over [`SweepGrid`](crate::spec::SweepGrid)
//! refinements.
//!
//! The paper publishes a handful of hand-picked design points (Tables 2/3)
//! and ablates one axis at a time; this module *searches* the joint space
//! instead. A [`TuneSpec`] names a base configuration, a coarse grid over
//! any subset of the eleven sweep axes, an [`Objective`] and an evaluation
//! budget. [`Tuner::run`] then executes classic successive halving:
//!
//! 1. **Rung 0** evaluates every grid point at the cheapest fidelity (the
//!    workload shrunk by the rung's `shrink` factor).
//! 2. The better half by objective score survives; the survivor set is
//!    the refined grid for the next rung.
//! 3. Later rungs re-evaluate only the survivors at increasing fidelity:
//!    the full ladder ends at full fidelity and fidelity doubles towards
//!    it (rungs more than three doublings from the end share the cheapest
//!    8× shrink). The search stops when the refinement is exhausted (one
//!    survivor) or the budget is spent — a budget-truncated ladder keeps
//!    its cheap shrink factors, so a smaller budget always means a
//!    cheaper run.
//!
//! The winner is finally compared against the paper-default base
//! configuration *at the same fidelity*; the reported best configuration is
//! whichever scores better, so a tuner run can never recommend something
//! worse than the published design point.
//!
//! Everything is deterministic: points are enumerated by
//! [`ExperimentSpec::points`](crate::spec::ExperimentSpec::points) (stable
//! IDs and derived seeds), rungs execute on the ordered
//! [`Runner`](crate::Runner) (results collected in spec order for any
//! thread count), and survivor selection breaks score ties by point index
//! — so the tuner artifact is byte-identical for any `NEURA_LAB_THREADS`.

mod halving;
mod objective;

pub use halving::{Evaluation, RungContext, RungPlan, RungTrace, TuneOutcome, TuneSpec, Tuner};
pub use objective::Objective;
