//! The successive-halving engine and its machine-readable outcome.

use neura_chip::accelerator::ExecutionReport;
use neura_chip::config::ChipConfig;

use crate::report::{Metric, RunRecord};
use crate::runner::Runner;
use crate::spec::{ExperimentSpec, SweepGrid, SweepPoint};
use crate::tune::Objective;

/// One scored evaluation of a grid point at one fidelity — the unit the
/// halving ladder ranks. A cycle-level kernel run builds it from its
/// [`ExecutionReport`] ([`Self::simulated`]); every other scorer — an
/// analytic estimate, a serving replay — from whatever produced the score
/// ([`Self::scored`]), attaching any extra metrics worth recording.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The objective score; lower is better. Non-finite scores are
    /// sanitised to `+inf` so they can never win a rung.
    pub score: f64,
    /// The cycle-level report, when one backs the score (adds the standard
    /// execution metric set to the per-evaluation record).
    pub report: Option<ExecutionReport>,
    /// Extra metrics appended to the per-evaluation record.
    pub metrics: Vec<Metric>,
}

impl Evaluation {
    /// A cycle-level run of `config`, scored by `objective` on the
    /// report's cycles and seconds; the report rides along into the record.
    pub fn simulated(objective: Objective, config: &ChipConfig, report: ExecutionReport) -> Self {
        let score = objective.score(config, report.total_cycles as f64, report.execution_seconds);
        Evaluation { score, report: Some(report), metrics: Vec::new() }
    }

    /// An externally-scored evaluation with no backing report.
    pub fn scored(score: f64) -> Self {
        Evaluation { score, report: None, metrics: Vec::new() }
    }

    /// Appends an extra metric (builder style).
    pub fn with_metric(mut self, name: impl Into<String>, value: f64, unit: &str) -> Self {
        self.metrics.push(Metric { name: name.into(), value, unit: Some(unit.to_string()) });
        self
    }
}

/// Where in the halving ladder one evaluation sits — handed to
/// [`Tuner::run`] scorers so two-tier cost models can pick a
/// fidelity *tier* per rung: analytic screening on the cheap rungs, the
/// cycle-accurate oracle on the final rung (and on the baseline
/// comparison, which is always scored as final so the
/// `improvement_vs_default ≥ 1` guarantee compares like against like).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungContext {
    /// Rung number (0 = full grid).
    pub index: usize,
    /// Workload-shrink factor of this rung (1 = full fidelity).
    pub shrink: usize,
    /// Whether this is the last *executed* rung (or the baseline run) —
    /// the evaluation that decides the reported best configuration.
    pub is_final: bool,
}

/// Fraction of each rung that survives into the next: classic halving.
const KEEP: f64 = 0.5;

/// Largest workload-shrink factor an early rung may use. Deeper ladders
/// reuse this cheapest fidelity rather than shrinking further (tiny graphs
/// stop discriminating between configurations well before 1/8 scale).
const MAX_SHRINK: usize = 8;

/// A declarative tuning problem: what to search, over which grid, for which
/// objective, within which budget.
#[derive(Debug, Clone)]
pub struct TuneSpec {
    /// Tuner name; the leading component of every run ID.
    pub name: String,
    /// The paper-default (baseline) configuration. Axes the grid leaves
    /// empty hold this configuration's values.
    pub base: ChipConfig,
    /// The coarse grid to search. At most one dataset (the tuner optimises
    /// one workload at a time; run one tuner per dataset for a suite).
    pub grid: SweepGrid,
    /// The quantity to minimise.
    pub objective: Objective,
    /// Maximum total evaluations across all rungs. Rung 0 (the full grid)
    /// always runs; later rungs are dropped once the budget is exhausted.
    pub budget: usize,
}

impl TuneSpec {
    /// Creates a spec with an unlimited budget.
    pub fn new(
        name: impl Into<String>,
        base: ChipConfig,
        grid: SweepGrid,
        objective: Objective,
    ) -> Self {
        TuneSpec { name: name.into(), base, grid, objective, budget: usize::MAX }
    }

    /// Caps the total evaluation count (builder style).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }
}

/// One planned rung: how many candidates it evaluates and at what fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungPlan {
    /// Rung number (0 = full grid, cheapest fidelity).
    pub index: usize,
    /// Number of candidates this rung evaluates.
    pub size: usize,
    /// Extra workload-shrink factor (1 = full fidelity). The full halving
    /// ladder ends at shrink 1 and doubles backwards, with rungs beyond
    /// three doublings (shrink 8) from the end sharing the cheapest shrink;
    /// a budget-truncated ladder keeps the shrinks the full ladder
    /// assigned, so its last executed rung may be > 1.
    pub shrink: usize,
}

/// What actually happened in one executed rung.
#[derive(Debug, Clone)]
pub struct RungTrace {
    /// Rung number.
    pub index: usize,
    /// Shrink factor the rung ran at.
    pub shrink: usize,
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Indices (into [`Tuner::points`]) of the survivors, best score first.
    pub survivors: Vec<usize>,
    /// Index of the rung's best point.
    pub best_index: usize,
    /// The rung's best score.
    pub best_score: f64,
}

/// The result of a tuner run: the grid winner, the baseline comparison and
/// the full per-rung provenance, plus the artifact records describing all
/// of it.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Best grid point at the final rung's fidelity.
    pub winner: SweepPoint,
    /// The paper-default configuration's score at the final rung's
    /// fidelity.
    pub baseline_score: f64,
    /// Whichever of winner/baseline scores better — by construction never
    /// worse than the paper default on the objective.
    pub best: SweepPoint,
    /// The best configuration's score.
    pub best_score: f64,
    /// Executed rungs, in order.
    pub rungs: Vec<RungTrace>,
    /// Total evaluations spent (including the baseline run).
    pub evaluations: usize,
    records: Vec<RunRecord>,
}

impl TuneOutcome {
    /// The artifact records describing this run: one per evaluation, one
    /// summary per rung, one for the baseline and one `best_config` record.
    /// Deterministically ordered, so artifacts built from them are
    /// byte-identical across thread counts.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// How much better the best configuration is than the paper default on
    /// the objective (`baseline_score / best_score`, ≥ 1). For the
    /// [`Objective::Speedup`] objective this *is* the speedup factor.
    pub fn improvement_vs_default(&self) -> f64 {
        improvement(self.baseline_score, self.best_score)
    }
}

/// Improvement factor of a best score over the baseline (both
/// lower-is-better). The single definition behind both the
/// `improvement_vs_default` artifact metric and
/// [`TuneOutcome::improvement_vs_default`].
fn improvement(baseline_score: f64, best_score: f64) -> f64 {
    if best_score > 0.0 {
        baseline_score / best_score
    } else {
        1.0
    }
}

/// A score as the ladder ranks it: a non-finite one becomes `+inf`, so it
/// can never win a rung.
fn sanitised(score: f64) -> f64 {
    if score.is_finite() {
        score
    } else {
        f64::INFINITY
    }
}

/// Builds the per-evaluation artifact record: the standard execution
/// metric set when a report backs the score, any extra metrics, then the
/// objective score; `extra_params` follow the point's own parameters.
fn evaluation_record(
    id: String,
    evaluation: &Evaluation,
    score: f64,
    objective: Objective,
    params: Vec<(String, String)>,
    extra_params: &[(String, String)],
) -> RunRecord {
    let mut record = RunRecord::new(id);
    if let Some(report) = &evaluation.report {
        record = record.with_execution(report);
    }
    record.metrics.extend(evaluation.metrics.iter().cloned());
    let mut record = record.unit_metric("objective_score", score, objective.unit());
    record.params = params;
    record.params.extend(extra_params.iter().cloned());
    record
}

/// The successive-halving tuner: an enumerated grid plus a rung plan.
#[derive(Debug, Clone)]
pub struct Tuner {
    spec: TuneSpec,
    points: Vec<SweepPoint>,
    plan: Vec<RungPlan>,
}

impl Tuner {
    /// Enumerates the grid and plans the rung ladder.
    ///
    /// # Panics
    ///
    /// Panics when the grid sweeps more than one dataset (the baseline
    /// comparison would be ambiguous; run one tuner per dataset).
    pub fn new(spec: TuneSpec) -> Self {
        assert!(
            spec.grid.datasets.len() <= 1,
            "a tuner optimises one dataset at a time (grid sweeps {})",
            spec.grid.datasets.len()
        );
        let experiment =
            ExperimentSpec::new(spec.name.clone(), spec.base.clone(), spec.grid.clone());
        let points = experiment.points();
        let plan = plan_rungs(points.len(), spec.budget);
        Tuner { spec, points, plan }
    }

    /// The spec this tuner was built from.
    pub fn spec(&self) -> &TuneSpec {
        &self.spec
    }

    /// Every point of the original grid, in enumeration order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The planned rung ladder (sizes strictly decreasing; the final rung
    /// has shrink 1 unless the budget truncated the ladder early).
    pub fn plan(&self) -> &[RungPlan] {
        &self.plan
    }

    /// The distinct shrink factors the plan uses, ascending — callers can
    /// pre-generate one workload per fidelity before running.
    pub fn shrinks(&self) -> Vec<usize> {
        let mut shrinks: Vec<usize> = self.plan.iter().map(|r| r.shrink).collect();
        shrinks.sort_unstable();
        shrinks.dedup();
        shrinks
    }

    /// Runs the halving ladder; `eval` scores one point in its rung's
    /// context. The rung context lets a *tiered* scorer change how a point
    /// is priced per rung (e.g. the hybrid cost model: analytic estimates
    /// on screening rungs, the cycle oracle on the final rung), and the
    /// score may come from a larger simulation than one kernel run (the
    /// serve-p99 objective scores a serving replay). The baseline
    /// comparison is evaluated with `is_final = true` at the final rung's
    /// shrink, so a tiered scorer always judges the winner and the paper
    /// default with the same (most expensive) tier. `eval` must be
    /// deterministic in `(point, context)`.
    pub fn run<F>(&self, runner: &Runner, eval: F) -> TuneOutcome
    where
        F: Fn(&SweepPoint, RungContext) -> Evaluation + Sync,
    {
        let objective = self.spec.objective;
        let mut candidates: Vec<usize> = (0..self.points.len()).collect();
        let mut records = Vec::new();
        let mut rungs: Vec<RungTrace> = Vec::new();

        for (step, plan) in self.plan.iter().enumerate() {
            let context = RungContext {
                index: plan.index,
                shrink: plan.shrink,
                is_final: step + 1 == self.plan.len(),
            };
            let selected: Vec<&SweepPoint> = candidates.iter().map(|&i| &self.points[i]).collect();
            let results = runner.run(&selected, |_, point| eval(point, context));

            // Record each evaluation, then rank: ascending score, point
            // index breaking ties so the ranking is a pure function of the
            // scores.
            let mut ranked: Vec<(usize, f64)> = Vec::with_capacity(candidates.len());
            for (&index, evaluation) in candidates.iter().zip(&results) {
                let point = &self.points[index];
                let score = sanitised(evaluation.score);
                ranked.push((index, score));
                records.push(evaluation_record(
                    format!("{}/rung{}", point.id, plan.index),
                    evaluation,
                    score,
                    objective,
                    point.params(),
                    &[
                        ("rung".into(), plan.index.to_string()),
                        ("shrink".into(), plan.shrink.to_string()),
                    ],
                ));
            }
            ranked.sort_by(|a, b| {
                a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });

            let next_size = self.plan.get(step + 1).map(|p| p.size).unwrap_or(1);
            let survivors: Vec<usize> =
                ranked.iter().take(next_size.min(ranked.len())).map(|&(i, _)| i).collect();
            let (best_index, best_score) = ranked[0];
            records.push(
                RunRecord::new(format!("{}/rung{}/summary", self.scope(), plan.index))
                    .metric("evaluated", selected.len() as f64)
                    .metric("survivors", survivors.len() as f64)
                    .metric("shrink", plan.shrink as f64)
                    .unit_metric("best_score", best_score, objective.unit())
                    .param("best", &self.points[best_index].id)
                    .param("objective", objective.name()),
            );
            rungs.push(RungTrace {
                index: plan.index,
                shrink: plan.shrink,
                evaluated: selected.len(),
                survivors: survivors.clone(),
                best_index,
                best_score,
            });
            candidates = survivors;
        }
        self.conclude(&eval, rungs, records)
    }

    /// Compares the last rung's winner against the paper default at the
    /// same fidelity — the baseline is scored as final — and closes the
    /// record list with the baseline and `best_config` records.
    fn conclude<F>(
        &self,
        eval: &F,
        rungs: Vec<RungTrace>,
        mut records: Vec<RunRecord>,
    ) -> TuneOutcome
    where
        F: Fn(&SweepPoint, RungContext) -> Evaluation + Sync,
    {
        let objective = self.spec.objective;
        let scope = self.scope();
        let last = rungs.last().expect("at least one rung always runs");
        let winner = self.points[last.best_index].clone();

        let baseline = self.baseline_point(&scope);
        let baseline_context =
            RungContext { index: last.index, shrink: last.shrink, is_final: true };
        let baseline_eval = eval(&baseline, baseline_context);
        let baseline_score = sanitised(baseline_eval.score);
        let evaluations = rungs.iter().map(|rung| rung.evaluated).sum::<usize>() + 1;
        records.push(evaluation_record(
            format!("{scope}/baseline"),
            &baseline_eval,
            baseline_score,
            objective,
            baseline.params(),
            &[("shrink".into(), last.shrink.to_string())],
        ));

        let (best, best_score) = if last.best_score <= baseline_score {
            (winner.clone(), last.best_score)
        } else {
            (baseline, baseline_score)
        };
        let mut best_record = RunRecord::new(format!("{scope}/best_config"))
            .unit_metric("objective_score", best_score, objective.unit())
            .unit_metric("baseline_score", baseline_score, objective.unit())
            .metric("improvement_vs_default", improvement(baseline_score, best_score))
            .metric("evaluations", evaluations as f64)
            .metric("rungs", rungs.len() as f64)
            .metric("grid_points", self.points.len() as f64);
        best_record.params = best.params();
        records.push(best_record.param("best", &best.id).param("objective", objective.name()));

        TuneOutcome { winner, baseline_score, best, best_score, rungs, evaluations, records }
    }

    /// The run-ID scope: the tuner name plus the dataset, when one is set.
    fn scope(&self) -> String {
        let mut scope = self.spec.name.clone();
        if let Some(dataset) = self.spec.grid.datasets.first() {
            scope.push('/');
            scope.push_str(dataset);
        }
        scope
    }

    /// The paper-default configuration as a pseudo-point, carrying the same
    /// derived seed as every grid point so the comparison is seed-fair.
    fn baseline_point(&self, scope: &str) -> SweepPoint {
        let mut config = self.spec.base.clone();
        config.seed = self.points[0].config.seed;
        SweepPoint {
            id: format!("{scope}/baseline"),
            dataset: self.spec.grid.datasets.first().cloned(),
            config,
        }
    }
}

/// Plans the rung ladder: sizes shrink by [`KEEP`] per rung down to one
/// survivor; fidelity doubles towards the end of that full ladder (its
/// last rung runs at full scale, its earliest rungs share the
/// [`MAX_SHRINK`] clamp). The ladder is then truncated to `budget` total
/// evaluations — rung 0 always runs — and truncated rungs *keep* the
/// shrink the full ladder assigned them, so a small budget buys a cheap
/// low-fidelity search rather than silently degenerating to an expensive
/// full-fidelity exhaustive pass.
fn plan_rungs(grid_points: usize, budget: usize) -> Vec<RungPlan> {
    let mut sizes = vec![grid_points.max(1)];
    while *sizes.last().expect("non-empty") > 1 {
        let current = *sizes.last().expect("non-empty");
        let next = ((current as f64) * KEEP).ceil() as usize;
        sizes.push(next.clamp(1, current - 1));
    }

    // Shrinks are assigned over the *full* ladder before any truncation.
    let full = sizes.len();
    let shrink_at = |index: usize| 1usize << (full - 1 - index).min(MAX_SHRINK.ilog2() as usize);

    let mut kept = Vec::new();
    let mut spent = 0usize;
    for (index, &size) in sizes.iter().enumerate() {
        if index > 0 && spent.saturating_add(size) > budget {
            break;
        }
        kept.push(RungPlan { index, size, shrink: shrink_at(index) });
        spent += size;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_halves_to_one_and_ends_at_full_fidelity() {
        let plan = plan_rungs(16, usize::MAX);
        let sizes: Vec<usize> = plan.iter().map(|r| r.size).collect();
        assert_eq!(sizes, vec![16, 8, 4, 2, 1]);
        let shrinks: Vec<usize> = plan.iter().map(|r| r.shrink).collect();
        assert_eq!(shrinks, vec![8, 8, 4, 2, 1]);
        assert!(plan.windows(2).all(|w| w[0].size > w[1].size));
    }

    #[test]
    fn plan_respects_the_budget_but_always_runs_rung_zero() {
        let plan = plan_rungs(16, 25);
        let sizes: Vec<usize> = plan.iter().map(|r| r.size).collect();
        assert_eq!(sizes, vec![16, 8], "16 + 8 = 24 fits, + 4 would exceed 25");

        // Truncated ladders keep the full ladder's cheap shrink factors —
        // a smaller budget must never buy a more expensive run.
        assert_eq!(plan.last().unwrap().shrink, 8, "truncation does not promote fidelity");
        let tiny_budget = plan_rungs(16, 3);
        assert_eq!(tiny_budget.len(), 1, "rung 0 runs even over budget");
        assert_eq!(tiny_budget[0].shrink, 8, "a budget-truncated rung 0 stays cheap");
    }

    #[test]
    fn plan_for_one_point_is_a_single_full_fidelity_rung() {
        assert_eq!(plan_rungs(1, usize::MAX), vec![RungPlan { index: 0, size: 1, shrink: 1 }]);
    }

    #[test]
    #[should_panic(expected = "one dataset at a time")]
    fn multi_dataset_grids_are_rejected() {
        let grid = SweepGrid::new().datasets(["cora", "facebook"]);
        Tuner::new(TuneSpec::new("t", ChipConfig::tile_16(), grid, Objective::Cycles));
    }
}
