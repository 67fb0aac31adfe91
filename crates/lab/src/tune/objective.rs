//! Tuning objectives: how one simulated run is condensed to a single score.
//!
//! Scores are *lower-is-better* across all objectives so the halving loop
//! never needs to know which direction an objective optimises. Speedup over
//! the paper default is therefore scored as raw execution time (minimising
//! time maximises speedup); the human-facing speedup factor is derived in
//! the outcome's `best_config` record as `baseline_score / best_score`.

use neura_chip::config::ChipConfig;
use neura_chip::power::PowerModel;

/// The quantity a [`Tuner`](crate::tune::Tuner) minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Total simulated cycles (frequency-independent).
    Cycles,
    /// Energy–delay product: average chip power × execution time², in J·s.
    /// Penalises configurations that buy speed with disproportionate
    /// silicon (the power model scales with core/mem/router counts and
    /// HashPad capacity).
    EnergyDelay,
    /// Execution time, reported as speedup over the paper-default
    /// configuration (`baseline_seconds / best_seconds`).
    Speedup,
    /// p99 serving latency under a reference request stream (seconds).
    /// Scores a candidate by what actually matters in production — the
    /// tail under load, queueing included — instead of single-kernel
    /// cycles. This objective is scored by a serving simulation, not by a
    /// kernel's cycles and seconds: its evaluator hands
    /// [`Tuner::run`](crate::tune::Tuner::run) the replay's p99 (the `tune`
    /// binary wires `neura_serve` in); [`Objective::score`] panics for it.
    ServeP99,
}

impl Objective {
    /// All objectives, in documentation order.
    pub const ALL: [Objective; 4] =
        [Objective::Cycles, Objective::EnergyDelay, Objective::Speedup, Objective::ServeP99];

    /// Stable name used by the `--objective` flag and in artifact params.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::EnergyDelay => "energy-delay",
            Objective::Speedup => "speedup",
            Objective::ServeP99 => "serve-p99",
        }
    }

    /// Unit of the score this objective produces.
    pub fn unit(&self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::EnergyDelay => "J*s",
            Objective::Speedup => "s",
            Objective::ServeP99 => "s",
        }
    }

    /// Parses a flag value (`"cycles"`, `"energy-delay"`/`"edp"`,
    /// `"speedup"`, `"serve-p99"`/`"p99"`).
    pub fn parse(name: &str) -> Option<Objective> {
        match name {
            "cycles" => Some(Objective::Cycles),
            "energy-delay" | "edp" => Some(Objective::EnergyDelay),
            "speedup" => Some(Objective::Speedup),
            "serve-p99" | "p99" => Some(Objective::ServeP99),
            _ => None,
        }
    }

    /// Scores one kernel run of `config` that took `cycles` cycles and
    /// `seconds` seconds — simulated or estimated, the one formula for
    /// every cost tier; lower is better for every objective. Non-finite
    /// inputs score `+inf` so they can never win a rung.
    ///
    /// # Panics
    ///
    /// Panics for [`Objective::ServeP99`]: a single kernel run carries no
    /// tail latency. Score it with a serving replay instead.
    pub fn score(&self, config: &ChipConfig, cycles: f64, seconds: f64) -> f64 {
        let score = match self {
            Objective::Cycles => cycles,
            Objective::EnergyDelay => {
                let power = PowerModel::calibrated().breakdown(config).total_power_w();
                power * seconds * seconds
            }
            Objective::Speedup => seconds,
            Objective::ServeP99 => panic!(
                "the serve-p99 objective is scored by a serving simulation, \
                 not by one kernel run"
            ),
        };
        if score.is_finite() {
            score
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for objective in Objective::ALL {
            assert_eq!(Objective::parse(objective.name()), Some(objective));
        }
        assert_eq!(Objective::parse("edp"), Some(Objective::EnergyDelay));
        assert_eq!(Objective::parse("p99"), Some(Objective::ServeP99));
        assert_eq!(Objective::parse("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "serving simulation")]
    fn serve_p99_rejects_report_scoring() {
        Objective::ServeP99.score(&ChipConfig::tile_16(), 10.0, 1.0);
    }

    #[test]
    fn energy_delay_penalises_bigger_chips_at_equal_time() {
        let small = ChipConfig::tile_16();
        let big = ChipConfig { mems_per_tile: 16, ..ChipConfig::tile_16().with_cores_per_tile(16) };
        let objective = Objective::EnergyDelay;
        assert!(objective.score(&big, 1_000.0, 1e-6) > objective.score(&small, 1_000.0, 1e-6));
        // ... while cycles ignores the configuration entirely.
        assert_eq!(Objective::Cycles.score(&big, 999.0, 1e-6), 999.0);
    }

    #[test]
    fn non_finite_scores_become_infinity() {
        let score = Objective::Speedup.score(&ChipConfig::tile_16(), 10.0, f64::NAN);
        assert_eq!(score, f64::INFINITY);
    }
}
