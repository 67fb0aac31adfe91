//! Scheduling and batching policies for the serving queue.

/// Default maximum batch size of [`Policy::BatchByDataset`].
pub const DEFAULT_MAX_BATCH: usize = 8;

/// Default batching timeout of [`Policy::BatchByDataset`], in seconds: how
/// long the oldest queued request of a class may wait before its partial
/// batch is flushed.
pub(crate) const DEFAULT_BATCH_TIMEOUT_S: f64 = 0.005;

/// How queued requests are ordered and grouped into dispatch units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// First-in-first-out: requests dispatch one at a time in arrival order.
    Fifo,
    /// Shortest-job-first: the queued request with the smallest estimated
    /// work (`WorkloadProfile::flops` of its class) dispatches next, ties
    /// broken by arrival order.
    Sjf,
    /// Group queued requests of the same class (dataset × shrink) into
    /// batches: a batch dispatches once it reaches `max_batch` requests or
    /// its oldest member has waited `timeout_s`.
    BatchByDataset {
        /// Largest number of requests a batch may carry.
        max_batch: usize,
        /// Longest time the oldest member of a partial batch may wait.
        timeout_s: f64,
    },
}

impl Policy {
    /// A batching policy with explicit knobs.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch == 0` or `timeout_s` is negative or non-finite.
    pub fn batch(max_batch: usize, timeout_s: f64) -> Self {
        assert!(max_batch >= 1, "a batch carries at least one request");
        assert!(timeout_s.is_finite() && timeout_s >= 0.0, "batch timeout must be non-negative");
        Policy::BatchByDataset { max_batch, timeout_s }
    }

    /// Parses a policy name (`"fifo"`, `"sjf"`, `"batch"` with the default
    /// knobs; case-insensitive).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.to_ascii_lowercase().as_str() {
            "fifo" => Some(Policy::Fifo),
            "sjf" => Some(Policy::Sjf),
            "batch" => Some(Policy::batch(DEFAULT_MAX_BATCH, DEFAULT_BATCH_TIMEOUT_S)),
            _ => None,
        }
    }

    /// Short name used in run IDs (`"fifo"`, `"sjf"`, `"batch8"`).
    pub fn name(&self) -> String {
        match self {
            Policy::Fifo => "fifo".to_string(),
            Policy::Sjf => "sjf".to_string(),
            Policy::BatchByDataset { max_batch, .. } => format!("batch{max_batch}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_the_three_policies() {
        assert_eq!(Policy::parse("fifo"), Some(Policy::Fifo));
        assert_eq!(Policy::parse("SJF"), Some(Policy::Sjf));
        assert_eq!(
            Policy::parse("batch"),
            Some(Policy::BatchByDataset {
                max_batch: DEFAULT_MAX_BATCH,
                timeout_s: DEFAULT_BATCH_TIMEOUT_S
            })
        );
        assert_eq!(Policy::parse("round-robin"), None);
    }

    #[test]
    fn names_encode_the_batch_size() {
        assert_eq!(Policy::Fifo.name(), "fifo");
        assert_eq!(Policy::Sjf.name(), "sjf");
        assert_eq!(Policy::batch(16, 0.01).name(), "batch16");
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_max_batch_is_rejected() {
        Policy::batch(0, 0.01);
    }
}
