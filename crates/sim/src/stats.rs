//! Simulation statistics: the fixed-bin histogram.
//!
//! Figures 14/15 of the paper plot binned histograms of per-instruction
//! cycle counts and Figures 12/13 per-resource work histograms; every
//! modelled unit records into a [`Histogram`] and the accelerator merges
//! them into its report.

use serde::{Deserialize, Serialize};

/// A fixed-bin histogram over `u64` samples (e.g. cycles-per-instruction).
///
/// Bins are `[0, width)`, `[width, 2·width)`, …; samples at or beyond the
/// last bin's lower bound are clamped into the final (overflow) bin, matching
/// the "475-500+" bins in the paper's CPI histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with `bin_count` bins of `bin_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0` or `bin_count == 0`.
    pub fn new(bin_width: u64, bin_count: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(bin_count > 0, "bin count must be positive");
        Histogram { bin_width, bins: vec![0; bin_count], count: 0, sum: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = ((sample / self.bin_width) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += sample;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bin counts normalised to percentages of all samples (the y-axis of
    /// Figures 14 and 15).
    pub fn percentages(&self) -> Vec<f64> {
        if self.count == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&b| b as f64 * 100.0 / self.count as f64).collect()
    }

    /// Labels of the bins, e.g. `"0-25"`, `"25-50"`, …, `"475-500+"`.
    pub fn bin_labels(&self) -> Vec<String> {
        (0..self.bins.len())
            .map(|i| {
                let lo = i as u64 * self.bin_width;
                let hi = lo + self.bin_width;
                if i + 1 == self.bins.len() {
                    format!("{lo}-{hi}+")
                } else {
                    format!("{lo}-{hi}")
                }
            })
            .collect()
    }

    /// Merges another histogram with identical bin geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bin width or bin count differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin widths must match to merge");
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts must match to merge");
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(25, 4); // bins: 0-25, 25-50, 50-75, 75-100+
        h.record(0);
        h.record(24);
        h.record(25);
        h.record(80);
        h.record(1000); // overflow clamps to last bin
        assert_eq!(h.bins, [2, 1, 0, 2]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let mut h = Histogram::new(10, 5);
        for v in [1, 2, 3, 15, 47] {
            h.record(v);
        }
        let total: f64 = h.percentages().iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_labels_mark_overflow_bin() {
        let h = Histogram::new(50, 3);
        assert_eq!(h.bin_labels(), vec!["0-50", "50-100", "100-150+"]);
    }

    #[test]
    fn histogram_mean_and_percentile() {
        let mut h = Histogram::new(10, 10);
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert!((h.mean() - 25.0).abs() < 1e-12);
        // A percentile is read off the cumulative percentages: the median
        // falls in the first bin where they reach 50, `20-30`.
        let cumulative: Vec<f64> = h
            .percentages()
            .iter()
            .scan(0.0, |sum, p| {
                *sum += p;
                Some(*sum)
            })
            .collect();
        assert_eq!(cumulative.iter().position(|&c| c >= 50.0), Some(2));
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentages(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        let _ = Histogram::new(0, 3);
    }
}
