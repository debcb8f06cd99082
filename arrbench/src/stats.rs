//! Latency summaries under the "ten beyond" rule: a tail percentile is
//! reported only when at least ten samples lie beyond it; otherwise the
//! summary falls back to the maximum and says so.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Window length of [`Summary::windowed`]: exactly ten samples lie beyond
/// the p99 of a full window.
pub const WINDOW: usize = 1000;

/// 1-based nearest rank of quantile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// Nearest-rank quantile of already sorted samples (0 for no samples).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(q, sorted.len()) - 1]
    }
}

/// Median of unsorted values (0 for none); the lower middle for even
/// counts, so the result is always one of the values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail a summary reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// A real p99: at least [`MIN_BEYOND`] samples lie beyond it.
    P99(f64),
    /// The median of the p99s of consecutive [`WINDOW`]-sample windows.
    WindowedP99 {
        /// The median window p99.
        value: f64,
        /// Full windows.
        windows: usize,
    },
    /// Too few samples for a p99: the maximum instead.
    Max(f64),
}

impl Tail {
    /// The reported tail value.
    pub fn value(self) -> f64 {
        match self {
            Tail::P99(v) | Tail::Max(v) | Tail::WindowedP99 { value: v, .. } => v,
        }
    }

    /// How the tail was taken, for the report.
    pub fn label(self) -> String {
        match self {
            Tail::P99(_) => "p99".into(),
            Tail::WindowedP99 { windows, .. } => {
                format!("median p99 of {windows} windows of {WINDOW} samples")
            }
            Tail::Max(_) => "max (too few samples for a p99)".into(),
        }
    }
}

/// Median and tail of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// p99, or the maximum when fewer than ten samples lie beyond the p99.
    pub tail: Tail,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = if beyond(0.99, n) >= MIN_BEYOND {
            Tail::P99(quantile_sorted(&sorted, 0.99))
        } else {
            Tail::Max(sorted.last().copied().unwrap_or(0.0))
        };
        Summary {
            n,
            p50: quantile_sorted(&sorted, 0.5),
            tail,
        }
    }

    /// [`Summary::of`], except that with at least two full windows of
    /// [`WINDOW`] consecutive samples the tail is the median of the
    /// windows' p99s: a single stall of the host moves it far less than
    /// it moves one p99 over the whole run.
    pub fn windowed(samples: &[f64]) -> Summary {
        let mut summary = Summary::of(samples);
        let windows = samples.len() / WINDOW;
        if windows >= 2 {
            let p99s: Vec<f64> = samples
                .chunks_exact(WINDOW)
                .map(|w| Summary::of(w).tail.value())
                .collect();
            summary.tail = Tail::WindowedP99 {
                value: median(&p99s),
                windows,
            };
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(0.99, 1000), 10);
        assert_eq!(beyond(0.99, 999), 9);
        assert_eq!(beyond(0.99, 0), 0);

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&thousand);
        assert_eq!(s.tail, Tail::P99(990.0));
        assert_eq!(s.p50, 500.0);

        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(Summary::of(&short).tail, Tail::Max(999.0));
    }

    #[test]
    fn summary_ignores_input_order_and_handles_empty() {
        let mut samples: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = Summary::of(&samples);
        samples.reverse();
        assert_eq!(a, Summary::of(&samples));
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.p50, empty.tail), (0, 0.0, Tail::Max(0.0)));
    }

    #[test]
    fn windowed_tail_takes_the_median_window_p99() {
        // Three windows whose p99s are 990, 1990 and 2990, then a partial
        // window that is ignored.
        let samples: Vec<f64> = (1..=3500).map(f64::from).collect();
        let s = Summary::windowed(&samples);
        assert_eq!(
            s.tail,
            Tail::WindowedP99 {
                value: 1990.0,
                windows: 3
            }
        );
        assert_eq!(s.n, 3500);
        // One window is not enough: the plain rule applies.
        let one: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(Summary::windowed(&one).tail, Summary::of(&one).tail);
    }

    #[test]
    fn median_is_one_of_the_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
