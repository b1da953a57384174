//! Sample summaries: medians, supported tail percentiles, geometric means.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; below that the estimate is one or two outliers, not a
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Latency samples of one operation class.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        &self.values
    }

    /// Nearest-rank percentile (`q` in `0..=1`); 0 with no samples.
    pub fn percentile(&mut self, q: f64) -> f64 {
        let s = self.sorted();
        if s.is_empty() {
            return 0.0;
        }
        let rank = (q * s.len() as f64).ceil() as usize;
        s[rank.clamp(1, s.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }

    /// How many samples are `<= limit`.
    pub fn count_at_most(&self, limit: f64) -> usize {
        self.values.iter().filter(|v| **v <= limit).count()
    }

    /// The highest percentile (at most p99) this sample supports, and its
    /// value. See [`supported_tail`].
    pub fn tail(&mut self) -> (f64, f64) {
        let q = supported_tail(self.len());
        (q, self.percentile(q))
    }
}

/// The highest of p99/p95/p90/p75/p50 that still has
/// [`TAIL_MIN_BEYOND`] samples beyond it in a sample of `n`.
pub fn supported_tail(n: usize) -> f64 {
    // Integer percents: `n as f64 * (1.0 - 0.9)` rounds below 10 at n = 100.
    [99, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) / 100 >= TAIL_MIN_BEYOND)
        .map_or(0.5, |p| p as f64 / 100.0)
}

/// Latency samples stamped with when they were taken. The metrics most
/// exposed to a passing disturbance (tails, rates) are reported as the
/// median over [`WINDOWS`] equal time windows of the run, so one bad
/// stretch moves one window, not the result.
#[derive(Debug, Clone, Default)]
pub struct Timeline(Vec<(f64, f64)>);

pub const WINDOWS: usize = 4;

impl Timeline {
    /// Record `value`, taken `t` seconds into the measured span.
    pub fn push(&mut self, t: f64, value: f64) {
        self.0.push((t, value));
    }

    pub fn extend(&mut self, other: &Timeline) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Every value, without its time.
    pub fn values(&self) -> Samples {
        let mut all = Samples::new();
        for &(_, v) in &self.0 {
            all.push(v);
        }
        all
    }

    /// The samples of each of the [`WINDOWS`] windows of `[0, span)`.
    pub fn windows(&self, span: f64) -> Vec<Samples> {
        let mut windows = vec![Samples::new(); WINDOWS];
        for &(t, v) in &self.0 {
            let w = ((t / span * WINDOWS as f64) as usize).min(WINDOWS - 1);
            windows[w].push(v);
        }
        windows
    }

    /// Median over the windows of `f` of each window.
    pub fn windowed(&self, span: f64, f: impl FnMut(&mut Samples) -> f64) -> f64 {
        let values: Vec<f64> = self.windows(span).iter_mut().map(f).collect();
        median_of(&values)
    }

    /// The tail percentile a window supports, and the median over the
    /// windows of its value.
    pub fn windowed_tail(&self, span: f64) -> (f64, f64) {
        let q = supported_tail(self.len() / WINDOWS);
        (q, self.windowed(span, |w| w.percentile(q)))
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

/// Median of a small slice (set-up repeats, per-step values).
pub fn median_of(xs: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &x in xs {
        s.push(x);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(xs: impl IntoIterator<Item = u32>) -> Samples {
        let mut s = Samples::new();
        for x in xs {
            s.push(x as f64);
        }
        s
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = samples((1..=100).rev());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(Samples::new().median(), 0.0);
        // An even count takes the lower middle, never an interpolation.
        assert_eq!(samples([4, 1, 3, 2]).median(), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(40), 0.75);
        assert_eq!(supported_tail(39), 0.5);
        let mut s = samples(1..=2000);
        assert_eq!(s.tail(), (0.99, 1980.0));
        assert_eq!(s.len(), 2000);
    }

    #[test]
    fn timeline_reports_the_median_window() {
        // Four windows of 1000 samples; the third is disturbed.
        let mut t = Timeline::default();
        for i in 0..4000 {
            let disturbed = (2000..3000).contains(&i);
            t.push(
                i as f64 / 100.0,
                if disturbed { 50.0 } else { (i % 100) as f64 },
            );
        }
        let sizes: Vec<usize> = t.windows(40.0).iter().map(Samples::len).collect();
        assert_eq!(sizes, vec![1000; 4]);
        // p99 of a quiet window is 98; the disturbed window does not move it.
        assert_eq!(t.windowed_tail(40.0), (0.99, 98.0));
        assert_eq!(t.windowed(40.0, |w| w.len() as f64), 1000.0);
        // A sample on the far edge lands in the last window, not past it.
        let mut edge = Timeline::default();
        edge.push(40.0, 1.0);
        assert_eq!(edge.windows(40.0)[WINDOWS - 1].len(), 1);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
