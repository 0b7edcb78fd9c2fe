//! Order statistics with the ten-samples-beyond rule.
//!
//! A tail percentile is only reported where at least ten samples lie
//! beyond it. When a run has too few samples for the percentile it asks
//! for, the highest percentile that still has ten samples beyond it is
//! used instead, and the percentile actually used is returned with the
//! sample count so every printed figure says what it is.

/// Samples a percentile must have beyond it.
pub const BEYOND: usize = 10;

/// One percentile read from a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile actually used, in `(0, 1]`.
    pub q: f64,
    /// Samples in the set.
    pub n: usize,
}

impl Pct {
    /// `p99.0 of 1234` — the percentile used and the sample count.
    pub fn describe(&self) -> String {
        format!("p{:.1} of {}", self.q * 100.0, self.n)
    }
}

/// Nearest-rank percentile `q` of `samples`, lowered until at least
/// [`BEYOND`] samples lie above it. `None` when fewer than `BEYOND + 1`
/// samples exist.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let k = (rank - 1).min(n - 1 - BEYOND);
    Some(Pct {
        value: sorted[k],
        q: (k + 1) as f64 / n as f64,
        n,
    })
}

/// Percentile `q` of each slice of samples, by [`percentile`]; returns
/// the median of the slices' values, the lowest percentile any slice
/// used, and the total count. `None` unless every slice has enough
/// samples.
///
/// The median over a fixed number of slices keeps one burst of
/// interference from another tenant, which lands in one slice, from
/// moving the figure, while a stall that recurs through the run still
/// shows. The slice count must not depend on throughput, or a faster
/// build would be read differently from a slower one.
pub fn median_slice_percentile(slices: &[Vec<f64>], q: f64) -> Option<Pct> {
    let per: Option<Vec<Pct>> = slices.iter().map(|s| percentile(s, q)).collect();
    let per = per.filter(|p| !p.is_empty())?;
    let values: Vec<f64> = per.iter().map(|p| p.value).collect();
    Some(Pct {
        value: median(&values)?,
        q: per.iter().map(|p| p.q).fold(1.0, f64::min),
        n: slices.iter().map(Vec::len).sum(),
    })
}

/// `samples` cut into `k` consecutive slices of equal length (at least
/// one slice); any remainder joins the last slice.
pub fn count_slices(samples: &[f64], k: usize) -> Vec<Vec<f64>> {
    let k = k.max(1);
    let len = samples.len() / k;
    (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * len
            };
            samples[i * len..end].to_vec()
        })
        .collect()
}

/// The median (mean of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Per-slice event rates (events per second): the span from the first
/// to the last of `stamps` (sorted) cut into `slices` equal slices, each
/// counting the stamps that fall in it.
pub fn slice_rates(stamps: &[std::time::Instant], slices: usize) -> Vec<f64> {
    let (Some(&first), Some(&last)) = (stamps.first(), stamps.last()) else {
        return Vec::new();
    };
    let span = (last - first).as_secs_f64();
    if span <= 0.0 || slices == 0 {
        return Vec::new();
    }
    let width = span / slices as f64;
    let mut counts = vec![0usize; slices];
    for t in stamps {
        let i = (((*t - first).as_secs_f64() / width) as usize).min(slices - 1);
        counts[i] += 1;
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// A rate over a run's phases: per phase, the median of [`slice_rates`]
/// over `slices_per_phase` slices (as for [`median_slice_percentile`]);
/// then the mean over the phases that ran.
pub fn phase_rate(stamps: &[Vec<std::time::Instant>], slices_per_phase: usize) -> Option<f64> {
    let per_phase: Vec<f64> = stamps
        .iter()
        .map(|s| slice_rates(s, slices_per_phase))
        .filter(|r| !r.is_empty())
        .filter_map(|r| median(&r))
        .collect();
    (!per_phase.is_empty()).then(|| per_phase.iter().sum::<f64>() / per_phase.len() as f64)
}
