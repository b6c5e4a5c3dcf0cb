//! The benchmark's statistics: percentiles with the sample-count rule,
//! server histogram deltas, and span self time.

use ft_metrics::HistogramSnapshot;

/// Samples a percentile needs beyond it before it is reported: a p90
/// needs 100 samples, a p99 1000.
pub const MIN_BEYOND: usize = 10;

/// One distribution of measurements, in the unit they were taken in.
/// A failed operation is recorded as `+∞`, so it misses every latency
/// limit and pushes the percentiles it lands above.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn push_failed(&mut self) {
        self.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile: the `⌈q·n⌉`-th smallest sample. `None`
    /// when fewer than [`MIN_BEYOND`] samples lie above that rank, so a
    /// reported percentile always rests on at least ten slower samples.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = nearest_rank(q, n)?;
        if n - rank < MIN_BEYOND {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }

    pub fn max(&mut self) -> Option<f64> {
        self.sort();
        self.values.last().copied()
    }
}

/// Middle value (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A run's percentile from its per-round samples (rounds in time order),
/// and the number of blocks it was averaged over.
///
/// The host's speed switches between levels every few seconds, so the
/// percentile of any stretch of time depends on how much of it fell in a
/// slow spell. The rounds are grouped into as many consecutive blocks as
/// still let every block support the percentile on its own; each block's
/// percentile is taken, the fastest and slowest fifth of the blocks are
/// dropped, and the rest are averaged. One block gives the percentile of
/// all samples pooled. A block whose percentile failed requests pushed
/// to `+∞` makes the estimate `+∞`: trimming never hides a failure.
pub fn estimate(rounds: &[Samples], q: f64) -> Option<(f64, usize)> {
    let n = rounds.len();
    (1..=n).rev().find_map(|k| {
        let mut blocks = (0..k)
            .map(|b| {
                let mut block = Samples::default();
                for round in &rounds[b * n / k..(b + 1) * n / k] {
                    block.extend(round);
                }
                block.quantile(q)
            })
            .collect::<Option<Vec<f64>>>()?;
        if blocks.iter().any(|b| b.is_infinite()) {
            return Some((f64::INFINITY, k));
        }
        blocks.sort_by(f64::total_cmp);
        let kept = &blocks[k / 5..k - k / 5];
        Some((kept.iter().sum::<f64>() / kept.len() as f64, k))
    })
}

/// 1-based rank of the `q` percentile among `n` samples.
fn nearest_rank(q: f64, n: usize) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

/// Bucket-wise difference `after − before` of two exports of the same
/// server histogram (sparse `(bucket, count)` lists, as `/metrics?buckets=1`
/// writes them). Exported quantiles are cumulative since the server
/// started, so only a delta isolates one phase of a run. Errors if a
/// bucket shrank, which would mean the two exports are not of one
/// histogram.
pub fn bucket_delta(
    before: &[(usize, u64)],
    after: &[(usize, u64)],
) -> Result<Vec<(usize, u64)>, String> {
    let mut delta = Vec::with_capacity(after.len());
    let mut earlier = before.iter().peekable();
    for &(bucket, count) in after {
        let mut base = 0;
        while let Some(&&(b, c)) = earlier.peek() {
            if b > bucket {
                break;
            }
            earlier.next();
            if b == bucket {
                base = c;
            } else {
                return Err(format!("bucket {b} vanished between exports"));
            }
        }
        match count.checked_sub(base) {
            Some(0) => {}
            Some(d) => delta.push((bucket, d)),
            None => return Err(format!("bucket {bucket} shrank from {base} to {count}")),
        }
    }
    if let Some(&(b, _)) = earlier.next() {
        return Err(format!("bucket {b} vanished between exports"));
    }
    Ok(delta)
}

/// `[lower, lower + width)` of bucket `i` in the server histograms'
/// log-linear layout: values below 64 get exact buckets, and each octave
/// above is split into 64 equal slices (`ft_metrics::histogram`;
/// `bucket_layout_matches_ft_metrics` pins the two together).
fn bucket_bounds(i: usize) -> (f64, f64) {
    const SUB: usize = 64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let octave = (i / SUB - 1) as u32;
    let offset = (i % SUB) as u64;
    (
        ((SUB as u64 + offset) << octave) as f64,
        (1u64 << octave) as f64,
    )
}

/// Quantile of a histogram delta, in the histogram's unit (ns for the
/// server's timings), with the [`MIN_BEYOND`] rule applied to the
/// delta's sample count. The rank is placed inside its bucket by linear
/// interpolation, so the value moves with the data instead of snapping
/// to a bucket midpoint (a lone sample still reads as the midpoint).
/// Returns `(count, value)`.
pub fn delta_quantile(delta: &[(usize, u64)], q: f64) -> Result<(u64, Option<f64>), String> {
    let snapshot = HistogramSnapshot::from_sparse(delta, 0, 0, 0)?;
    let n = snapshot.count;
    let Some(rank) = nearest_rank(q, n as usize).filter(|&r| n as usize - r >= MIN_BEYOND) else {
        return Ok((n, None));
    };
    let mut buckets = delta.to_vec();
    buckets.sort_unstable();
    let mut seen = 0;
    for (bucket, count) in buckets {
        if seen + count >= rank as u64 {
            let (lower, width) = bucket_bounds(bucket);
            let within = (rank as u64 - seen) as f64 - 0.5;
            return Ok((n, Some(lower + width * within / count as f64)));
        }
        seen += count;
    }
    unreachable!("rank {rank} lies within the {n} samples")
}

/// One span as the traced run sees it: an interval and its parent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanTime {
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent and
/// overlaps counted once). Output is in input order.
pub fn self_times(spans: &[SpanTime]) -> Vec<u64> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == span.id && c.id != span.id)
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.end_ns.saturating_sub(span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::default();
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = ramp(200);
        assert_eq!(s.quantile(0.5), Some(100.0));
        assert_eq!(s.quantile(0.9), Some(180.0));
        assert_eq!(s.max(), Some(200.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90, with exactly ten above it.
        assert_eq!(ramp(100).quantile(0.9), Some(90.0));
        // One sample fewer leaves only nine above rank 89.
        assert_eq!(ramp(99).quantile(0.9), None);
        assert_eq!(ramp(999).quantile(0.99), None);
        assert_eq!(ramp(1000).quantile(0.99), Some(990.0));
        assert_eq!(ramp(19).quantile(0.5), None);
        assert_eq!(ramp(20).quantile(0.5), Some(10.0));
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn estimate_averages_blocks_without_the_extremes() {
        // Ten rounds of 100; one spoiled by a slow spell of the host.
        let mut rounds: Vec<Samples> = (0..10).map(|_| ramp(100)).collect();
        for v in 1..=100 {
            rounds[2].push(1000.0 + v as f64);
        }
        // Ten blocks; the spoiled one is among the two slowest dropped.
        assert_eq!(estimate(&rounds, 0.5), Some((50.0, 10)));
        // Fifty samples a round: a p90 needs two rounds per block.
        let halves: Vec<Samples> = (0..10).map(|_| ramp(50)).collect();
        assert_eq!(estimate(&halves, 0.9), Some((45.0, 5)));
        // Fifteen a round: only all 150 pooled support a p90.
        let small: Vec<Samples> = (0..10).map(|_| ramp(15)).collect();
        assert_eq!(estimate(&small, 0.9), Some((14.0, 1)));
        assert_eq!(estimate(&small[..6], 0.9), None);
        assert_eq!(estimate(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn failed_operations_miss_every_limit() {
        // Twelve failures above 100 good samples reach past the p90 rank.
        let mut s = ramp(100);
        for _ in 0..12 {
            s.push_failed();
        }
        assert_eq!(s.len(), 112);
        assert_eq!(s.quantile(0.9), Some(f64::INFINITY));
        assert_eq!(s.quantile(0.5), Some(56.0));
        // Failures confined to one of ten blocks push only that block's
        // percentile to +∞; the slowest fifth would be trimmed, but the
        // estimate must still miss every limit.
        let mut rounds: Vec<Samples> = (0..10).map(|_| ramp(100)).collect();
        for _ in 0..120 {
            rounds[4].push_failed();
        }
        assert_eq!(estimate(&rounds, 0.5), Some((f64::INFINITY, 10)));
        // Too few failures to reach a block's percentile only shift it.
        let mut rounds: Vec<Samples> = (0..10).map(|_| ramp(100)).collect();
        rounds[4].push_failed();
        assert_eq!(estimate(&rounds, 0.5), Some((50.0, 10)));
    }

    #[test]
    fn bucket_delta_isolates_one_phase() {
        let before = [(3, 5), (70, 2)];
        let after = [(3, 5), (10, 4), (70, 9), (80, 1)];
        assert_eq!(
            bucket_delta(&before, &after).unwrap(),
            vec![(10, 4), (70, 7), (80, 1)]
        );
        assert!(bucket_delta(&[(3, 5)], &[(3, 4)]).is_err());
        assert!(bucket_delta(&[(3, 5)], &[(4, 4)]).is_err());
        assert!(bucket_delta(&[(3, 5)], &[]).is_err());
    }

    #[test]
    fn delta_quantile_ignores_samples_before_the_phase() {
        // The set-up phase recorded 1000 slow samples; the timed phase
        // 100 fast ones. Only the delta's quantile describes the phase.
        let h = ft_metrics::Histogram::new();
        for _ in 0..1000 {
            h.record(1_000_000);
        }
        let before = h.snapshot().sparse_buckets();
        for v in 1..=100 {
            h.record(v);
        }
        let after = h.snapshot().sparse_buckets();
        let delta = bucket_delta(&before, &after).unwrap();
        // Values below 64 sit in exact buckets, one sample each.
        assert_eq!(delta_quantile(&delta, 0.5).unwrap(), (100, Some(50.5)));
        let (count, p90) = delta_quantile(&delta, 0.9).unwrap();
        assert_eq!(count, 100);
        let p90 = p90.unwrap();
        assert!((p90 - 90.0).abs() <= 90.0 * ft_metrics::Histogram::REL_ERROR);
        // Ninety-nine samples cannot support a p90.
        let (_, short) = delta_quantile(&delta[1..], 0.9).unwrap();
        assert_eq!(short, None);
        // The cumulative export would have answered with the set-up's value.
        let whole = h.snapshot().quantile(0.5).unwrap() as f64;
        assert!(whole > 900_000.0);
    }

    #[test]
    fn bucket_layout_matches_ft_metrics() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            3_696,
            123_456,
            10_000_000,
            1 << 40,
        ] {
            let h = ft_metrics::Histogram::new();
            h.record(v);
            let snapshot = h.snapshot();
            let [(bucket, 1)] = snapshot.sparse_buckets()[..] else {
                panic!("one sample, one bucket");
            };
            let (lower, width) = bucket_bounds(bucket);
            assert!(
                lower <= v as f64 && (v as f64) < lower + width,
                "{v} outside bucket {bucket}"
            );
            let (_, mid) = delta_quantile(&[(bucket, 1)], 0.0).unwrap();
            assert_eq!(mid, None, "one sample supports no percentile");
            assert_eq!(
                lower + (width / 2.0).floor(),
                snapshot.quantile(0.5).unwrap() as f64
            );
        }
        // Twenty samples in one bucket spread evenly across its width.
        let (lower, width) = bucket_bounds(100);
        let (_, p50) = delta_quantile(&[(100, 20)], 0.5).unwrap();
        assert_eq!(p50, Some(lower + width * 9.5 / 20.0));
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |id, parent, start_ns, end_ns| SpanTime {
            id,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..40 once, not 45 ns.
            span(2, 1, 10, 35),
            span(3, 1, 20, 40),
            // A grandchild counts against its parent (2), not the root.
            span(4, 2, 12, 20),
            // A child running past its parent's end is clipped.
            span(5, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 25 - 8, 20, 8, 40]);
    }
}
