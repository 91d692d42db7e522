//! A log-linear latency histogram: every request's latency is kept to
//! within 0.2% in a fixed 135 KiB table, so a pooled quantile costs no
//! memory that grows with the request count (which would move
//! `peak_rss_mb` with throughput).

/// Values below `1 << SUB_BITS` get a bucket each; every power of two
/// above is cut into `1 << (SUB_BITS - 1)` equal buckets.
const SUB_BITS: u32 = 10;
const HALF: usize = 1 << (SUB_BITS - 1);
/// Buckets up to 2^40 ns (18 minutes).
const BUCKETS: usize = (41 - SUB_BITS as usize) * HALF + 2 * HALF;

#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// The bucket of `v` and the power-of-two shift of its width.
fn bucket(v: u64) -> (usize, u32) {
    if v < 1 << SUB_BITS {
        return (v as usize, 0);
    }
    let shift = 63 - v.leading_zeros() - (SUB_BITS - 1);
    (
        ((shift as usize) * HALF + (v >> shift) as usize).min(BUCKETS - 1),
        shift,
    )
}

/// The lowest value in bucket `index` and the bucket's width.
fn bounds(index: usize) -> (f64, f64) {
    if index < 1 << SUB_BITS {
        return (index as f64, 1.0);
    }
    let shift = index / HALF - 1;
    let offset = (index % HALF + HALF) as f64;
    let width = (1u64 << shift) as f64;
    (offset * width, width)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v).0] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The nearest-rank quantile `q` in `[0, 1]`, placed within its bucket
    /// by rank (the bucket's values taken as evenly spread).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            if below + count >= rank {
                let (low, width) = bounds(index);
                let within = (rank - below) as f64 - 0.5;
                return low + width * within / count as f64;
            }
            below += count;
        }
        unreachable!("rank is at most the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            1023,
            1024,
            1025,
            1535,
            1536,
            2047,
            2048,
            1 << 20,
            1 << 39,
        ] {
            let (index, _) = bucket(v);
            assert!(index >= last, "bucket order at {v}");
            last = index;
            let (low, width) = bounds(index);
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v} outside its bucket"
            );
            assert!(width / low.max(1.0) <= 1.0 / HALF as f64 || width == 1.0);
        }
    }

    #[test]
    fn quantiles_follow_the_values() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.003, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.003, "p99 {p99}");
    }
}
