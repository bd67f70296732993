//! Sample statistics: percentiles, the Lindley capacity replay, and the
//! FNV-1a digest used to show two runs produced the same bytes.

use esched_obs::stats::percentile_sorted;

/// Nearest-rank percentile `p` (0–100) of an unsorted sample; 0 for an
/// empty one.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median (nearest rank, so always one of the samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sojourn times (wait + service) of a single FIFO server fed one request
/// every `interval` seconds, by Lindley's recursion
/// `W₀ = 0, W_{k+1} = max(0, W_k + s_k − interval)`.
pub fn lindley_sojourn(service: &[f64], interval: f64) -> Vec<f64> {
    let mut wait = 0.0_f64;
    service
        .iter()
        .map(|&s| {
            let sojourn = wait + s;
            wait = (sojourn - interval).max(0.0);
            sojourn
        })
        .collect()
}

/// Whether a server with these measured service times (seconds) keeps up
/// with a fixed `rate` (requests/s): the `pct` percentile of the replayed
/// sojourn stays within `limit`, and the backlog does not grow — the
/// server is busy less than all of the time, and the wait it ends the
/// replay with is no larger than the limit.
fn sustains(service: &[f64], rate: f64, pct: f64, limit: f64) -> bool {
    let interval = 1.0 / rate;
    let sojourn = lindley_sojourn(service, interval);
    let busy = mean(service) / interval;
    let last = sojourn.last().copied().unwrap_or(0.0);
    busy < 1.0 && last <= limit && percentile(&sojourn, pct) <= limit
}

/// The highest fixed arrival rate (requests/s) that [`sustains`] the
/// latency `limit` (seconds) at percentile `pct`, found by bisection to
/// 0.01 requests/s; 0 when even the first request alone breaks the limit.
/// Waits only grow as arrivals come closer together, so the predicate is
/// monotone in the rate and bisection is exact to its resolution.
pub fn max_sustainable_rate(service: &[f64], pct: f64, limit: f64) -> f64 {
    let total: f64 = service.iter().sum();
    if service.is_empty() || total <= 0.0 || !sustains(service, 1e-9, pct, limit) {
        return 0.0;
    }
    // At this rate the server would be busy all of the time.
    let (mut lo, mut hi) = (0.0, service.len() as f64 / total);
    while hi - lo > 0.01 {
        let mid = 0.5 * (lo + hi);
        if sustains(service, mid, pct, limit) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as printed in reports.
    pub fn hex(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&s), 5.0);
        assert_eq!(percentile(&s, 80.0), 8.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn lindley_matches_a_hand_worked_queue() {
        // Arrivals every 2 s; services 3, 1, 4, 1:
        // k=0 waits 0 → sojourn 3, carries 3−2 = 1;
        // k=1 waits 1 → sojourn 2, carries 0;
        // k=2 waits 0 → sojourn 4, carries 2;
        // k=3 waits 2 → sojourn 3.
        assert_eq!(
            lindley_sojourn(&[3.0, 1.0, 4.0, 1.0], 2.0),
            vec![3.0, 2.0, 4.0, 3.0]
        );
    }

    #[test]
    fn max_rate_bisects_to_the_limit() {
        // Constant 10 ms service, 20 ms limit: any rate below 100/s keeps
        // every sojourn at exactly 10 ms, and 100/s is saturation.
        let service = vec![0.010; 200];
        let rate = max_sustainable_rate(&service, 99.0, 0.020);
        assert!((99.9..100.0).contains(&rate), "rate {rate}");
        // A limit below the service time itself admits no rate.
        assert_eq!(max_sustainable_rate(&service, 99.0, 0.005), 0.0);
        // One slow request: 30 ms against a 20 ms limit at p99 of 100
        // samples is the single sample beyond p99, so it is tolerated, but
        // its backlog spills into the next request once arrivals come
        // closer than 20 ms apart.
        let mut bursty = vec![0.010; 100];
        bursty[50] = 0.030;
        let rate = max_sustainable_rate(&bursty, 99.0, 0.020);
        assert!((49.9..50.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn fnv1a_known_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv1a::default();
            h.write(s.as_bytes());
            h.hex()
        };
        assert_eq!(digest(""), "fnv1a64:cbf29ce484222325");
        assert_eq!(digest("a"), "fnv1a64:af63dc4c8601ec8c");
        assert_eq!(digest("foobar"), "fnv1a64:85944171f73967e8");
    }
}
