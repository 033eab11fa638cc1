//! Per-window statistics.
//!
//! A measured phase is cut into equal windows of wall time.  Each
//! end-to-end figure is computed per window (latency percentiles, completed
//! operations per second, server CPU per operation) and reported as the
//! median over the windows, so a burst of interference from outside the
//! benchmark — another tenant's job, a descheduled virtual CPU — that
//! covers less than half the phase cannot move it.

use crate::sched::{self, ThreadStat};
use crate::util::{median, now_ns, percentile};
use std::collections::BTreeMap;
use std::time::Duration;

pub type Snapshot = BTreeMap<u32, ThreadStat>;

/// Snapshots every thread's scheduler counters at `t0` and at each window
/// boundary up to `end`, sleeping in between; runs on the calling thread
/// while the generators run on theirs.
pub fn monitor(t0: u64, win_ns: u64, end: u64) -> Vec<Snapshot> {
    let sleep_until = |at: u64| {
        let now = now_ns();
        if at > now {
            std::thread::sleep(Duration::from_nanos(at - now));
        }
    };
    sleep_until(t0);
    let mut snaps = vec![sched::snapshot()];
    let mut k = 1;
    while t0 + k * win_ns <= end {
        sleep_until(t0 + k * win_ns);
        snaps.push(sched::snapshot());
        k += 1;
    }
    snaps
}

/// Sorted latencies of the operations that started in each window.
/// Samples are `(start ns, latency)`.
pub fn buckets(samples: &[(u64, f64)], t0: u64, win_ns: u64, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let Some(k) = t.checked_sub(t0).map(|d| (d / win_ns) as usize) else {
            continue;
        };
        if k < windows {
            out[k].push(v);
        }
    }
    for b in out.iter_mut() {
        b.sort_by(f64::total_cmp);
    }
    out
}

/// Median over windows of the `q` quantile of each window.
pub fn median_quantile(buckets: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(b, q))
        .collect();
    median(&per)
}

/// Median over windows of the mean of two operations' per-window p50s, so
/// each operation weighs half whatever its share of the samples.  Windows
/// where either operation has no sample are skipped.
pub fn median_mean_p50(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    t0: u64,
    win_ns: u64,
    windows: usize,
) -> f64 {
    let (a, b) = (
        buckets(a, t0, win_ns, windows),
        buckets(b, t0, win_ns, windows),
    );
    let per: Vec<f64> = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| !x.is_empty() && !y.is_empty())
        .map(|(x, y)| (percentile(x, 0.5) + percentile(y, 0.5)) / 2.0)
        .collect();
    median(&per)
}

/// The windowed end-to-end figures of one phase.
#[derive(Clone, Copy, Debug)]
pub struct Windowed {
    pub windows: usize,
    pub p50: f64,
    pub p99: f64,
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
}

pub fn summarize(samples: &[(u64, f64)], t0: u64, win_ns: u64, snaps: &[Snapshot]) -> Windowed {
    let windows = snaps.len().saturating_sub(1);
    let b = buckets(samples, t0, win_ns, windows);
    let win_s = win_ns as f64 / 1e9;
    let ops: Vec<f64> = b.iter().map(|w| w.len() as f64 / win_s).collect();
    let cpu: Vec<f64> = b
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.is_empty())
        .map(|(k, w)| {
            let ns: u64 = [sched::REACTOR, sched::DISPATCHER, sched::AUDIO]
                .iter()
                .map(|p| sched::group(&snaps[k], &snaps[k + 1], p).run_ns)
                .sum();
            ns as f64 / 1e3 / w.len() as f64
        })
        .collect();
    Windowed {
        windows,
        p50: median_quantile(&b, 0.5),
        p99: median_quantile(&b, 0.99),
        ops_per_s: median(&ops),
        cpu_us_per_op: median(&cpu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_in_one_window_does_not_move_the_median() {
        let win = 1_000u64;
        let mut samples: Vec<(u64, f64)> = (0..5_000u64).map(|i| (i, 10.0)).collect();
        // Window 2 is ruined by a stall.
        for s in samples.iter_mut().filter(|s| (2_000..3_000).contains(&s.0)) {
            s.1 = 5_000.0;
        }
        let b = buckets(&samples, 0, win, 5);
        assert_eq!(b.iter().map(Vec::len).collect::<Vec<_>>(), vec![1_000; 5]);
        assert_eq!(median_quantile(&b, 0.99), 10.0);
        assert_eq!(percentile(&b[2], 0.5), 5_000.0);
    }

    #[test]
    fn the_minority_operation_weighs_half() {
        // Per window: 90 fast calls of 10 and 10 slow calls of 100.  A pooled
        // median would read 10; the mean of the two medians reads 55.
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for w in 0..3u64 {
            fast.extend((0..90).map(|i| (w * 1_000 + i, 10.0)));
            slow.extend((0..10).map(|i| (w * 1_000 + i, 100.0)));
        }
        assert_eq!(median_mean_p50(&fast, &slow, 0, 1_000, 3), 55.0);
    }
}
