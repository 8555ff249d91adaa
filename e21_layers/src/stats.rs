//! Percentiles, best-of-rounds, and the run-to-run spread.

/// A percentile is supported only when this many samples lie beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the two middle values of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// True when `n` samples leave at least [`MIN_SAMPLES_BEYOND`] beyond the
/// `q`-quantile, the rule under which a percentile may be reported.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    ((1.0 - q) * n as f64).floor() as usize >= MIN_SAMPLES_BEYOND
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two values");
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Which end of a run's rounds the host left undisturbed. A neighbour on
/// a shared host only ever adds time, so the quiet round is the fast one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quiet {
    /// Times: the lowest of the rounds.
    Low,
    /// Rates: the highest of the rounds.
    High,
}

/// A statistic computed round by round.
#[derive(Clone, Debug)]
pub struct OverRounds {
    /// The value of the quietest round: the reported number.
    pub value: f64,
    /// Quartiles of the round values, for the reader of the report.
    pub quartiles: [f64; 3],
    pub rounds: usize,
}

/// Best-of-rounds: a run is cut into rounds of about a second, each round
/// yields one value (the median latency of its requests, its throughput,
/// its reopen time), and the run reports the value of its fastest round.
///
/// The host is shared. Its neighbours slow the sandbox down in bursts of
/// seconds and in phases of minutes, and while they do, the same requests
/// take 1.1 to 1.8 times as long. The median of a run, of its rounds or of
/// all its requests, then reads the neighbours; so, in the measurements
/// this benchmark's README reports, does a quartile of the rounds, by half
/// as much. The fastest round is the one the neighbours left alone, and a
/// change to the program moves it like every other round.
pub fn over_rounds(per_round: &[f64], quiet: Quiet) -> OverRounds {
    assert!(!per_round.is_empty(), "a run has at least one round");
    let ordered = sorted(per_round);
    OverRounds {
        value: match quiet {
            Quiet::Low => ordered[0],
            Quiet::High => ordered[ordered.len() - 1],
        },
        quartiles: match per_round {
            [only] => [*only; 3],
            _ => quartiles(per_round),
        },
        rounds: per_round.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!percentile_supported(199, 0.95));
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(19, 0.50));
        assert!(percentile_supported(20, 0.50));
        // p99 would need a thousand samples; the benchmark stops at p95.
        assert!(!percentile_supported(999, 0.99));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_of_rounds_ignores_a_burst_over_most_of_the_run() {
        // Twelve rounds at 100 us; a neighbour doubles ten of them.
        let mut p50: Vec<f64> = vec![200.0; 12];
        let mut ops: Vec<f64> = vec![5_000.0; 12];
        for round in [4, 9] {
            p50[round] = 100.0;
            ops[round] = 10_000.0;
        }
        let latency = over_rounds(&p50, Quiet::Low);
        assert_eq!(latency.value, 100.0);
        assert_eq!(
            latency.quartiles, [200.0; 3],
            "the quartiles report the burst"
        );
        assert_eq!(latency.rounds, 12);
        assert_eq!(over_rounds(&ops, Quiet::High).value, 10_000.0);
    }

    #[test]
    fn a_single_round_reports_itself() {
        let one = over_rounds(&[7.0], Quiet::High);
        assert_eq!((one.value, one.quartiles, one.rounds), (7.0, [7.0; 3], 1));
        let two = over_rounds(&[3.0, 1.0], Quiet::Low);
        assert_eq!((two.value, two.quartiles), (1.0, quartiles(&[1.0, 3.0])));
    }
}
