//! The benchmark's own arithmetic: medians, the percentile rule, the
//! warm-up cut, span subtraction and the failed-cycle share. Kept free
//! of the program's types so every rule is unit-tested on its own.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The nearest-rank `q`-percentile of `values`, reported only when at
/// least `min_beyond` samples lie strictly beyond its rank, so a tail
/// figure always rests on enough samples to mean something.
pub fn percentile_with_tail(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let beyond = v.len() - rank;
    (beyond >= min_beyond).then(|| v[rank - 1])
}

/// Warm-up cut for per-cycle samples, read off the job population each
/// decision saw: steady state starts at the first cycle whose population
/// reaches the run's median population. Cycles before the cut are
/// dropped; the cut is 0 for an empty series.
pub fn warmup_cut(population: &[usize]) -> usize {
    let as_f64: Vec<f64> = population.iter().map(|&p| p as f64).collect();
    match median(&as_f64) {
        None => 0,
        Some(m) => population.iter().position(|&p| p as f64 >= m).unwrap_or(0),
    }
}

/// Totals of one span name over a run, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTimes {
    /// Completed spans.
    pub count: u64,
    /// Wall time inside the span, children included.
    pub total_us: u64,
    /// Wall time inside the span minus its children's.
    pub self_us: u64,
}

impl SpanTimes {
    /// Time spent in the span's children.
    pub fn children_us(&self) -> u64 {
        self.total_us.saturating_sub(self.self_us)
    }
}

/// Wall time not covered by the named spans' self times: what is left of
/// `wall_us` after every attributed microsecond is taken away. Self times
/// of nested spans never overlap, so their sum is the spanned time.
pub fn remainder_us(wall_us: u64, named: &[SpanTimes]) -> i64 {
    let spanned: u64 = named.iter().map(|s| s.self_us).sum();
    wall_us as i64 - spanned as i64
}

/// Control cycles that failed in one run. `expected` is the number of
/// cycles the horizon schedules, `flagged[i]` whether decided cycle `i`
/// broke an invariant. When the run returned `Err`, the last decided
/// cycle was in flight and is counted failed along with every cycle the
/// run never reached.
pub fn failed_cycles(expected: usize, flagged: &[bool], errored: bool) -> usize {
    let decided = flagged.len();
    if !errored {
        return flagged.iter().filter(|&&f| f).count();
    }
    let settled = decided.saturating_sub(1);
    let flagged_settled = flagged[..settled].iter().filter(|&&f| f).count();
    flagged_settled + expected.saturating_sub(settled)
}

/// Number of control cycles a horizon schedules: one at t = 0 and one
/// every period up to and including the horizon.
pub fn expected_cycles(period_secs: f64, horizon_secs: f64) -> usize {
    (horizon_secs / period_secs + 1e-9).floor() as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 0.9, 10), Some(90.0));
        // 99 samples: rank 90 (ceil 89.1) leaves only 9 beyond.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 0.9, 10), None);
        // The median of the same 99 has 49 beyond.
        assert_eq!(percentile_with_tail(&v, 0.5, 10), Some(50.0));
    }

    #[test]
    fn percentile_is_order_free() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile_with_tail(&v, 0.5, 10), Some(100.0));
        assert_eq!(percentile_with_tail(&v, 0.9, 10), Some(180.0));
        assert_eq!(percentile_with_tail(&[], 0.5, 0), None);
    }

    #[test]
    fn warmup_cut_starts_at_the_median_population() {
        // Ramp 0..=9 then a plateau of 10: median is 10, first reached at 10.
        let mut pop: Vec<usize> = (0..10).collect();
        pop.extend([10; 11]);
        assert_eq!(warmup_cut(&pop), 10);
        // Already steady from the start.
        assert_eq!(warmup_cut(&[5, 5, 5]), 0);
        assert_eq!(warmup_cut(&[]), 0);
    }

    #[test]
    fn self_time_and_remainder_subtract_exactly() {
        // cycle 1000 µs total, of which 300 µs its own; a child solve of
        // 700 µs total has 200 µs self and a 500 µs equalize leaf.
        let cycle = SpanTimes {
            count: 1,
            total_us: 1000,
            self_us: 300,
        };
        let solve = SpanTimes {
            count: 1,
            total_us: 700,
            self_us: 200,
        };
        let equalize = SpanTimes {
            count: 1,
            total_us: 500,
            self_us: 500,
        };
        assert_eq!(cycle.children_us(), 700);
        assert_eq!(solve.children_us(), equalize.total_us);
        // A 1500 µs run: the 500 µs outside the cycle is the remainder.
        assert_eq!(remainder_us(1500, &[cycle, solve, equalize]), 500);
        // Leaving a span unnamed shows up in the remainder.
        assert_eq!(remainder_us(1500, &[cycle, solve]), 1000);
    }

    #[test]
    fn failed_share_counts_flags_and_everything_after_an_err() {
        // Clean run: only flagged cycles fail.
        assert_eq!(
            failed_cycles(5, &[false, true, false, false, false], false),
            1
        );
        // Err while cycle 2 was in flight out of 10: cycles 2..10 fail,
        // plus the flag on cycle 1.
        assert_eq!(failed_cycles(10, &[false, true, false], true), 9);
        // Err before any decision: every cycle fails.
        assert_eq!(failed_cycles(4, &[], true), 4);
    }

    #[test]
    fn expected_cycles_include_both_ends() {
        assert_eq!(expected_cycles(600.0, 1200.0), 3);
        assert_eq!(expected_cycles(600.0, 72_000.0), 121);
        assert_eq!(expected_cycles(120.0, 12_600.0), 106);
        assert_eq!(expected_cycles(600.0, 1000.0), 2);
    }
}
