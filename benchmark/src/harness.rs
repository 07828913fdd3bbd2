//! What every workload shares: run parameters, the round schedule, repeated
//! set-up, and short best-of timing for the layer probes.

use crate::metrics::Measured;
use std::time::Instant;

/// Every timing metric is the median over this many identical rounds.
pub const ROUNDS: usize = 5;
/// `run_seconds` in `BENCHMARK.json`: op counts are calibrated (on the
/// 2-vCPU builder box) so that `ROUNDS` rounds take about this long, and
/// scale linearly with `--seconds`.
pub const CALIBRATED_SECONDS: f64 = 12.0;
pub const GIB: f64 = (1u64 << 30) as f64;

#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The self-tests' miniature pass: ~10 K rows, one round.
    pub mini: bool,
}

impl Params {
    /// Ops for one round given the calibrated rate `ops_per_second`,
    /// rounded up to a multiple of `multiple_of`.
    pub fn ops_per_round(&self, ops_per_second: f64, multiple_of: usize, mini_ops: usize) -> usize {
        if self.mini {
            return mini_ops;
        }
        let ops = (ops_per_second * self.seconds / ROUNDS as f64) as usize;
        ops.div_ceil(multiple_of).max(1) * multiple_of
    }

    /// Repetitions of a fixed pass, scaled the same way.
    pub fn passes(&self, at_calibration: usize) -> usize {
        if self.mini {
            return 1;
        }
        ((at_calibration as f64 * self.seconds / CALIBRATED_SECONDS).round() as usize).max(1)
    }

    /// Which rounds carry spans. Untraced runs: none. Traced runs alternate
    /// (U T U T U) so `bench.trace_overhead_ratio` compares like with like
    /// inside one process.
    pub fn round_is_traced(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    pub fn rounds(&self) -> usize {
        match (self.mini, self.trace) {
            (true, false) => 1,
            (true, true) => 2,
            (false, _) => ROUNDS,
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measured,
}

/// Set up for 4 s (at least three times, at most 400), keep the last fixture,
/// report the median seconds. Each fixture is dropped before the next is
/// built. The window is that long because this box changes speed for tenths
/// of a second at a time: `ingest`'s 12 ms set-up, sampled for 1.5 s, read
/// 13 ms in one pass and 20 ms in the next.
pub fn repeat_setup<T>(
    mini: bool,
    mut build: impl FnMut(usize) -> std::io::Result<T>,
) -> std::io::Result<(T, f64)> {
    let (min_reps, max_reps, min_total) = if mini { (1, 1, 0.0) } else { (3, 400, 4.0) };
    let mut times = Vec::new();
    let mut fixture = None;
    while times.len() < min_reps
        || (times.len() < max_reps && times.iter().sum::<f64>() < min_total)
    {
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(build(times.len())?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        fixture.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Best of `reps` timings of `f`, in seconds: the probes are short, single
/// threaded and deterministic, so the minimum is the least disturbed run.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}
