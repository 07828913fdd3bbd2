//! The closed-loop load generator: `CONNECTIONS` client threads, each keeping
//! at most `depth` requests in flight and sending the next one only when a
//! reply has been received and verified. Closed loop on purpose: on a 2-vCPU
//! box an open-loop tail measures thread wake-ups, not the program.

use crate::harness::Params;
use crate::layers::server::{recv, Client, Reply};
use crate::metrics::Measured;
use crate::stats;
use crate::trace::{Recorder, Span};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// One connection's view of a workload: how to render an op and how to
/// check its reply against the oracle. Replies arrive in request order.
pub trait Conn: Send {
    type Op: Sync;
    fn command(&mut self, op: &Self::Op, out: &mut String);
    /// Called once per op, in order, with a `200` reply.
    fn verify(&mut self, op: &Self::Op, reply: &Reply) -> bool;
}

/// What one round (or one in-process pass) measured.
#[derive(Default)]
pub struct Round {
    pub ops: u64,
    pub failed: u64,
    /// Wall time of the round (served) or summed op time (in-process).
    pub seconds: f64,
    pub lat_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Round {
    pub fn ops_s(&self) -> f64 {
        self.ops as f64 / self.seconds.max(1e-9)
    }
}

/// Medians over rounds of throughput and of each round's own p50 and tail.
pub struct RoundsSummary {
    pub ops_s: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// (max − min) ÷ median of the per-round `ops_s`.
    pub round_spread: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The measured rounds of one pass.
pub struct Rounds {
    pub summary: RoundsSummary,
    /// Spans of the traced rounds (empty in an untraced pass).
    pub spans: Vec<Span>,
    /// 1 − traced ÷ untraced `ops_s`, detrended (`trace_overhead`).
    pub trace_overhead: f64,
    /// Summed `Round::seconds`.
    pub seconds: f64,
}

/// Run the pass's rounds: `one(round, trace)` plays round `round`, leaving a
/// span per op when `trace` carries the span epoch. Which rounds are traced
/// is `Params::round_is_traced`'s decision.
pub fn run_rounds(
    p: &Params,
    epoch: Instant,
    mut one: impl FnMut(usize, Option<Instant>) -> Round,
) -> Rounds {
    let mut tput: Vec<(bool, f64)> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    for r in 0..p.rounds() {
        let is_traced = p.round_is_traced(r);
        let round = one(r, is_traced.then_some(epoch));
        tput.push((is_traced, round.ops_s()));
        rounds.push(round);
    }
    Rounds {
        spans: rounds
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.spans))
            .collect(),
        seconds: rounds.iter().map(|r| r.seconds).sum(),
        trace_overhead: trace_overhead(&tput),
        summary: summarize(&mut rounds),
    }
}

/// 1 − traced ÷ untraced `ops_s`, from `(is_traced, ops_s)` in round order.
/// Each traced round is held against the mean of the untraced rounds next to
/// it, so a trend across the rounds cancels (`ingest` slows as its table
/// grows, and a plain ratio of medians read that trend as −7 % "overhead").
fn trace_overhead(rounds: &[(bool, f64)]) -> f64 {
    let ratios: Vec<f64> = rounds
        .iter()
        .enumerate()
        .filter(|(_, round)| round.0)
        .filter_map(|(i, &(_, traced))| {
            let neighbours: Vec<f64> = [i.checked_sub(1), Some(i + 1)]
                .into_iter()
                .flatten()
                .filter_map(|j| rounds.get(j))
                .filter(|round| !round.0)
                .map(|round| round.1)
                .collect();
            let untraced = stats::mean(&neighbours);
            (untraced > 0.0).then(|| traced / untraced)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        1.0 - stats::mean(&ratios)
    }
}

impl Rounds {
    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, setup_s: f64, stored_bytes_per_user_byte: f64) -> Measured {
        let mut m = Measured::default();
        m.set("setup_s", setup_s);
        m.set("ops_s", self.summary.ops_s);
        m.set("lat_p50_us", self.summary.lat_p50_us);
        m.set("lat_p99_us", self.summary.lat_p99_us);
        m.set("stored_bytes_per_user_byte", stored_bytes_per_user_byte);
        m.set("peak_rss_mb", crate::sys::peak_rss_mb());
        m
    }

    /// The harness diagnostics of a traced pass.
    pub fn diagnostics(&self, m: &mut Measured) {
        m.set("bench.trace_overhead_ratio", self.trace_overhead);
        m.set("bench.round_spread", self.summary.round_spread);
    }
}

fn summarize(rounds: &mut [Round]) -> RoundsSummary {
    let mut tput = Vec::new();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for r in rounds.iter_mut() {
        r.lat_ns.sort_unstable();
        tput.push(r.ops_s());
        p50.push(stats::percentile(&r.lat_ns, 0.50) as f64 / 1e3);
        p99.push(stats::tail(&r.lat_ns, 0.99) as f64 / 1e3);
    }
    eprintln!("rounds: ops_s {tput:.0?} p50_us {p50:.0?} p99_us {p99:.0?}");
    RoundsSummary {
        ops_s: stats::median(&tput),
        lat_p50_us: stats::median(&p50),
        lat_p99_us: stats::median(&p99),
        round_spread: stats::spread(&tput),
        attempted: rounds.iter().map(|r| r.ops).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
    }
}

/// Run one round: connection `c` plays `ops[c]` at pipelining depth `depth`.
/// `acked[c]` is kept at the number of verified replies of connection `c`.
/// With `trace`, every op also leaves a span (children of one round span).
pub fn run_round<C: Conn>(
    addr: SocketAddr,
    conns: &mut [C],
    ops: &[&[C::Op]],
    depth: usize,
    acked: &[AtomicU64],
    trace: Option<Instant>,
) -> Round {
    let barrier = Barrier::new(conns.len() + 1);
    let mut round = Round::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, ops, acked) = (&barrier, ops[c], &acked[c]);
                scope.spawn(move || {
                    let client = Client::connect(addr);
                    barrier.wait();
                    let epoch = trace.unwrap_or_else(Instant::now);
                    let mut rec = trace.map(|_| Recorder::new(epoch, c as u32 + 1));
                    let mut out = Round::default();
                    match client {
                        Ok(mut client) => {
                            let rec = rec.as_mut();
                            drive(&mut client, conn, ops, depth, acked, epoch, rec, &mut out)
                        }
                        Err(_) => out.failed = ops.len() as u64,
                    }
                    out.ops = ops.len() as u64;
                    out.spans = rec.map_or_else(Vec::new, |r| r.spans);
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            let part = handle.join().expect("load connection does not panic");
            round.ops += part.ops;
            round.failed += part.failed;
            round.lat_ns.extend(part.lat_ns);
            round.spans.extend(part.spans);
        }
        round.seconds = start.elapsed().as_secs_f64();
    });
    round
}

#[allow(clippy::too_many_arguments)]
fn drive<C: Conn>(
    client: &mut Client,
    conn: &mut C,
    ops: &[C::Op],
    depth: usize,
    acked: &AtomicU64,
    epoch: Instant,
    mut rec: Option<&mut Recorder>,
    out: &mut Round,
) {
    let mut sent_at: VecDeque<u64> = VecDeque::with_capacity(depth);
    let mut cmd = String::new();
    let (mut sent, mut done) = (0usize, 0usize);
    out.lat_ns.reserve(ops.len());
    while done < ops.len() {
        let mut io_ok = true;
        while io_ok && sent < ops.len() && sent - done < depth {
            cmd.clear();
            conn.command(&ops[sent], &mut cmd);
            sent_at.push_back(epoch.elapsed().as_nanos() as u64);
            io_ok = client.send(&cmd).is_ok();
            sent += 1;
        }
        let reply = if io_ok { recv(client).ok() } else { None };
        let Some(reply) = reply else {
            // The connection is gone: everything not yet verified has failed.
            out.failed += (ops.len() - done) as u64;
            return;
        };
        let ok = reply.code == 200 && conn.verify(&ops[done], &reply);
        let start = sent_at.pop_front().expect("a reply has a request");
        let end = epoch.elapsed().as_nanos() as u64;
        out.lat_ns.push(end - start);
        out.failed += !ok as u64;
        if let Some(rec) = rec.as_deref_mut() {
            rec.push("op", 0, done as u32, start, end);
        }
        done += 1;
        acked.store(done as u64, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::trace_overhead;

    #[test]
    fn trace_overhead_cancels_a_trend_across_the_rounds() {
        // U T U T U on a steady decline: no overhead.
        let trend = [
            (false, 100.0),
            (true, 90.0),
            (false, 80.0),
            (true, 70.0),
            (false, 60.0),
        ];
        assert!(trace_overhead(&trend).abs() < 1e-12);
        // The same decline with traced rounds 5 % slower than their place in it.
        let slowed = [
            (false, 100.0),
            (true, 85.5),
            (false, 80.0),
            (true, 66.5),
            (false, 60.0),
        ];
        assert!((trace_overhead(&slowed) - 0.05).abs() < 1e-12);
        // The miniature pass: one untraced round, then one traced.
        assert!((trace_overhead(&[(false, 100.0), (true, 98.0)]) - 0.02).abs() < 1e-12);
        // An untraced pass has nothing to compare.
        assert_eq!(trace_overhead(&[(false, 100.0), (false, 90.0)]), 0.0);
    }
}
