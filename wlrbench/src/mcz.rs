//! `mc-zipf64`: a Zipf(0.9) request stream into a 64-bank front-end with
//! cacheline interleave, queue depth 64 and a 32-line write buffer over
//! `reviver-sg` banks. Endurance is long enough that no block fails, so
//! the reviver does nothing: the front-end (admission, absorption,
//! coalescing, age-bounded flushes) and the bank engine carry the load.

use crate::ledger::{ratio, Ledger};
use crate::{grouped_quantile, Model, Round};
use std::time::Instant;
use wlr_base::AppAddr;
use wlr_mc::{LatencyHistogram, McFrontend};
use wlr_trace::{Workload, ZipfWorkload};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Banks behind the front-end.
    pub banks: usize,
    /// Global PCM capacity in blocks.
    pub blocks: u64,
    /// Mean cell endurance: high enough that no block fails in a round.
    pub endurance: f64,
    /// Requests submitted per round.
    pub requests: u64,
    /// Requests generated per chunk.
    pub chunk: usize,
}

/// The measured configuration.
pub const FULL: Config = Config {
    banks: 64,
    blocks: 1 << 14,
    endurance: 1e8,
    requests: 1 << 22,
    chunk: 4096,
};

/// Zipf exponent of the request stream.
const ZIPF_S: f64 = 0.9;

/// A constructed, not yet exercised workload.
pub struct Prepared {
    mc: McFrontend,
    zipf: ZipfWorkload,
}

/// Builds the front-end (with its 64 bank simulations) and the Zipf
/// generator. A traced round also records each bank's issue log, which
/// the replay check needs. No simulated access.
pub fn setup(cfg: &Config, seed: u64, traced: bool) -> Prepared {
    let mc = McFrontend::builder()
        .banks(cfg.banks)
        .total_blocks(cfg.blocks)
        .endurance_mean(cfg.endurance)
        .stack("reviver-sg")
        .seed(seed)
        .queue_depth(64)
        .write_buffer_lines(32)
        // One thread: banks drain inline on the submitting thread, so the
        // load is the same on any machine.
        .drain_workers(1)
        .record_issue(traced)
        .build()
        .expect("64 banks divide the global space");
    Prepared {
        mc,
        zipf: ZipfWorkload::new(cfg.blocks, ZIPF_S, seed),
    }
}

/// Submits the stream and finishes the front-end, then checks request
/// conservation and (traced rounds) each bank against a standalone
/// replay of its issue log.
pub fn run(p: Prepared, cfg: &Config, ledger: &mut Ledger) -> Round {
    let Prepared { mut mc, mut zipf } = p;
    let chunk = cfg.chunk;
    let mut buf: Vec<AppAddr> = Vec::with_capacity(chunk);
    let chunks = cfg.requests / chunk as u64;

    let t0 = Instant::now();
    for _ in 0..chunks {
        ledger.time("trace.next_write_ns", chunk as u64, || {
            buf.clear();
            buf.extend((0..chunk).map(|_| zipf.next_write()));
        });
        ledger.time("mc.submit_ns", chunk as u64, || {
            for a in &buf {
                mc.submit(a.index());
            }
        });
    }
    let out = ledger.time("mc.finish_ns", 1, || mc.finish());
    let timed_ns = t0.elapsed().as_nanos();

    let mut failed = u64::from(!out.conserves_writes());
    for (b, bank) in mc.banks().iter().enumerate() {
        // Only traced rounds record issue logs.
        let Some(log) = bank.issue_log() else {
            continue;
        };
        let log: Vec<AppAddr> = log.iter().map(|&a| AppAddr::new(a)).collect();
        let mut reference = mc.reference_sim(b);
        ledger.probe("mc.bank_write_ns", log.len() as u64, || {
            reference.run_batch(&log)
        });
        if reference.fingerprint() != bank.sim().fingerprint() {
            failed += 1;
        }
    }

    let (mut requests, mut accesses, mut device, mut retirements) = (0u64, 0u64, 0u64, 0u64);
    for bank in mc.banks() {
        let sim = bank.sim();
        let s = sim.controller().request_stats();
        requests += s.requests;
        accesses += s.accesses;
        device += sim.controller().device().stats().total();
        retirements += sim.retirements();
    }
    let dead: u64 = out.banks.iter().map(|b| b.dead_blocks).sum();
    let n = out.requests as f64;
    let pipe = mc.pipe();
    let c = out.revival;
    Round {
        ops: out.requests,
        timed_ns,
        model: Model {
            accesses_per_request: ratio(accesses as f64, requests as f64),
            // No block fails inside the round, so the lifetime point is
            // projected: under ideal leveling the array lasts `blocks ×
            // endurance` PCM writes, reached at this round's requests per
            // PCM write.
            lifetime_writes: n * cfg.blocks as f64 * cfg.endurance / out.issued.max(1) as f64,
            p99_ticks: latency_p99(&out.latency),
        },
        counts: vec![
            ("core.links", c.links as f64),
            ("core.switches", c.switches as f64),
            ("core.spare_grants", c.spare_grants as f64),
            ("core.fake_reports", c.fake_reports as f64),
            ("core.suspensions", c.suspensions as f64),
            (
                "core.lost_writes",
                mc.banks()
                    .iter()
                    .map(|b| b.sim().lost_writes())
                    .sum::<u64>() as f64,
            ),
            ("os.retirements", retirements as f64),
            ("pcm.device_accesses_per_op", ratio(device as f64, n)),
            ("pcm.dead_blocks", dead as f64),
            ("mc.absorbed_share", ratio(out.absorbed as f64, n)),
            ("mc.coalesced_share", ratio(out.coalesced as f64, n)),
            ("mc.issued_share", ratio(out.issued as f64, n)),
            ("mc.flushes", pipe.batches as f64),
            ("mc.batch_entries_mean", pipe.mean_batch()),
            ("mc.flush_age_mean_ticks", pipe.mean_flush_age()),
            ("mc.p50_ticks", out.latency.p50() as f64),
            ("mc.p999_ticks", out.latency.p999() as f64),
        ],
        failed,
    }
}

/// The grouped-data p99 of the queueing latencies (see
/// [`grouped_quantile`]). The histogram reports nearest-rank values only,
/// so the counts around the p99 are recovered by bisecting over ranks.
fn latency_p99(h: &LatencyHistogram) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    // Observations at or below `x`: the highest rank whose nearest-rank
    // value is at most `x` (rank r is quantile (r − ½) / total).
    let upto = |x: u64| {
        let (mut lo, mut hi) = (0u64, total);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if h.percentile((mid as f64 - 0.5) / total as f64) <= x {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    let v = h.p99();
    let below = if v == 0 { 0 } else { upto(v - 1) };
    grouped_quantile(v, below, upto(v) - below, total, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_front_end_repeats_exactly_and_passes_its_checks() {
        let tiny = Config {
            banks: 4,
            blocks: 1 << 12,
            endurance: 1e8,
            requests: 1 << 14,
            chunk: 256,
        };
        // The traced round also replays every bank's issue log; recording
        // the logs must not change any modelled figure.
        let a = run(setup(&tiny, 7, true), &tiny, &mut Ledger::new(true));
        let b = run(setup(&tiny, 7, false), &tiny, &mut Ledger::new(false));
        assert_eq!(a.failed, 0);
        assert_eq!(a.ops, tiny.requests);
        assert_eq!((a.model, &a.counts), (b.model, &b.counts));
    }
}
