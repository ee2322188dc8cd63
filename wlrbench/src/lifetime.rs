//! `lifetime-mg-rw`: one `reviver-sg` simulation at the experiment
//! geometry, from a fresh chip to 70 % usable space, under MG writes
//! (Table I's most skewed benchmark, CoV 40.87), each paired with a read
//! from an independent MG stream. Almost the whole run is the failure
//! era, so WL-Reviver's chain resolution sits on both the write and the
//! read path.

use crate::ledger::{ratio, Ledger};
use crate::{grouped_quantile, scaled_gap_interval, Model, Round};
use std::hint::black_box;
use std::time::Instant;
use wl_reviver::sim::{AppRead, BatchStatus, Simulation};
use wlr_trace::{Benchmark, CovTargetedWorkload, Workload};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// PCM capacity in blocks.
    pub blocks: u64,
    /// Mean cell endurance in writes.
    pub endurance: f64,
    /// Writes (and reads) per chunk handed to the simulator.
    pub chunk: usize,
    /// The run ends once usable space falls below this fraction.
    pub stop_usable: f64,
}

/// The experiment geometry of the figure binaries.
pub const FULL: Config = Config {
    blocks: 1 << 14,
    endurance: 1e4,
    chunk: 4096,
    stop_usable: 0.70,
};

/// Salt separating the read stream's seed from the write stream's.
const READ_STREAM: u64 = 0x5EAD_0000_0000_0000;

/// Per-read PCM accesses are histogrammed up to this many; longer reads
/// share the last bucket.
const MAX_READ_TICKS: usize = 16;

/// A constructed, not yet exercised workload.
pub struct Prepared {
    sim: Simulation,
    writes: CovTargetedWorkload,
    reads: CovTargetedWorkload,
}

/// Builds the simulation and both MG generators. No simulated access.
pub fn setup(cfg: &Config, seed: u64) -> Prepared {
    let psi = scaled_gap_interval(cfg.blocks, cfg.endurance);
    let sim = Simulation::builder()
        .num_blocks(cfg.blocks)
        .endurance_mean(cfg.endurance)
        .gap_interval(psi)
        .sr_refresh_interval(psi)
        .stack("reviver-sg")
        .seed(seed)
        .build();
    let app = sim.os().app_blocks();
    Prepared {
        writes: Benchmark::Mg.build(app, seed),
        reads: Benchmark::Mg.build(app, seed ^ READ_STREAM),
        sim,
    }
}

/// Runs the chip to its lifetime point, then checks the reviver's
/// structural invariants outside the timed region.
pub fn run(p: Prepared, cfg: &Config, ledger: &mut Ledger) -> Round {
    let Prepared {
        mut sim,
        mut writes,
        mut reads,
    } = p;
    let chunk = cfg.chunk;
    let mut wbuf = Vec::with_capacity(chunk);
    let mut rbuf = Vec::with_capacity(chunk);
    let mut pas = Vec::with_capacity(chunk);
    let mut read_ticks = [0u64; MAX_READ_TICKS + 1];
    let (mut app_writes, mut app_reads, mut unmapped, mut failed) = (0u64, 0u64, 0u64, 0u64);

    let probe0 = ledger.probe_ns();
    let t0 = Instant::now();
    while sim.usable_fraction() >= cfg.stop_usable {
        ledger.time("trace.next_write_ns", 2 * chunk as u64, || {
            wbuf.clear();
            rbuf.clear();
            wbuf.extend((0..chunk).map(|_| writes.next_write()));
            rbuf.extend((0..chunk).map(|_| reads.next_write()));
        });
        let status = ledger.time("core.write_ns", chunk as u64, || sim.run_batch(&wbuf));
        app_writes += chunk as u64;
        if status != BatchStatus::Completed {
            // The app space ran out before the lifetime point: a defect.
            failed += 1;
            break;
        }
        ledger.time("core.read_ns", chunk as u64, || {
            for &addr in &rbuf {
                let before = sim.controller().request_stats().accesses;
                match sim.read_app(addr) {
                    AppRead::Ok(tag) => {
                        black_box(tag);
                        let ticks = sim.controller().request_stats().accesses - before;
                        read_ticks[(ticks as usize).min(MAX_READ_TICKS)] += 1;
                    }
                    AppRead::Unmapped => unmapped += 1,
                    // No fault plan is installed: a transient is a defect.
                    AppRead::Transient => failed += 1,
                }
            }
        });
        app_reads += chunk as u64;
        if ledger.on() {
            // Price the OS and leveler layers on live state: the same
            // translations `read_app` just made, over the same addresses.
            pas.clear();
            ledger.probe("os.translate_ns", chunk as u64, || {
                pas.extend(rbuf.iter().filter_map(|&a| sim.os().translate(a)));
            });
            let wl = sim
                .controller()
                .as_reviver()
                .expect("reviver-sg is a revived stack")
                .wear_leveler();
            ledger.probe("wl.map_ns", pas.len() as u64, || {
                for &pa in &pas {
                    black_box(wl.map(pa));
                }
            });
        }
    }
    let timed_ns = t0.elapsed().as_nanos() - (ledger.probe_ns() - probe0);

    let reviver = sim
        .controller()
        .as_reviver()
        .expect("reviver-sg is a revived stack");
    let invariants =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reviver.assert_invariants()));
    if invariants.is_err() {
        failed += 1;
    }
    let c = reviver.counters();
    let ops = app_writes + app_reads;
    let device = sim.controller().device();
    Round {
        ops,
        timed_ns,
        model: Model {
            accesses_per_request: sim.controller().request_stats().avg_access_time(),
            lifetime_writes: sim.writes_issued() as f64,
            p99_ticks: read_p99(&read_ticks),
        },
        counts: vec![
            ("core.links", c.links as f64),
            ("core.switches", c.switches as f64),
            ("core.spare_grants", c.spare_grants as f64),
            ("core.fake_reports", c.fake_reports as f64),
            ("core.suspensions", c.suspensions as f64),
            ("core.lost_writes", sim.lost_writes() as f64),
            ("os.retirements", sim.retirements() as f64),
            (
                "os.unmapped_read_share",
                ratio(unmapped as f64, app_reads as f64),
            ),
            (
                "pcm.device_accesses_per_op",
                ratio(device.stats().total() as f64, ops as f64),
            ),
            ("pcm.dead_blocks", device.dead_blocks() as f64),
        ],
        failed,
    }
}

/// The p99 of the per-read access counts.
fn read_p99(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let rank = (0.99 * total as f64).ceil() as u64;
    let mut below = 0u64;
    for (v, &n) in counts.iter().enumerate() {
        if below + n >= rank {
            return grouped_quantile(v as u64, below, n, total, 0.99);
        }
        below += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_lifetime_repeats_exactly_and_passes_its_checks() {
        let tiny = Config {
            blocks: 1 << 12,
            endurance: 300.0,
            chunk: 256,
            stop_usable: 0.9,
        };
        let a = run(setup(&tiny, 7), &tiny, &mut Ledger::new(true));
        let b = run(setup(&tiny, 7), &tiny, &mut Ledger::new(false));
        assert_eq!(a.failed, 0);
        assert!(a.ops > 0 && a.model.lifetime_writes > 0.0);
        assert_eq!((a.ops, a.model, &a.counts), (b.ops, b.model, &b.counts));
    }
}
