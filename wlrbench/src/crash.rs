//! `crash-recover`: every revivable stack in registry order, each on a
//! small chip with the integrity oracle on, a uniform write stream and a
//! power loss every few thousand device writes, run to 30 % dead blocks.
//! At each loss the simulation is snapshotted and forked, both copies
//! recover, their fingerprints must agree, and every tracked line is
//! read back against the oracle: the per-future loop of the fleet and
//! crash-sweep campaigns, on one thread.

use crate::ledger::{ratio, Ledger};
use crate::{scaled_gap_interval, Model, Round};
use std::time::Instant;
use wl_reviver::registry::SchemeRegistry;
use wl_reviver::sim::{Simulation, StopCondition, StopReason};
use wlr_pcm::FaultPlan;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// PCM capacity in blocks, per stack.
    pub blocks: u64,
    /// Mean cell endurance in writes.
    pub endurance: f64,
    /// Device writes between power losses.
    pub crash_every: u64,
    /// Each stack runs until this fraction of its visible blocks is dead.
    pub dead_fraction: f64,
}

/// The measured configuration.
pub const FULL: Config = Config {
    blocks: 4096,
    endurance: 2000.0,
    crash_every: 5000,
    dead_fraction: 0.30,
};

/// A constructed, not yet exercised workload: one simulation per
/// revivable stack.
pub struct Prepared {
    sims: Vec<Simulation>,
}

/// Builds every revivable stack with its first power loss armed. No
/// simulated access.
pub fn setup(cfg: &Config, seed: u64) -> Prepared {
    let psi = scaled_gap_interval(cfg.blocks, cfg.endurance);
    let sims = SchemeRegistry::global()
        .revivable()
        .map(|spec| {
            Simulation::builder()
                .num_blocks(cfg.blocks)
                .endurance_mean(cfg.endurance)
                .gap_interval(psi)
                .sr_refresh_interval(psi)
                .stack(spec.name)
                .seed(seed)
                .verify_integrity(true)
                .fault_plan(FaultPlan::new().power_loss_at_write(cfg.crash_every))
                .build()
        })
        .collect();
    Prepared { sims }
}

/// Runs every stack through its crashes to the lifetime point.
pub fn run(p: Prepared, cfg: &Config, ledger: &mut Ledger) -> Round {
    let mut sims = p.sims;
    let stop = StopCondition::DeadFraction(cfg.dead_fraction);
    let mut scans: Vec<u64> = Vec::new();
    let (mut app_writes, mut lines, mut failed) = (0u64, 0u64, 0u64);
    // The fork-equality check is the benchmark's, not the workload's:
    // its time is kept out of the timed region.
    let mut check_ns = 0u128;

    let t0 = Instant::now();
    for sim in &mut sims {
        loop {
            let before = sim.writes_issued();
            let out = ledger.time("core.guarded_write_ns", 0, || sim.run(stop));
            let issued = sim.writes_issued() - before;
            ledger.add_ops("core.guarded_write_ns", issued);
            app_writes += issued;
            match out.reason {
                StopReason::ConditionMet => break,
                StopReason::PowerLoss => {}
                StopReason::MemoryExhausted | StopReason::HardCap => {
                    failed += 1;
                    break;
                }
            }
            let snap = ledger.time("core.snapshot_ns", 1, || sim.snapshot());
            let mut twin = ledger.time("core.fork_ns", 1, || Simulation::fork(&snap));
            let report = ledger.time("core.recover_ns", 2, || {
                twin.recover();
                sim.recover()
            });
            let tc = Instant::now();
            if sim.fingerprint() != twin.fingerprint() {
                failed += 1;
            }
            check_ns += tc.elapsed().as_nanos();
            scans.push(report.blocks_scanned);
            let reads = sim.controller().request_stats().requests;
            ledger.time("core.verify_read_ns", 0, || sim.verify_all());
            let read = sim.controller().request_stats().requests - reads;
            ledger.add_ops("core.verify_read_ns", read);
            lines += read;
            sim.arm_faults(FaultPlan::new().power_loss_at_write(cfg.crash_every));
        }
    }
    let timed_ns = t0.elapsed().as_nanos() - check_ns;

    // `verify_all` adds its mismatches to the oracle's error count, so
    // this covers every read-back as well as the oracle's own checks.
    failed += sims.iter().map(Simulation::integrity_errors).sum::<u64>();
    let ops = app_writes + lines;
    let (mut requests, mut accesses, mut device, mut dead) = (0u64, 0u64, 0u64, 0u64);
    let (mut lifetime, mut retirements, mut lost) = (0u64, 0u64, 0u64);
    let mut c = wl_reviver::ReviverCounters::default();
    for sim in &sims {
        let s = sim.controller().request_stats();
        requests += s.requests;
        accesses += s.accesses;
        device += sim.controller().device().stats().total();
        dead += sim.controller().device().dead_blocks();
        lifetime += sim.writes_issued();
        retirements += sim.retirements();
        lost += sim.lost_writes();
        c.absorb(
            &sim.reviver_counters()
                .expect("revivable stacks are revivers"),
        );
    }
    let crashes = scans.len() as u64;
    let scanned: u64 = scans.iter().sum();
    scans.sort_unstable();
    Round {
        ops,
        timed_ns,
        model: Model {
            accesses_per_request: ratio(accesses as f64, requests as f64),
            lifetime_writes: lifetime as f64,
            // Recovery latency in array-access ticks: each block the
            // recovery scan reads is one PCM access.
            p99_ticks: nearest_rank(&scans, 0.99) as f64,
        },
        counts: vec![
            ("core.links", c.links as f64),
            ("core.switches", c.switches as f64),
            ("core.spare_grants", c.spare_grants as f64),
            ("core.fake_reports", c.fake_reports as f64),
            ("core.suspensions", c.suspensions as f64),
            ("core.lost_writes", lost as f64),
            ("core.crashes", crashes as f64),
            ("core.recovery_blocks_scanned", scanned as f64),
            ("os.retirements", retirements as f64),
            (
                "pcm.device_accesses_per_op",
                ratio(device as f64, ops as f64),
            ),
            ("pcm.dead_blocks", dead as f64),
        ],
        failed,
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_crash_loop_repeats_exactly_and_passes_its_checks() {
        let tiny = Config {
            blocks: 1 << 10,
            endurance: 60.0,
            crash_every: 1000,
            dead_fraction: 0.30,
        };
        let a = run(setup(&tiny, 7), &tiny, &mut Ledger::new(true));
        let b = run(setup(&tiny, 7), &tiny, &mut Ledger::new(false));
        assert_eq!(a.failed, 0);
        let crashes = a.counts.iter().find(|c| c.0 == "core.crashes").map(|c| c.1);
        assert!(
            crashes > Some(0.0),
            "the tiny chip must lose power at least once"
        );
        assert_eq!((a.ops, a.model, &a.counts), (b.ops, b.model, &b.counts));
    }

    #[test]
    fn nearest_rank_quantile() {
        assert_eq!(nearest_rank(&[], 0.99), 0);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.99), 4);
    }
}
