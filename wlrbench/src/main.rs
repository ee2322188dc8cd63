//! The repository benchmark: one command that runs one workload for a
//! fixed wall-clock budget, checks the simulator's outputs, and prints
//! its metrics as the last line of standard output.
//!
//! ```text
//! wlrbench --workload <lifetime-mg-rw|mc-zipf64|crash-recover>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *rounds* until the timed regions add up to `--seconds`.
//! A round constructs its workload [`SETUP_REPS`] times (timed as set-up,
//! no simulated access), keeps the last construction, and runs it in a
//! timed region that starts right after construction; checks run after
//! the timed region or are timed apart and subtracted. Every round at one seed does the same work, so its
//! modelled figures must repeat exactly; a round that differs from the
//! first counts as a failed operation.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced rounds and prints the per-layer metrics from the
//! traced ones (see [`ledger`]). One thread throughout. See
//! `wlrbench/BENCHMARK.md` for the workloads, metrics and predictions.

mod crash;
mod host;
mod ledger;
mod lifetime;
mod mcz;

use ledger::{ratio, Ledger, PER_LAYER};
use std::time::{Duration, Instant};

/// Constructions per round; set-up reports their median.
const SETUP_REPS: usize = 7;

/// Modelled end-to-end figures of one round (seed-deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// PCM array accesses per software request (Table II's metric).
    pub accesses_per_request: f64,
    /// App writes issued when the workload's lifetime point is reached.
    pub lifetime_writes: f64,
    /// The workload's p99 latency on its modelled clock.
    pub p99_ticks: f64,
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// Operations completed in the timed region.
    pub ops: u64,
    /// Wall nanoseconds of the timed region, probe spans excluded.
    pub timed_ns: u128,
    /// Modelled end-to-end figures.
    pub model: Model,
    /// Modelled per-layer counts and ratios (seed-deterministic).
    pub counts: Vec<(&'static str, f64)>,
    /// Operations a check rejected.
    pub failed: u64,
}

/// Start-Gap ψ (and Security Refresh interval) keeping the paper's
/// rotations-per-lifetime ratio at a scaled geometry, as the figure
/// experiments do: `ψ = endurance / (r · blocks)`, `r = 10⁸ / (2²⁴ · 100)`.
pub fn scaled_gap_interval(blocks: u64, endurance: f64) -> u64 {
    const PAPER_RATIO: f64 = 1e8 / ((1u64 << 24) as f64 * 100.0);
    ((endurance / (PAPER_RATIO * blocks as f64)).round() as u64).clamp(1, 100)
}

/// The `q`-quantile of integer-valued observations, interpolated within
/// the unit interval `[v − ½, v + ½)` of the value `v` that holds it (the
/// grouped-data estimator): `below` observations lie under `v`, `at` equal
/// it, `total` in all. Modelled latencies are whole ticks; interpolating
/// lets a shift of the tail's mass move the figure even when the
/// nearest-rank value stays put.
pub fn grouped_quantile(v: u64, below: u64, at: u64, total: u64, q: f64) -> f64 {
    if at == 0 {
        return v as f64;
    }
    v as f64 - 0.5 + (q * total as f64 - below as f64) / at as f64
}

/// The command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["lifetime-mg-rw", "mc-zipf64", "crash-recover"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run gathered.
struct Run {
    setup_ns: Vec<u128>,
    untraced: Vec<Round>,
    traced: Vec<Round>,
    ledger: Ledger,
    on_cpu_share: f64,
}

/// Repeats rounds of `setup` + `run` until the timed regions cover
/// `args.seconds` (and, traced, at least one round of each kind ran).
fn drive<P>(args: &Args, setup: impl Fn(bool) -> P, run: impl Fn(P, &mut Ledger) -> Round) -> Run {
    let budget = Duration::from_secs(args.seconds).as_nanos();
    let mut ledger = Ledger::new(true);
    let mut untimed = Ledger::new(false);
    let (mut setup_ns, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0u128;
    let cpu0 = host::on_cpu_ns();
    let wall0 = Instant::now();
    for i in 0.. {
        let trace_round = args.trace && i % 2 == 1;
        let mut prepared = None;
        for _ in 0..SETUP_REPS {
            drop(prepared.take());
            let t = Instant::now();
            prepared = Some(setup(trace_round));
            setup_ns.push(t.elapsed().as_nanos());
        }
        let prepared = prepared.expect("SETUP_REPS > 0");
        let round = if trace_round {
            run(prepared, &mut ledger)
        } else {
            run(prepared, &mut untimed)
        };
        eprintln!(
            "round {i}{}: {} ops in {:.3} s, failed {}",
            if trace_round { " (traced)" } else { "" },
            round.ops,
            round.timed_ns as f64 * 1e-9,
            round.failed
        );
        measured += round.timed_ns;
        if trace_round {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        if measured >= budget && (!args.trace || !traced.is_empty()) {
            break;
        }
    }
    let on_cpu_share = ratio(
        (host::on_cpu_ns() - cpu0) as f64,
        wall0.elapsed().as_nanos() as f64,
    );
    Run {
        setup_ns,
        untraced,
        traced,
        ledger,
        on_cpu_share,
    }
}

/// The median of `xs` (0 when empty).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Modelled figures of every round that differ from the first round's:
/// each is one failed operation.
fn nondeterministic(rounds: &[&Round]) -> u64 {
    let first = rounds[0];
    rounds[1..]
        .iter()
        .filter(|r| r.model != first.model || r.counts != first.counts)
        .count() as u64
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a metric that cannot be formed is 0.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn end_to_end(run: &Run) -> Vec<String> {
    let first = &run.untraced[0].model;
    let rate = |r: &Round| ratio(r.ops as f64, r.timed_ns as f64 * 1e-9);
    vec![
        metric(
            "ops_per_s",
            median(run.untraced.iter().map(rate).collect()),
            "ops/s",
        ),
        metric(
            "setup_s",
            median(run.setup_ns.iter().map(|&ns| ns as f64 * 1e-9).collect()),
            "s",
        ),
        metric("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        metric(
            "accesses_per_request",
            first.accesses_per_request,
            "accesses/req",
        ),
        metric("lifetime_writes", first.lifetime_writes, "writes"),
        metric("p99_ticks", first.p99_ticks, "ticks"),
    ]
}

fn per_layer(run: &Run) -> Vec<String> {
    let l = &run.ledger;
    let traced_ns: u128 = run.traced.iter().map(|r| r.timed_ns).sum();
    let mut values: Vec<(&str, f64)> = l.per_op();
    values.extend(run.traced[0].counts.iter().copied());
    values.push((
        "mc.frontend_self_ns",
        ratio(
            l.total_ns("mc.submit_ns") + l.total_ns("mc.finish_ns")
                - l.total_ns("mc.bank_write_ns"),
            l.ops("mc.submit_ns") as f64,
        ),
    ));
    values.push((
        "run.unexplained_share",
        1.0 - ratio(l.path_ns() as f64, traced_ns as f64),
    ));
    values.push(("run.on_cpu_share", run.on_cpu_share));
    // Rounds alternate untraced, traced: each traced round is compared
    // with the untraced round just before it, so machine drift over the
    // run cancels within a pair.
    let pairs = run.untraced.iter().zip(&run.traced);
    values.push((
        "run.trace_overhead",
        median(
            pairs
                .map(|(u, t)| ratio(t.timed_ns as f64, u.timed_ns as f64) - 1.0)
                .collect(),
        ),
    ));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
            metric(name, v, unit)
        })
        .collect()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wlrbench: {e}");
        std::process::exit(2);
    });
    let seed = args.seed;
    let run = match args.workload.as_str() {
        "lifetime-mg-rw" => drive(
            &args,
            |_| lifetime::setup(&lifetime::FULL, seed),
            |p, l| lifetime::run(p, &lifetime::FULL, l),
        ),
        "mc-zipf64" => drive(
            &args,
            |traced| mcz::setup(&mcz::FULL, seed, traced),
            |p, l| mcz::run(p, &mcz::FULL, l),
        ),
        "crash-recover" => drive(
            &args,
            |_| crash::setup(&crash::FULL, seed),
            |p, l| crash::run(p, &crash::FULL, l),
        ),
        _ => unreachable!("parse_args validates the workload"),
    };

    let rounds: Vec<&Round> = run.untraced.iter().chain(&run.traced).collect();
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum::<u64>() + nondeterministic(&rounds);
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    println!(
        "{}",
        host::stamp(&args.workload, seed, rounds.len(), run.on_cpu_share)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_quantile_interpolates_within_the_unit_interval() {
        // 90 ones and 10 twos: the 0.99 quantile sits 9/10 of the way
        // through the twos' interval [1.5, 2.5).
        assert!((grouped_quantile(2, 90, 10, 100, 0.99) - 2.4).abs() < 1e-12);
        assert!((grouped_quantile(1, 0, 90, 100, 0.5) - (0.5 + 50.0 / 90.0)).abs() < 1e-12);
    }

    #[test]
    fn median_and_gap_interval() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
        // The figure experiments' geometry: 2^14 blocks at 10^4 writes.
        assert_eq!(scaled_gap_interval(1 << 14, 1e4), 10);
    }
}
