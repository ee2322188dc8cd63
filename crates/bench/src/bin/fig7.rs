//! Figure 7 — percentage of user-usable space vs writes: WL-Reviver
//! against FREE-p adapted with 0%, 5%, 10% and 15% pre-reserved space,
//! for `ocean` (a) and `mg` (b). ECP6 + Start-Gap everywhere.
//!
//! ```text
//! cargo run --release -p wlr-bench --bin fig7
//! ```

use wl_reviver::sim::StopCondition;
use wl_reviver::StackKnobs;
use wlr_bench::{
    exp_builder_with, exp_knobs, exp_seed, print_series, run_curve, run_parallel, Curve,
};
use wlr_trace::Benchmark;

fn job(
    bench: Benchmark,
    (scheme, knobs): (&'static str, StackKnobs),
    label: String,
) -> Box<dyn FnOnce() -> Curve + Send> {
    Box::new(move || {
        // FREE-p reserves are carved out of the same total chip, so the
        // workload sees a smaller application space.
        let mut sim = exp_builder_with(knobs)
            .stack(scheme)
            .sample_interval(500_000)
            .build();
        let app = sim.os().app_blocks();
        sim.replace_workload(Box::new(bench.build(app, exp_seed())));
        run_curve(&label, sim, StopCondition::UsableBelow(0.60))
    })
}

fn main() {
    println!("Figure 7 — user-usable space vs writes: WL-Reviver vs FREE-p\n");
    let freep = |frac| {
        (
            "freep",
            StackKnobs {
                freep_reserve_frac: frac,
                ..exp_knobs()
            },
        )
    };
    let stacks = [
        ("WL-Reviver", ("reviver-sg", exp_knobs())),
        ("FREE-p 0%", freep(0.0)),
        ("FREE-p 5%", freep(0.05)),
        ("FREE-p 10%", freep(0.10)),
        ("FREE-p 15%", freep(0.15)),
    ];

    for (panel, bench) in [("(a)", Benchmark::Ocean), ("(b)", Benchmark::Mg)] {
        println!("--- Figure 7{panel}: {bench} ---\n");
        let configs = stacks
            .iter()
            .map(|(name, stack)| {
                let label = format!("{bench}/{name}");
                (label.clone(), job(bench, *stack, label))
            })
            .collect();
        let curves = run_parallel(configs);
        for curve in &curves {
            print_series(curve, |p| p.usable, 12);
        }
        println!("writes at 80% usable:");
        for curve in &curves {
            let at = curve
                .series
                .writes_at_usable(0.80)
                .map(|w| w.to_string())
                .unwrap_or_else(|| "never reached".into());
            println!("  {:<26} {}", curve.label, at);
        }
        println!();
    }
    println!("Expected shape (paper §IV-C): each FREE-p curve starts at 100% minus");
    println!("its reserve, holds flat until the reserve is consumed, then collapses");
    println!("as Start-Gap ceases; small reserves do better for ocean, large ones");
    println!("for mg; WL-Reviver starts at 100% and degrades latest and slowest.");
}
