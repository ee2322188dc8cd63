//! `explore`'s command-line contract for `--scheme freep:<frac>`: the
//! reserve fraction is validated at parse time, so a bad value is a
//! usage error (exit 2 naming the input), not a panic inside the
//! simulation builder.

use std::process::Command;

fn explore(scheme: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_explore"))
        .args([
            "--blocks",
            "4096",
            "--stop",
            "writes:1000",
            "--scheme",
            scheme,
        ])
        .output()
        .expect("explore runs")
}

#[test]
fn freep_fraction_outside_unit_interval_is_a_usage_error() {
    for frac in ["1", "1.5", "-0.1"] {
        let out = explore(&format!("freep:{frac}"));
        assert_eq!(out.status.code(), Some(2), "freep:{frac}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("freep reserve fraction") && err.contains("[0,1)"),
            "freep:{frac}: {err}"
        );
    }
}

/// The fraction reaches the builder: 5% of 4096 blocks rounds to three
/// 64-block pages, leaving 3904 blocks (95.31%) usable.
#[test]
fn freep_fraction_sets_the_reserve() {
    let out = explore("freep:0.05");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usable space      : 95.31%"), "{stdout}");
}
