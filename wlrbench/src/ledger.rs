//! The traced run's per-layer ledger.
//!
//! Spans are taken in the benchmark's own code, around chunks of calls
//! into one crate's public functions, and each records how many
//! operations it covered. A *path* span is work on the workload's own
//! critical path; a *probe* span re-runs one layer's public function on
//! live state to price it (it is nested inside a path span's work, so it
//! is kept out of both the layer sum and the wall it is compared with).
//! With tracing off the ledger only runs the closures: no clock reads.

use std::time::Instant;

/// Every per-layer metric, in output order, with its unit. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.next_write_ns", "ns"),
    ("core.write_ns", "ns"),
    ("core.read_ns", "ns"),
    ("core.links", "count"),
    ("core.switches", "count"),
    ("core.spare_grants", "count"),
    ("core.fake_reports", "count"),
    ("core.suspensions", "count"),
    ("core.lost_writes", "count"),
    ("core.guarded_write_ns", "ns"),
    ("core.snapshot_ns", "ns"),
    ("core.fork_ns", "ns"),
    ("core.recover_ns", "ns"),
    ("core.verify_read_ns", "ns"),
    ("core.crashes", "count"),
    ("core.recovery_blocks_scanned", "count"),
    ("os.translate_ns", "ns"),
    ("os.retirements", "count"),
    ("os.unmapped_read_share", "share"),
    ("wl.map_ns", "ns"),
    ("pcm.device_accesses_per_op", "accesses/op"),
    ("pcm.dead_blocks", "count"),
    ("mc.submit_ns", "ns"),
    ("mc.finish_ns", "ns"),
    ("mc.bank_write_ns", "ns"),
    ("mc.frontend_self_ns", "ns"),
    ("mc.absorbed_share", "share"),
    ("mc.coalesced_share", "share"),
    ("mc.issued_share", "share"),
    ("mc.flushes", "count"),
    ("mc.batch_entries_mean", "entries"),
    ("mc.flush_age_mean_ticks", "ticks"),
    ("mc.p50_ticks", "ticks"),
    ("mc.p999_ticks", "ticks"),
    ("run.unexplained_share", "share"),
    ("run.on_cpu_share", "share"),
    ("run.trace_overhead", "share"),
];

/// Accumulated time and operations of one span name.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    ns: u128,
    ops: u64,
    probe: bool,
}

/// Span totals over every traced round of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    spans: Vec<Span>,
}

impl Ledger {
    /// A ledger that times spans when `on`, and otherwise only runs them.
    pub fn new(on: bool) -> Self {
        Ledger {
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being timed.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as a path span of `ops` operations under `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        self.record(name, ops, false, f)
    }

    /// Adds `ops` operations to the span `name`, for a span whose
    /// operation count is known only once it has run.
    pub fn add_ops(&mut self, name: &'static str, ops: u64) {
        if let Some(s) = self.spans.iter_mut().find(|s| s.name == name) {
            s.ops += ops;
        }
    }

    /// Runs `f` as a probe span (see the module docs).
    #[inline]
    pub fn probe<R>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        self.record(name, ops, true, f)
    }

    #[inline]
    fn record<R>(&mut self, name: &'static str, ops: u64, probe: bool, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos();
        match self.spans.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.ns += ns;
                s.ops += ops;
            }
            None => self.spans.push(Span {
                name,
                ns,
                ops,
                probe,
            }),
        }
        r
    }

    /// Total probe nanoseconds so far; a round subtracts the probe time
    /// taken inside its timed region from that region's wall.
    pub fn probe_ns(&self) -> u128 {
        self.spans.iter().filter(|s| s.probe).map(|s| s.ns).sum()
    }

    /// Total path-span nanoseconds so far: the layers' summed self time
    /// (path spans never nest).
    pub fn path_ns(&self) -> u128 {
        self.spans.iter().filter(|s| !s.probe).map(|s| s.ns).sum()
    }

    /// Total nanoseconds recorded under `name` (0 if never recorded).
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.ns as f64)
    }

    /// Operations recorded under `name` (0 if never recorded).
    pub fn ops(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.ops)
    }

    /// `(name, mean ns per op)` for every recorded span.
    pub fn per_op(&self) -> Vec<(&'static str, f64)> {
        self.spans
            .iter()
            .map(|s| (s.name, ratio(s.ns as f64, s.ops as f64)))
            .collect()
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut l = Ledger::new(false);
        assert_eq!(l.time("core.write_ns", 4, || 7), 7);
        assert_eq!(l.path_ns(), 0);
        assert!(l.per_op().is_empty());
    }

    #[test]
    fn path_and_probe_spans_stay_apart() {
        let mut l = Ledger::new(true);
        l.time("core.write_ns", 2, || std::hint::black_box(1));
        l.time("core.write_ns", 2, || std::hint::black_box(1));
        l.probe("wl.map_ns", 3, || std::hint::black_box(1));
        assert_eq!(l.per_op().len(), 2);
        assert_eq!(l.path_ns(), l.total_ns("core.write_ns") as u128);
        assert_eq!(l.probe_ns(), l.total_ns("wl.map_ns") as u128);
        assert_eq!(l.ops("core.write_ns"), 4);
        assert_eq!(l.ops("missing"), 0);
    }

    #[test]
    fn per_layer_names_are_unique_and_listed_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[..i].iter().all(|(n, _)| n != name),
                "{name} listed twice"
            );
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
