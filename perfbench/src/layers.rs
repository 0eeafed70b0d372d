//! The metric catalogue and the span-derived per-layer metrics.
//!
//! `BENCHMARK.json` declares the same names and units; a test keeps the
//! two in step. `GLOSSARY.md` says what each metric means, which layer
//! it belongs to, and which end-to-end metric it should move.

use crate::stats::median;
use crate::trace::SpanRec;
use std::collections::BTreeMap;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("iter_ms.p50", "ms"),
    ("iter_ms.tail", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. A metric reads 0 on a
/// workload whose iterations do not exercise its layer.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("models.build_ms", "ms"),
    ("compiler.calls", "count"),
    ("compiler.optimize_ms", "ms"),
    ("compiler.infer_shapes_ms", "ms"),
    ("compiler.fuse_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("compiler.emit_ms", "ms"),
    ("compiler.commands_emitted", "count"),
    ("program_io.encode_ms", "ms"),
    ("program_io.decode_ms", "ms"),
    ("program_io.artifact_bytes", "bytes"),
    ("program_io.decode_over_compile", "ratio"),
    ("cache.memory_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.memory_hit_us", "us"),
    ("cache.miss_ms", "ms"),
    ("cache.disk_hit_ms", "ms"),
    ("plan.busy_ratio", "ratio"),
    ("sim.walk_calls", "count"),
    ("sim.walk_ms", "ms"),
    ("sim.commands_walked", "count"),
    ("sim.walk_ns_per_command", "ns"),
    ("fleet.session_lookups", "count"),
    ("fleet.routed_cells", "count"),
    ("fleet.lookup_walk_share", "ratio"),
    ("serve.us_per_request", "us"),
    ("gen.prefill_steps", "count"),
    ("gen.decode_steps", "count"),
    ("gen.preemptions", "count"),
    ("gen.us_per_step", "us"),
    ("monitor.fleet_overhead_ratio", "ratio"),
    ("monitor.gen_overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values by name; every [`PER_LAYER`] name starts at 0.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric. Panics on a name outside [`PER_LAYER`], which is
    /// a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        *slot = if value.is_finite() { value + 0.0 } else { 0.0 };
    }

    /// A metric's current value.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Spans of the traced iterations, grouped by iteration (probes, which
/// carry iteration 0, are left out).
pub struct ByIter<'s> {
    iters: BTreeMap<u32, Vec<&'s SpanRec>>,
}

impl<'s> ByIter<'s> {
    /// Groups `spans` by iteration id.
    pub fn new(spans: &'s [SpanRec]) -> Self {
        let mut iters: BTreeMap<u32, Vec<&SpanRec>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.iter > 0) {
            iters.entry(s.iter).or_default().push(s);
        }
        ByIter { iters }
    }

    /// Median over iterations of the per-iteration value of `f`.
    pub fn median_of(&self, f: impl Fn(&[&SpanRec]) -> f64) -> f64 {
        let per_iter: Vec<f64> = self.iters.values().map(|v| f(v)).collect();
        median(&per_iter)
    }

    /// Median per-iteration total duration of spans named `name`, ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.median_of(|v| total_ns(v, name) as f64 / 1e6)
    }

    /// Median per-iteration count of spans named `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.median_of(|v| v.iter().filter(|s| s.name == name).count() as f64)
    }

    /// Median per-iteration sum of the `amount` of spans named `name`.
    pub fn amount(&self, name: &str) -> f64 {
        self.median_of(|v| {
            v.iter()
                .filter(|s| s.name == name)
                .map(|s| s.amount as f64)
                .sum()
        })
    }

    /// Total duration over all iterations of spans named `name`, ns,
    /// and the summed `amount`.
    pub fn totals(&self, name: &str) -> (f64, f64) {
        let spans = self.iters.values().flatten().filter(|s| s.name == name);
        spans.fold((0.0, 0.0), |(d, a), s| {
            (d + s.duration_ns() as f64, a + s.amount as f64)
        })
    }
}

/// Total duration of the spans named `name`, ns.
pub fn total_ns(spans: &[&SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns())
        .sum()
}

/// Fills every metric that comes straight from the traced iterations'
/// spans at the layer boundaries: graph builds, session-cache lookups
/// by outcome (a miss compiles once) and timing walks.
pub fn from_spans(spans: &[SpanRec], out: &mut Layers) {
    let by = ByIter::new(spans);
    out.set("models.build_ms", by.ms("models.build"));
    out.set("compiler.calls", by.count("cache.lookup.miss"));
    out.set("compiler.commands_emitted", by.amount("cache.lookup.miss"));
    out.set("cache.miss_ms", by.ms("cache.lookup.miss"));
    out.set("cache.disk_hit_ms", by.ms("cache.lookup.disk"));
    out.set("sim.walk_calls", by.count("sim.walk"));
    out.set("sim.walk_ms", by.ms("sim.walk"));
    out.set("sim.commands_walked", by.amount("sim.walk"));
    let (walk_ns, commands) = by.totals("sim.walk");
    if commands > 0.0 {
        out.set("sim.walk_ns_per_command", walk_ns / commands);
    }
}

/// Self time per span name, summed over every span, ms — the table the
/// traced run prints and the snapshot keeps.
pub fn self_time_table(spans: &[SpanRec]) -> Vec<(&'static str, usize, f64, f64)> {
    let st = crate::trace::self_times(spans);
    let mut rows: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_ns() as f64 / 1e6;
        row.2 += st[&s.id] as f64 / 1e6;
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this catalogue reports, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = manifest
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry
                            .split(&format!("\"{key}\""))
                            .nth(1)
                            .expect("field present");
                        rest.split('"').nth(1).expect("string value").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn span_metrics_are_per_iteration_medians() {
        let rec = |id, iter, name, start_ns, end_ns, amount| SpanRec {
            id,
            parent: None,
            iter,
            name,
            lane: 0,
            start_ns,
            end_ns,
            amount,
        };
        let spans = vec![
            rec(1, 1, "sim.walk", 0, 1_000_000, 100),
            rec(2, 1, "sim.walk", 0, 1_000_000, 100),
            rec(3, 2, "sim.walk", 0, 4_000_000, 200),
            rec(4, 3, "sim.walk", 0, 3_000_000, 300),
            // Probes (iteration 0) never count.
            rec(5, 0, "sim.walk", 0, 9_000_000, 900),
        ];
        let mut out = Layers::default();
        from_spans(&spans, &mut out);
        assert_eq!(out.get("sim.walk_ms"), 3.0);
        assert_eq!(out.get("sim.walk_calls"), 1.0);
        assert_eq!(out.get("sim.commands_walked"), 200.0);
        assert_eq!(out.get("sim.walk_ns_per_command"), 9e6 / 700.0);
        assert_eq!(out.get("compiler.calls"), 0.0);
    }

    #[test]
    fn lookups_count_by_the_outcome_in_their_span_name() {
        use crate::sweep::lookup_span;
        use dtu_harness::CacheOutcome;
        let rec = |id, name, end_ns, amount| SpanRec {
            id,
            parent: None,
            iter: 1,
            name,
            lane: 0,
            start_ns: 0,
            end_ns,
            amount,
        };
        let spans = vec![
            rec(1, lookup_span(CacheOutcome::Miss), 2_000_000, 300),
            rec(2, lookup_span(CacheOutcome::Miss), 1_000_000, 200),
            rec(3, lookup_span(CacheOutcome::DiskHit), 500_000, 100),
            rec(4, lookup_span(CacheOutcome::MemoryHit), 100_000, 100),
        ];
        let mut out = Layers::default();
        from_spans(&spans, &mut out);
        // Each miss compiles once; the command count is the programs'.
        assert_eq!(out.get("compiler.calls"), 2.0);
        assert_eq!(out.get("compiler.commands_emitted"), 500.0);
        assert_eq!(out.get("cache.miss_ms"), 3.0);
        assert_eq!(out.get("cache.disk_hit_ms"), 0.5);
    }
}
