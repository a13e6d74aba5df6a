//! The metrics this benchmark may print, with their units, and the
//! report that collects them and renders the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! tests below keep the two in step.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_mops_per_s", "Mops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("dram_bytes", "bytes"),
    ("cold_cells_per_s", "1/s"),
    ("warm_cells_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run. Each name starts with
/// the workspace crate whose public entry point or ledger it measures.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("imp-workloads.build_s", "s"),
    ("imp-sim.new_s", "s"),
    ("imp-sim.run_s", "s"),
    ("imp-sim.events", "count"),
    ("imp-sim.events_per_op", "ratio"),
    ("imp-sim.ns_per_event", "ns"),
    ("imp-cpu.stall_cycles.indirect", "cycles"),
    ("imp-cpu.stall_cycles.stream", "cycles"),
    ("imp-cpu.stall_cycles.other", "cycles"),
    ("imp-cpu.barrier_cycles", "cycles"),
    ("imp-cpu.walk_stall_cycles", "cycles"),
    ("imp-cache.l1_accesses", "count"),
    ("imp-cache.l1_hits", "count"),
    ("imp-cache.l1_misses.indirect", "count"),
    ("imp-cache.l1_misses.stream", "count"),
    ("imp-cache.l1_misses.other", "count"),
    ("imp-cache.avg_miss_latency_cycles", "cycles"),
    ("imp-cache.replay_ns_per_access", "ns"),
    ("imp-prefetch.issued.stream", "count"),
    ("imp-prefetch.issued.indirect", "count"),
    ("imp-prefetch.generated_indirect", "count"),
    ("imp-prefetch.useful", "count"),
    ("imp-prefetch.late", "count"),
    ("imp-prefetch.unused", "count"),
    ("imp-prefetch.coverage", "ratio"),
    ("imp-prefetch.accuracy", "ratio"),
    ("imp-prefetch.mshr_drops", "count"),
    ("imp-prefetch.deferred_drops", "count"),
    ("imp-prefetch.replay_ns_per_access", "ns"),
    ("imp-coherence.msgs", "count"),
    ("imp-coherence.msgs_per_l1_miss", "ratio"),
    ("imp-coherence.replay_ns_per_add_sharer", "ns"),
    ("imp-noc.messages", "count"),
    ("imp-noc.flit_hops", "count"),
    ("imp-noc.replay_ns_per_send", "ns"),
    ("imp-dram.accesses", "count"),
    ("imp-dram.read_bytes", "bytes"),
    ("imp-dram.write_bytes", "bytes"),
    ("imp-vm.tlb_hits", "count"),
    ("imp-vm.tlb_misses", "count"),
    ("imp-vm.l2_tlb_misses", "count"),
    ("imp-vm.walk_levels", "count"),
    ("imp-vm.walk_cycles", "cycles"),
    ("imp-vm.prefetch_walks", "count"),
    ("imp-vm.walk_p99_cycles", "cycles"),
    ("imp-vm.replay_ns_per_translate", "ns"),
    ("imp-obs.overhead_ratio", "ratio"),
    ("imp-obs.ledger.fills.h0", "count"),
    ("imp-obs.ledger.fills.h1", "count"),
    ("imp-obs.ledger.fills.h2", "count"),
    ("imp-obs.ledger.fills.h3", "count"),
    ("imp-obs.ledger.used.h0", "count"),
    ("imp-obs.ledger.used.h1", "count"),
    ("imp-obs.ledger.used.h2", "count"),
    ("imp-obs.ledger.used.h3", "count"),
    ("imp-obs.ledger.late.h0", "count"),
    ("imp-obs.ledger.late.h1", "count"),
    ("imp-obs.ledger.late.h2", "count"),
    ("imp-obs.ledger.late.h3", "count"),
    ("imp-obs.ledger.evicted_unused.h0", "count"),
    ("imp-obs.ledger.evicted_unused.h1", "count"),
    ("imp-obs.ledger.evicted_unused.h2", "count"),
    ("imp-obs.ledger.evicted_unused.h3", "count"),
    ("imp-obs.demand_latency_p50_cycles", "cycles"),
    ("imp-obs.demand_latency_p99_cycles", "cycles"),
    ("imp-obs.use_distance_p50_cycles", "cycles"),
    ("imp-store.get_us_p50", "us"),
    ("imp-store.get_us_p99", "us"),
    ("imp-store.put_us_p50", "us"),
    ("imp-store.put_us_p99", "us"),
    ("imp-store.record_bytes", "bytes"),
    ("imp-experiments.canonical_us", "us"),
];

/// The metrics of one run, in the order they were recorded, restricted
/// to one declared table.
#[derive(Debug)]
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// An empty report for the traced (`trace`) or untraced run.
    pub fn new(trace: bool) -> Self {
        Report {
            table: if trace { PER_LAYER } else { END_TO_END },
            values: Vec::new(),
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// On a name this run's table does not declare, a name recorded
    /// twice, or a value that is not finite: each is a bug in the
    /// benchmark, not in the measured program.
    pub fn put(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this run"));
        debug_assert!(valid_name(name), "declared metric {name} is malformed");
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.values.push((name, unit, value));
    }

    /// Names of the declared metrics not recorded yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.values.iter().all(|(v, _, _)| v != n))
            .collect()
    }

    /// The recorded `(name, unit, value)` triples.
    pub fn values(&self) -> &[(&'static str, &'static str, f64)] {
        &self.values
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// Whether `name` is a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit)` for every metric `BENCHMARK.json`
    /// declares, read with a scanner just strong enough for that file.
    fn declared() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let start = text
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("no {section} section"));
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            for entry in body.split('{').skip(1) {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = open + rest[open..].find('"').expect("string closes");
                    rest[open..close].to_string()
                };
                out.push((section.to_string(), field("name"), field("unit")));
            }
        }
        out
    }

    fn table_of(section: &str) -> &'static [(&'static str, &'static str)] {
        if section == "end_to_end" {
            END_TO_END
        } else {
            PER_LAYER
        }
    }

    #[test]
    fn every_metric_is_declared_with_its_unit_and_a_valid_name() {
        let declared = declared();
        for section in ["end_to_end", "per_layer"] {
            let json: Vec<(&str, &str)> = declared
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(
                json,
                table_of(section).to_vec(),
                "{section} differs from BENCHMARK.json"
            );
            for (name, _) in json {
                assert!(valid_name(name), "bad metric name {name}");
            }
        }
    }

    #[test]
    fn report_rejects_undeclared_and_repeated_names() {
        let mut r = Report::new(false);
        r.put("setup_s", 0.5);
        let repeated = std::panic::catch_unwind(move || r.put("setup_s", 0.5));
        assert!(repeated.is_err());
        let mut r = Report::new(false);
        let layer_name_in_e2e = std::panic::catch_unwind(move || r.put("imp-sim.run_s", 1.0));
        assert!(layer_name_in_e2e.is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new(false);
        r.put("sim_cycles", 6_050_000.0);
        r.put("setup_s", 0.1875);
        let line = r.to_json(7, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"sim_cycles\": {\"value\": 6050000, \"unit\": \"cycles\"}, \
             \"setup_s\": {\"value\": 0.1875, \"unit\": \"s\"}}}"
        );
        assert!(r.to_json(7, 1).starts_with("{\"correct\": false"));
        assert_eq!(r.missing().len(), END_TO_END.len() - 2);
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("imp-obs.ledger.fills.h0"));
        assert!(!valid_name("-leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
