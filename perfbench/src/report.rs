//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step). An untraced run must measure every end-to-end metric and a
//! traced run every per-layer metric — a missing or non-finite value is
//! a failed run, never a silently absent key.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("fwd_mpps", "Mpps"),
    ("udp_rsv_p50_us", "us"),
    ("admit_gas_mist", "MIST"),
    ("sim_mev_per_s", "Mev/s"),
    ("victim_delivery", "ratio"),
    ("victim_recovery_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run, named after the repository's
/// modules (plus `bench.*` for the harness itself and `traced.*` for the
/// end-to-end numbers measured with tracing on).
pub const PER_LAYER: &[(&str, &str)] = &[
    // forward phase
    ("runtime.batch_ns_per_pkt", "ns"),
    ("runtime.shard_skew", "ratio"),
    ("runtime.worker_idle_share", "ratio"),
    ("bench.feed_ns_per_pkt", "ns"),
    ("router.parse_ns", "ns"),
    ("router.flyover_inputs_ns", "ns"),
    ("router.candidate_hop_mac_ns", "ns"),
    ("router.verify_hop_mac_ns", "ns"),
    ("router.advance_ns", "ns"),
    ("router.stage_sum_ns", "ns"),
    ("router.stage_residue_ns", "ns"),
    ("router.key_cache_hit_ratio", "ratio"),
    ("router.drops_bad_mac", "count"),
    ("crypto.derive_key_ns", "ns"),
    // udp_chain phase (the tails are host-stall dominated on shared
    // vCPUs, too unsteady between runs to carry a bound)
    ("udp_rsv_p99_us", "us"),
    ("udp_be_p99_us", "us"),
    ("source.generate_rsv_ns", "ns"),
    ("source.generate_be_ns", "ns"),
    ("link.send_ns", "ns"),
    ("link.inflight_max", "count"),
    ("router.process_ns", "ns"),
    ("router.udp_key_cache_hit_ratio", "ratio"),
    ("node.hop_residue_us", "us"),
    ("node.parse_drops", "count"),
    ("node.engine_drops", "count"),
    ("bench.gen_late_p50_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.udp_rsv_samples", "count"),
    ("bench.udp_be_samples", "count"),
    // market phase (its rates swing by a third with the host's state from
    // one minute to the next, too unsteady between runs to carry a bound)
    ("admit_per_s", "1/s"),
    ("renew_per_s", "1/s"),
    ("clear_per_s", "1/s"),
    ("control.issue_asset_us", "us"),
    ("control.create_listing_us", "us"),
    ("control.buy_and_redeem_us", "us"),
    ("control.process_requests_us", "us"),
    ("control.collect_deliveries_us", "us"),
    ("control.request_renewals_us", "us"),
    ("control.process_renewals_us", "us"),
    ("control.clear_epoch_us", "us"),
    ("ledger.txs_per_admit", "count"),
    ("ledger.objects_per_admit", "count"),
    ("ledger.bytes_per_reservation", "B"),
    ("coloring.shard_skew", "ratio"),
    // netsim_churn phase
    ("netsim.events", "count"),
    ("netsim.rerouted", "count"),
    ("netsim.stranded", "count"),
    ("router.netsim_key_cache_hit_ratio", "ratio"),
    // set-up per phase
    ("bench.setup_forward_s", "s"),
    ("bench.setup_udp_chain_s", "s"),
    ("bench.setup_market_s", "s"),
    // tracing overhead: the end-to-end numbers of the traced run
    ("traced.fwd_mpps", "Mpps"),
    ("traced.udp_rsv_p50_us", "us"),
    ("traced.sim_mev_per_s", "Mev/s"),
];

/// Whether `name` is a valid metric name: 1 to 64 ASCII letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted across all phases.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Human-readable correctness violations.
    pub violations: Vec<String>,
}

impl Report {
    /// Records metric `name` (which must be registered).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if unit_of(name).is_none() {
            self.violations.push(format!("unregistered metric {name:?}"));
            return;
        }
        self.values.insert(name, value);
    }

    /// Counts `attempted` operations of which `failed` failed a check.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a violation that is not tied to one operation; it counts
    /// as one failed operation.
    pub fn violation(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.violations.push(what);
    }

    /// Checks an invariant, recording a violation when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }

    /// Human-readable lines: `names` first, then every other metric the
    /// run measured, each with its unit.
    pub fn table(&self, names: &[(&str, &str)]) -> String {
        let line = |name: &str, unit: &str| match self.values.get(name) {
            Some(v) => format!("  {name:<36} {v:>16.4} {unit}\n"),
            None => format!("  {name:<36} {:>16} {unit}\n", "-"),
        };
        let others = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|(n, _)| self.values.contains_key(n) && !names.iter().any(|(m, _)| m == n));
        names.iter().chain(others).map(|(n, u)| line(n, u)).collect()
    }

    /// The result line for `names`: a JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. Missing or
    /// non-finite metrics become violations first, so the line never
    /// claims a correct run it cannot back.
    pub fn result_line(&mut self, names: &[(&'static str, &'static str)]) -> String {
        for (name, _) in names {
            debug_assert!(valid_metric_name(name), "{name}");
            match self.values.get(name) {
                None => self.violation(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => self.violation(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.values.get(name).filter(|v| v.is_finite())?;
                Some(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rule() {
        assert!(valid_metric_name("fwd_mpps"));
        assert!(valid_metric_name("router.key_cache_hit_ratio"));
        assert!(valid_metric_name("9lives-x"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("_x"));
        assert!(!valid_metric_name("p99 latency"));
        assert!(!valid_metric_name("µs"));
        assert!(!valid_metric_name(&"a".repeat(65)));
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit.bytes().all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)));
        }
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(doc.matches("\"unit\": ").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_fails_on_missing_metrics() {
        let mut report = Report::default();
        report.count(10, 0);
        report.set("fwd_mpps", 4.25);
        let line = report.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"fwd_mpps\": {\"value\": 4.25, \"unit\": \"Mpps\"}}}"
        );
        let line = report.result_line(&END_TO_END[..2]);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(!report.correct());
    }

    #[test]
    fn unregistered_and_non_finite_metrics_are_violations() {
        let mut report = Report::default();
        report.set("made_up", 1.0);
        assert!(!report.correct());
        let mut report = Report::default();
        report.set("fwd_mpps", f64::NAN);
        let line = report.result_line(&END_TO_END[..1]);
        assert!(line.contains("\"correct\": false") && line.contains("\"metrics\": {}"), "{line}");
    }
}
