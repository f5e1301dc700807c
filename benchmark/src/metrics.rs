//! The metric tables: every name the command prints, with its unit,
//! direction and (end to end) the bound by which it may get worse.
//! `BENCHMARK.json` declares the same tables; a test keeps them equal.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End to end: share of the parent's median by which the metric may
    /// get worse before a change is rejected.
    pub bound: f64,
    /// Repeats bit for bit on the simulated workloads (sim clock or an
    /// event count), so `--check-repeat` demands equality there.
    pub exact_on_sim: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound, exact_on_sim: false }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact_on_sim: false }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact_on_sim: true }
}

pub const WORKLOADS: [&str; 4] =
    ["sim_be_scatter", "sim_rel_loss", "sim_log_tenants", "udp_rel_window"];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    Metric { exact_on_sim: true, ..e2e("deliver_p50_us", "us", "lower", 0.25) },
    Metric { exact_on_sim: true, ..e2e("deliver_p95_us", "us", "lower", 0.25) },
    e2e("msgs_per_wall_s", "ops/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer figures, printed by the traced run. A figure that does
/// not apply to a workload (a UDP counter on the simulator) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("types.encode_into_ns", "ns", "lower"),
    layer("types.decode_ns", "ns", "lower"),
    layer("types.batch_encode_ns_per_dgram", "ns", "lower"),
    layer("types.decode_frame_ns_per_dgram", "ns", "lower"),
    exact("netsim.events", "count", "lower"),
    exact("netsim.packets_sent", "count", "lower"),
    exact("netsim.drops_inflight", "count", "lower"),
    exact("netsim.drops_overflow", "count", "lower"),
    exact("netsim.ecn_marks", "count", "lower"),
    layer("netsim.ns_per_event", "ns", "lower"),
    layer("netsim.sched_push_pop_ns", "ns", "lower"),
    layer("netsim.route_live_ns", "ns", "lower"),
    layer("netsim.sched_est_share", "ratio", "lower"),
    layer("switchlogic.be_observe_out_ns", "ns", "lower"),
    layer("switchlogic.commit_observe_out_ns", "ns", "lower"),
    layer("switchlogic.est_share", "ratio", "lower"),
    layer("core.reorder_insert_ns", "ns", "lower"),
    layer("core.reorder_advance_ns_per_msg", "ns", "lower"),
    layer("core.endpoint_be_roundtrip_ns", "ns", "lower"),
    layer("core.endpoint_rel_roundtrip_ns", "ns", "lower"),
    exact("core.retransmits", "count", "lower"),
    exact("core.retransmit_ratio", "ratio", "lower"),
    exact("core.commits_sent", "count", "lower"),
    exact("core.send_failures", "count", "lower"),
    exact("core.late_drops", "count", "lower"),
    exact("core.commit_anomalies", "count", "lower"),
    exact("core.delivered_be", "count", "higher"),
    exact("core.delivered_rel", "count", "higher"),
    exact("core.peak_reorder_bytes", "B", "lower"),
    exact("core.barrier_wait_p50_us", "us", "lower"),
    exact("core.barrier_wait_model_us", "us", "lower"),
    layer("core.harness_send_ns", "ns", "lower"),
    layer("core.run_until_share", "ratio", "higher"),
    layer("controller.leader_elect_ms", "ms", "lower"),
    exact("controller.elections", "count", "lower"),
    exact("controller.ctrl_retries", "count", "lower"),
    layer("log.gate_offer_ns", "ns", "lower"),
    layer("log.gate_offer_ooo_ns", "ns", "lower"),
    layer("log.shard_apply_ns", "ns", "lower"),
    exact("log.acked_appends", "count", "higher"),
    exact("log.sub_records", "count", "higher"),
    exact("log.credit_stalls", "count", "lower"),
    exact("log.held_peak", "count", "lower"),
    exact("log.unacked_end", "count", "lower"),
    exact("log.sub_e2e_p99_us", "us", "lower"),
    exact("log.admit_wait_p50_us", "us", "lower"),
    exact("log.admit_wait_p99_us", "us", "lower"),
    layer("log.est_share", "ratio", "lower"),
    layer("udp.rx_frames", "count", "lower"),
    layer("udp.tx_frames", "count", "lower"),
    layer("udp.rx_datagrams", "count", "lower"),
    layer("udp.tx_datagrams", "count", "lower"),
    layer("udp.msgs_per_syscall", "ratio", "higher"),
    layer("udp.syscalls_per_op", "ratio", "lower"),
    layer("udp.datagrams_per_op", "ratio", "lower"),
    layer("udp.bytes_per_op", "B", "lower"),
    layer("udp.tx_singleton_ratio", "ratio", "lower"),
    layer("udp.decode_errors", "count", "lower"),
    layer("udp.idle_syscalls_per_s", "1/s", "lower"),
    layer("udp.idle_cpu_pct", "%", "lower"),
    layer("bench.cpu_us_per_msg", "us", "lower"),
    layer("bench.generator_share", "ratio", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
];

/// Values by metric name, in table order; absent per-layer names read 0.
pub struct Values {
    table: &'static [Metric],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(table: &'static [Metric]) -> Self {
        Values { table, values: vec![None; table.len()] }
    }

    /// Set a metric. Panics on a name the table does not declare: the
    /// printed names must match the declared names exactly.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// `(metric, value)` for every declared metric, unset ones as 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().zip(&self.values).map(|(m, v)| (m, v.unwrap_or(0.0)))
    }

    /// Names never set; an end-to-end table must have none.
    pub fn unset(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(m, _)| m.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quoted strings that follow `"key":` inside the array `section`
    /// of BENCHMARK.json, in order. Enough JSON for a file we write.
    fn strings_of(json: &str, section: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let pat = format!("\"{key}\":");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = body[i + pat.len()..].trim_start();
                let rest = rest.strip_prefix('"').unwrap_or(rest);
                rest[..rest.find(['"', ',', '}']).expect("value ends")].trim().to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(strings_of(&json, "workloads", "name"), WORKLOADS);
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(strings_of(&json, section, "name"), names, "{section} names");
            let units: Vec<&str> = table.iter().map(|m| m.unit).collect();
            assert_eq!(strings_of(&json, section, "unit"), units, "{section} units");
            let better: Vec<&str> = table.iter().map(|m| m.better).collect();
            assert_eq!(strings_of(&json, section, "better"), better, "{section} directions");
        }
        let bounds: Vec<f64> = strings_of(&json, "end_to_end", "bound")
            .iter()
            .map(|b| b.parse().expect("bound is a number"))
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>());
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).chain(WORKLOADS) {
            assert!(ok(m), "bad name {m}");
            assert!(seen.insert(m), "{m} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Values::new(END_TO_END).set("latency_ms", 1.0);
    }
}
