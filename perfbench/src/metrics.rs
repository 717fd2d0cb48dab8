//! The names and units of every metric the benchmark reports, in the order
//! of `BENCHMARK.json`.
//!
//! Every run prints all of one pass's metrics, whatever its workload: the
//! untraced pass every end-to-end metric, each measured by every workload,
//! and the traced pass every per-layer metric, of which a workload measures
//! the layers it runs and reports the others as 0.

use crate::eval::CHILDREN;
use crate::sim_full::KINDS;
use mascot_predictors::PredictorKind;

/// End-to-end metrics: what a user of each workload waits on.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, named after the crate whose calls they time.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("host.nproc".into(), "count");
    add("host.ref_kernel_s".into(), "s");
    add("trace_overhead_pct".into(), "%");
    for child in CHILDREN {
        add(format!("bench.child_s.{child}"), "s");
    }
    add("workloads.generate_ns_per_uop".into(), "ns");
    for kind in KINDS {
        let k = kind.label();
        add(format!("sim.ns_per_uop.{k}"), "ns");
        add(format!("sim.cycle_loop_ns_per_uop.{k}"), "ns");
        add(format!("sim.ipc.{k}"), "ipc");
        add(format!("sim.cycles.{k}"), "cycles");
        add(format!("sim.mispredictions.{k}"), "count");
        if bypasses(kind) {
            add(format!("sim.smb_squashes.{k}"), "count");
        }
        if kind != PredictorKind::PerfectMdp {
            add(format!("sim.mem_order_squashes.{k}"), "count");
        }
    }
    add("sim.addback_gap_pct".into(), "%");
    add("sim.timing_err_pct".into(), "%");
    add("sim.functional_warm_ns_per_uop".into(), "ns");
    for kind in KINDS {
        let k = kind.label();
        add(format!("predictors.predict_ns.{k}"), "ns");
        add(format!("predictors.train_ns.{k}"), "ns");
        add(format!("predictors.branch_ns.{k}"), "ns");
        if kind != PredictorKind::PerfectMdp {
            add(format!("predictors.rewind_ns.{k}"), "ns");
        }
        add(format!("predictors.store_ns.{k}"), "ns");
        add(format!("predictors.calls.{k}"), "count");
        add(format!("predictors.share.{k}"), "ratio");
    }
    for kind in KINDS {
        if kind != PredictorKind::PerfectMdp {
            let k = kind.label();
            add(format!("predictors.differential_ns_per_uop.{k}"), "ns");
            add(format!("predictors.wrapper_gap_ns_per_uop.{k}"), "ns");
        }
    }
    add("predictors.batch_predict_ns_per_item".into(), "ns");
    add("predictors.batch_train_ns_per_item".into(), "ns");
    for (name, unit) in [
        ("plan_s", "s"),
        ("warm_s", "s"),
        ("measure_s", "s"),
        ("simulated_uops", "uops"),
        ("represented_uops", "uops"),
        ("marginal_speedup", "x"),
        ("ipc_err_mean_pct", "%"),
        ("ipc_err_max_pct", "%"),
    ] {
        add(format!("sampling.{name}"), unit);
    }
    for (name, unit) in [
        ("items_per_s", "items/s"),
        ("startup_wall_s", "s"),
        ("predict_rtt_p50_us", "us"),
        ("predict_rtt_p99_us", "us"),
        ("train_rtt_p50_us", "us"),
        ("train_rtt_p99_us", "us"),
        ("p999_us", "us"),
        ("frames", "count"),
        ("wire_encode_ns_per_frame", "ns"),
        ("wire_decode_ns_per_frame", "ns"),
        ("shard_service_p50_us", "us"),
        ("shard_service_p99_us", "us"),
        ("unattributed_p50_us", "us"),
        ("shard_batches", "count"),
        ("busy_rejected", "count"),
        ("stale_trains", "count"),
        ("pool_items_per_s", "items/s"),
    ] {
        add(format!("serve.{name}"), unit);
    }
    m
}

/// Kinds that bypass stores speculatively, and so can be squashed for it.
pub fn bypasses(kind: PredictorKind) -> bool {
    matches!(kind, PredictorKind::Mascot | PredictorKind::NoSq)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one list of the manifest,
    /// which holds one object per line.
    fn manifest_list(text: &str, key: &str) -> Vec<(String, String)> {
        let field = |line: &str, f: &str| -> Option<String> {
            let start = line.find(&format!("\"{f}\": \""))? + f.len() + 5;
            let len = line[start..].find('"')?;
            Some(line[start..start + len].to_string())
        };
        text.lines()
            .skip_while(|l| !l.contains(&format!("\"{key}\"")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| {
                (
                    field(l, "name").expect("metric line has a name"),
                    field(l, "unit").expect("metric line has a unit"),
                )
            })
            .collect()
    }

    #[test]
    fn lists_match_the_manifest() {
        let text = include_str!("../../BENCHMARK.json");
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            manifest_list(text, "end_to_end"),
            owned(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect())
        );
        assert_eq!(manifest_list(text, "per_layer"), owned(per_layer()));
    }
}
