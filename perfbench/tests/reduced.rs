//! Reduced runs of every workload, and the metric names against
//! `BENCHMARK.json`.

use whodunit_perfbench::workloads::{Scale, Workload};
use whodunit_perfbench::{result_json, run, RunConfig, END_TO_END, PER_LAYER};

fn reduced(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::REDUCED,
    }
}

/// A workload or metric name as `BENCHMARK.json` allows it.
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        for (trace, spec) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = run(&reduced(w, trace));
            let ctx = format!("{} trace={trace}", w.name());
            assert!(r.correct, "{ctx}: {:?}", r.lines);
            assert_eq!(r.failed, 0, "{ctx}");
            assert!(r.attempted > 0, "{ctx}");
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, spec, "{ctx}");
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{ctx}: {m:?}");
                if !trace {
                    assert!(m.value > 0.0, "{ctx}: end-to-end metric is 0: {m:?}");
                }
            }
            let json = result_json(&r);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            for (name, _) in spec {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{ctx}: {name}"
                );
            }
        }
    }
}

#[test]
fn traced_federation_splits_ticks_and_reports_recovery() {
    let r = run(&reduced(Workload::FederationFaults, true));
    let get = |n: &str| r.metrics.iter().find(|m| m.name == n).expect(n).value;
    assert!(get("federation.tick_ckpt.busy_ms") > 0.0);
    assert!(get("federation.tick_plain.busy_ms") > 0.0);
    assert!(get("federation.checkpoints") > 0.0);
    assert!(get("federation.retransmits") > 0.0);
    assert!(get("federation.recovery_epochs") > 0.0);
    assert_eq!(get("federation.coverage_ppm.ledger"), 1_000_000.0);
    // The breakdown of a pass accounts for its whole wall time.
    assert!(r
        .lines
        .iter()
        .any(|l| l.trim_start().starts_with("unattributed")));
    assert!(r
        .tracer
        .spans()
        .iter()
        .any(|s| s.name == "federation.feed_round"));
}

#[test]
fn names_and_units_follow_the_benchmark_format() {
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "{}", w.name());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "names are used once");
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            spec.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
        assert!(
            spec.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = spec.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
