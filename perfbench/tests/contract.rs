//! The benchmark's own checks: metric and workload names, agreement between
//! `BENCHMARK.json` and what the benchmark prints, tiny runs of every
//! workload passing every output check, and seeds driving the inputs.

use perfbench::{per_layer_metrics, run, valid_name, Config, Scale, Workload, END_TO_END};

#[global_allocator]
static ALLOCATOR: perfbench::alloc::Counting = perfbench::alloc::Counting;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of the objects in the `section` array of
/// `BENCHMARK.json` (`unit` is empty where an object has none).
fn section(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |object: &str, name: &str| -> String {
        let Some(at) = object.find(&format!("\"{name}\"")) else {
            return String::new();
        };
        let rest = &object[at + name.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let len = rest[open..].find('"').expect("value closes");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

fn expected_per_layer() -> Vec<(String, String)> {
    per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect()
}

fn expected_end_to_end() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_name_is_valid() {
    let workloads = Workload::ALL.map(|w| w.name().to_string());
    let metrics = expected_end_to_end()
        .into_iter()
        .chain(expected_per_layer());
    for name in workloads.into_iter().chain(metrics.map(|(n, _)| n)) {
        assert!(valid_name(&name), "invalid name {name}");
    }
    assert!(!valid_name("-leading-dash"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    assert_eq!(section("end_to_end"), expected_end_to_end());
    assert_eq!(section("per_layer"), expected_per_layer());
    let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}

/// A tiny run of `workload`: every check passes and exactly the expected
/// metrics come out, each a finite number.
fn tiny_run(workload: Workload, trace: bool) {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
    };
    let outcome = run(&cfg);
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        "{}: {:#?}",
        workload.name(),
        outcome.lines
    );
    let printed: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), (*u).to_string()))
        .collect();
    let expected = if trace {
        expected_per_layer()
    } else {
        expected_end_to_end()
    };
    assert_eq!(printed, expected, "{}", workload.name());
    for (name, value, _) in &outcome.metrics {
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
    }
    if !trace {
        assert!(
            outcome.metrics.iter().all(|(_, v, _)| *v > 0.0),
            "{:?}",
            outcome.metrics
        );
    }
}

#[test]
fn tiny_untraced_runs_pass_every_check() {
    for workload in Workload::ALL {
        tiny_run(workload, false);
    }
}

#[test]
fn tiny_traced_runs_pass_every_check() {
    for workload in Workload::ALL {
        tiny_run(workload, true);
    }
}

#[test]
fn the_seed_drives_the_inputs() {
    for workload in Workload::ALL {
        for scale in [Scale::Full, Scale::Tiny] {
            let a = workload.describe_inputs(1, scale);
            assert_eq!(a, workload.describe_inputs(1, scale), "{}", workload.name());
            assert_ne!(a, workload.describe_inputs(2, scale), "{}", workload.name());
        }
    }
}
