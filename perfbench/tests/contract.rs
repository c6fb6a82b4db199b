//! The benchmark's own contract: the traced re-drives reproduce the
//! untraced outputs, and the metrics the harness prints are exactly the
//! ones `BENCHMARK.json` declares, with the same units.

use majorcan_campaign::json::{parse, Value};
use majorcan_campaign::CampaignOptions;
use majorcan_falsify::{run_attack_search, run_search};
use majorcan_perfbench::probe::traced_soak;
use majorcan_perfbench::run::{traced, untraced};
use majorcan_perfbench::trace::{traced_attack, traced_search, Tracer};
use majorcan_perfbench::workloads::{
    attack_config, check_search, search_config, soak_counters, soak_spec, CampaignOutput, Workload,
};
use majorcan_traffic::run_soak;
use std::collections::BTreeMap;

#[test]
fn traced_runs_reproduce_the_untraced_outputs_at_a_small_size() {
    let tracer = Tracer::default();
    let opts = CampaignOptions::quiet(2);
    for (workload, size) in [(Workload::Falsify, 20), (Workload::FalsifyMajor, 200)] {
        let cfg = search_config(workload, workload.default_seed(), size);
        let traced = traced_search(&cfg, 2, &tracer, 0).output;
        let report = run_search(&cfg, &opts, None).expect("in-memory search");
        let untraced = CampaignOutput::from_search(&report);
        assert_eq!(traced, untraced, "{}", workload.name());
        assert_eq!(
            check_search(&cfg, &traced).digest(),
            check_search(&cfg, &untraced).digest()
        );
    }

    let cfg = attack_config(Workload::Attack.default_seed(), 10);
    let traced = traced_attack(&cfg, 2, &tracer, 0).output;
    let report = run_attack_search(&cfg, &opts, None).expect("in-memory attack search");
    assert_eq!(traced, CampaignOutput::from_attack(&report));

    let spec = soak_spec(Workload::Soak.default_seed(), 500);
    let traced = traced_soak(&spec, 64, &tracer, 0).counters;
    let out = run_soak(&spec, None).expect("soak without exporter");
    assert_eq!(traced, soak_counters(&spec, &out));
    assert_eq!(traced["verdict/consistent"], 1);

    assert!(!tracer.spans().is_empty());
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared(bench: &Value, key: &str) -> BTreeMap<String, String> {
    let Some(Value::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(line: &str) -> BTreeMap<String, String> {
    let result = parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = result
        .pairs()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    result
        .get("metrics")
        .and_then(Value::pairs)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let bench = benchmark_json();
    let names: Vec<String> = match bench.get("workloads") {
        Some(Value::Arr(ws)) => ws
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no workloads"),
    };
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);

    let seed = Workload::Soak.default_seed();
    let run = untraced(Workload::Soak, seed, 400, 0.001);
    assert!(run.problems.is_empty(), "{:?}", run.problems);
    assert_eq!(printed(&run.result_line()), declared(&bench, "end_to_end"));

    let run = traced(Workload::Soak, seed, 400, 0.001);
    assert!(run.problems.is_empty(), "{:?}", run.problems);
    assert_eq!(printed(&run.result_line()), declared(&bench, "per_layer"));
}
