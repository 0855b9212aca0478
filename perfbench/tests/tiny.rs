//! The benchmark's own checks, on tiny cells that run in well under a
//! second: the metric names and units agree with `BENCHMARK.json` and all
//! print, a wrong digest pin or a failure that never strikes is a failed
//! operation rather than a panic, and the seed reaches the generated
//! inputs only.

use perfbench::cell::run_cell;
use perfbench::inputs::{cells, Cell, Pin, WORKLOADS};
use perfbench::measure::{measure, per_layer, Opts, END_TO_END};
use perfbench::report::{result_line, select, table};
use scenario::{ClusterStrategy, Executor, FailureModelSpec, ProtocolSpec, ScenarioSpec};
use sweep_server::codec::encode_record;
use sweep_server::json::Value;
use workloads::WorkloadSpec;

const APP: &str = "stencil:16x20:face=64:compute_us=10";

fn spec(protocol: &str, clusters: &str) -> ScenarioSpec {
    ScenarioSpec::new(
        WorkloadSpec::parse(APP).unwrap(),
        ProtocolSpec::parse(protocol).unwrap(),
        ClusterStrategy::parse(clusters).unwrap(),
    )
}

/// The failure-free outcome of [`APP`], from the product executor.
fn pin() -> Pin {
    let r = Executor::run_one(&spec("native", "single"));
    Pin {
        digest: r.digest,
        events: Some(r.metrics.events),
    }
}

/// A miniature of all three workloads: perturbed serial and sharded
/// halos, and recovering HydEE and baseline cells.
fn tiny_cells() -> Vec<Cell> {
    let pin = pin();
    let failure = FailureModelSpec::parse("fail@100us:r5").unwrap();
    let recovered = |protocol: &str| Cell {
        spec: spec(protocol, "blocks4").with_failure_model(failure.clone()),
        perturb_seed: None,
        pin: Pin {
            digest: pin.digest,
            events: None,
        },
    };
    vec![
        Cell {
            spec: spec("native", "single"),
            perturb_seed: Some(7),
            pin,
        },
        Cell {
            spec: spec("native", "blocks4").with_shards(2),
            perturb_seed: Some(7),
            pin,
        },
        recovered("hydee:ckpt1ms"),
        recovered("coordinated:ckpt1ms"),
        recovered("event-logged:ckpt1ms"),
    ]
}

fn opts(tag: &str, trace: bool) -> Opts {
    Opts {
        seconds: 0.0,
        trace,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{tag}")),
    }
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_metric_prints_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let end_to_end: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.into(), u)).collect();
    assert_eq!(listed(&doc, "end_to_end"), own(end_to_end.clone()));
    assert_eq!(listed(&doc, "per_layer"), own(per_layer()));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let cells = tiny_cells();
    for (trace, wanted) in [(false, end_to_end), (true, per_layer())] {
        let outcome = measure(&cells, &opts(&format!("units-{trace}"), trace)).unwrap();
        assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.problems);
        let metrics = select(&wanted, &outcome.metrics).unwrap();
        let printed = table(&metrics);
        let line = result_line(&outcome.tally, &metrics);
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        for (name, unit) in &wanted {
            assert!(printed
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.ends_with(unit)));
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing"
            );
            assert!(
                line.contains(&format!(",\"unit\":\"{unit}\"}}")),
                "{unit} missing"
            );
        }
        let parsed = Value::parse(&line).unwrap();
        assert_eq!(
            parsed.get("attempted").and_then(Value::as_u64),
            Some(outcome.tally.attempted)
        );
        if trace {
            let spans = outcome.spans.expect("a traced run keeps its spans");
            let layers: Vec<&str> = spans.summary().iter().map(|l| l.layer).collect();
            for layer in [
                "store",
                "scenario",
                "workloads",
                "clustering",
                "mps_sim",
                "par_sim",
                "protocol",
                "codec",
            ] {
                assert!(layers.contains(&layer), "no spans for {layer}");
            }
        }
    }
}

#[test]
fn wrong_digest_pin_is_a_failed_operation() {
    let mut cells = tiny_cells();
    cells[2].pin.digest ^= 1;
    let outcome = measure(&cells, &opts("wrong-pin", false)).unwrap();
    assert_eq!(outcome.tally.failed, 1, "{:?}", outcome.tally.problems);
    assert!(outcome.tally.problems[0].contains("digest"));
    let metrics = select(
        &END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect::<Vec<_>>(),
        &outcome.metrics,
    )
    .unwrap();
    assert!(result_line(&outcome.tally, &metrics).starts_with("{\"correct\":false,"));
}

#[test]
fn failure_that_never_strikes_is_a_failed_operation() {
    // A failure model capped at no failures: the digest still matches the
    // pin, but nothing was recovered.
    let none = FailureModelSpec::Poisson {
        mtbf_ms: 1,
        seed: 1,
        max_failures: 0,
    };
    let mut cells = tiny_cells();
    cells[2].spec = cells[2].spec.clone().with_failure_model(none);
    let outcome = measure(&cells, &opts("never-strikes", false)).unwrap();
    assert_eq!(outcome.tally.failed, 1, "{:?}", outcome.tally.problems);
    assert!(outcome.tally.problems[0].contains("no failure struck"));
}

#[test]
fn benchmark_runs_cells_as_the_executor_does() {
    for cell in tiny_cells().iter().filter(|c| c.perturb_seed.is_none()) {
        let product = encode_record(&Executor::run_one(&cell.spec));
        for traced in [false, true] {
            let run = run_cell(cell, traced);
            assert!(run.problems.is_empty(), "{:?}", run.problems);
            assert!(
                run.record.metrics.failures > 0,
                "the failure must strike mid-run"
            );
            assert_eq!(encode_record(&run.record), product, "traced={traced}");
        }
    }
}

/// `cells` with every seed-derived field blanked.
fn unseeded(mut cells: Vec<Cell>) -> Vec<Cell> {
    for c in &mut cells {
        c.perturb_seed = c.perturb_seed.map(|_| 0);
        if let FailureModelSpec::Poisson { seed, .. } = &mut c.spec.failure_model {
            *seed = 0;
        }
    }
    cells
}

#[test]
fn seed_reaches_generated_inputs_only() {
    for w in WORKLOADS {
        let a = cells(w, 1).unwrap();
        let b = cells(w, 2).unwrap();
        assert_eq!(a, cells(w, 1).unwrap(), "{w}: same seed, same inputs");
        assert_ne!(a, b, "{w}: the seed must reach the inputs");
        assert_eq!(
            unseeded(a),
            unseeded(b),
            "{w}: the seed changes only seed fields"
        );
    }
    assert!(cells("no_such_workload", 1).is_none());
    // The pins do not depend on the seed: send-determinism.
    let pins = |s| {
        cells("hydee_sweep", s)
            .unwrap()
            .iter()
            .map(|c| c.pin)
            .collect::<Vec<_>>()
    };
    assert_eq!(pins(1), pins(99));
}
