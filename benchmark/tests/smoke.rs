//! Self-tests of the benchmark program: every workload runs, traced and
//! untraced; what it prints is what `BENCHMARK.json` promises; counts repeat.
//!
//! `--smoke` keeps this to about a minute: one-second windows, rmat-14 in
//! place of rmat-20, set-up measured once.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use lightrw_benchmark::json::{self, Value};
use lightrw_benchmark::spec::{end_to_end, FIGURES, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    field(v, key)
        .as_array()
        .expect("an array")
        .iter()
        .map(|e| field(e, "name").as_str().expect("a name").to_string())
        .collect()
}

/// One run's parsed result line.
struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
    out: PathBuf,
}

fn run(workload: &str, trace: u8, seed: u64, tag: &str) -> Outcome {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_lightrw-benchmark"))
        .args(["--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = v
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // Every metric is also printed by name and unit on a line of its own.
    let metrics: Vec<(String, f64, String)> = field(&v, "metrics")
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = field(m, "unit").as_str().expect("unit").to_string();
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(name.as_str()) && l.ends_with(&format!(" {unit}"))),
                "{name} is not printed by name and unit"
            );
            (
                name.clone(),
                field(m, "value").as_f64().expect("value"),
                unit,
            )
        })
        .collect();
    Outcome {
        correct: field(&v, "correct").as_bool().expect("bool"),
        attempted: field(&v, "attempted").as_f64().expect("number"),
        failed: field(&v, "failed").as_f64().expect("number"),
        metrics,
        out,
    }
}

#[test]
fn benchmark_json_and_the_program_name_the_same_things() {
    let b = benchmark_json();
    assert_eq!(strings(&b, "workloads"), WORKLOADS);
    let listed: Vec<(String, String)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| field(&b, k).as_array().expect("array").to_vec())
        .map(|m| {
            (
                field(&m, "name").as_str().unwrap().to_string(),
                field(&m, "unit").as_str().unwrap().to_string(),
            )
        })
        .collect();
    let coded: Vec<(String, String)> = end_to_end()
        .map(|f| f.metric())
        .chain(PER_LAYER)
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(listed, coded);
    for (entry, spec) in field(&b, "end_to_end")
        .as_array()
        .unwrap()
        .iter()
        .zip(end_to_end())
    {
        assert_eq!(field(entry, "name").as_str(), Some(spec.name));
        let better = if spec.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(entry, "better").as_str(), Some(better));
        assert_eq!(field(entry, "bound").as_f64(), spec.bound);
        // ISSUE 13: a metric that cannot be held inside 10% is demoted, not
        // given a wider bound.
        assert!(
            spec.bound.unwrap() <= 0.10,
            "{} is bounded too loosely",
            spec.name
        );
    }
    // The paths hold the benchmark and the command names nothing outside them.
    assert_eq!(
        field(&b, "paths").as_array().unwrap(),
        [Value::Str("benchmark".into())]
    );
    let command = field(&b, "command").as_array().unwrap();
    assert!(command.contains(&Value::Str("benchmark/Cargo.toml".into())));
}

#[test]
fn every_workload_runs_untraced_and_prints_the_end_to_end_metrics() {
    for workload in WORKLOADS {
        let o = run(workload, 0, 7, "e2e");
        assert!(
            o.correct && o.failed == 0.0 && o.attempted >= 1.0,
            "{workload}"
        );
        let printed: Vec<(&str, &str)> = o
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let promised: Vec<(&str, &str)> = end_to_end().map(|f| (f.name, f.unit)).collect();
        assert_eq!(printed, promised, "{workload}");
        for (name, value, _) in &o.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }
        // The figures that are not gated are in the detail file, in order.
        let detail = std::fs::read_to_string(o.out.join("detail.json")).expect("detail file");
        let detail = json::parse(&detail).expect("detail.json is JSON");
        assert_eq!(field(&detail, "correct").as_bool(), Some(true));
        let reported: Vec<(&str, bool)> = field(&detail, "reported")
            .as_object()
            .expect("reported object")
            .iter()
            .map(|(n, m)| (n.as_str(), field(m, "value").as_f64().unwrap() > 0.0))
            .collect();
        let ungated: Vec<(&str, bool)> = FIGURES
            .iter()
            .filter(|f| f.bound.is_none())
            .map(|f| (f.name, true))
            .collect();
        assert_eq!(reported, ungated, "{workload}");
        // The packed graph of corpus-large is gone again.
        let left: Vec<_> = std::fs::read_dir(&o.out)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["detail.json"], "{workload} left files behind");
    }
}

#[test]
fn every_workload_runs_traced_and_exact_metrics_repeat() {
    for workload in WORKLOADS {
        let first = run(workload, 1, 7, "traced-a");
        assert!(first.correct && first.failed == 0.0, "{workload}");
        let printed: Vec<(&str, &str)> = first
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let promised: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(printed, promised, "{workload}");
        for (name, value, _) in &first.metrics {
            assert!(value.is_finite(), "{workload} {name} = {value}");
        }

        // The span file: a header, then `index name start end parent job`.
        let spans = std::fs::read_to_string(first.out.join("spans.tsv")).expect("span file");
        let mut rows = spans.lines();
        assert_eq!(
            rows.next(),
            Some("index\tname\tstart_ns\tend_ns\tparent\tjob")
        );
        let names: std::collections::BTreeSet<&str> = rows
            .map(|r| r.split('\t').nth(1).expect("six columns"))
            .collect();
        for layer in [
            "graph.pack_and_load",
            "baseline.advance",
            "baseline.emit",
            "service.tick",
            "http.job",
        ] {
            assert!(names.contains(layer), "{workload}: no {layer} span");
        }

        // Same seed again: every count and every ratio of counts is identical.
        let second = run(workload, 1, 7, "traced-b");
        let again: BTreeMap<&str, f64> = second
            .metrics
            .iter()
            .map(|(n, v, _)| (n.as_str(), *v))
            .collect();
        for (spec, (name, value, _)) in PER_LAYER.iter().zip(&first.metrics) {
            if spec.exact {
                assert_eq!(
                    again[name.as_str()],
                    *value,
                    "{workload}: {name} did not repeat"
                );
            }
        }
    }
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result_line() {
    for args in [
        vec!["--workload", "corpus", "--seed", "1"],
        vec!["--workload", "corpus-cached"],
        vec!["--seed", "1"],
        vec!["--workload", "corpus-cached", "--seed", "1", "--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_lightrw-benchmark"))
            .args(&args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?} should fail");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""));
    }
}
