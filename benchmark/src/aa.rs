//! `aa`: does the same code agree with itself within the bounds?
//! `compare`: did a change move a figure, by the guide's rules?
//!
//! Both work on *sets*: one untraced run of every workload, each run in a
//! process of its own (so peak RSS and CPU time start from zero, as they do
//! under the driver), and both read the `detail.json` a run writes, which
//! carries the figures that are not gated beside the ones that are.
//! `aa --out DIR` keeps each run's file as `DIR/<workload>/seed-<n>.json`;
//! `compare` reads two such directories.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::inputs::Workload;
use crate::json::{self, Value};
use crate::spec::{Figure, FIGURES};
use crate::stats::{iqr_share, median, quartiles};

/// Figure values of one workload, by seed then by figure name.
type Runs = BTreeMap<u64, BTreeMap<String, f64>>;

/// The figures of one run, gated and not, out of its `detail.json`.
fn figures_of(detail: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = json::parse(detail)?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("the run was not correct".into());
    }
    let mut figures = BTreeMap::new();
    for group in ["metrics", "reported"] {
        let entries = v
            .get(group)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("detail file without {group}"))?;
        for (name, m) in entries {
            let x = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("figure {name} without a value"))?;
            figures.insert(name.clone(), x);
        }
    }
    Ok(figures)
}

/// Run one workload in a child process and return its `detail.json`.
fn run_child(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let dir = scratch.join(w.name());
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(&dir)
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} failed: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let path = dir.join("detail.json");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn column(runs: &Runs, metric: &str) -> Vec<f64> {
    runs.values()
        .filter_map(|m| m.get(metric).copied())
        .collect()
}

/// How much worse `worse` is than `better_one`, as a share of `better_one`,
/// in the metric's own direction (negative when it is in fact better).
fn worse_by(spec: &Figure, better_one: f64, worse: f64) -> f64 {
    if spec.higher_is_better {
        (better_one - worse) / better_one
    } else {
        (worse - better_one) / better_one
    }
}

/// Run `sets` sets with seeds `seed, seed+1, ...`, alternating the workload
/// order, and hold every workload x gated figure to its bound: the two set
/// values furthest apart may not differ by more than the bound. The spread
/// between the quartiles (the driver's measure) is printed beside it, and
/// the figures that are not gated are printed the same way, unjudged, so
/// that what demoted them stays on record. `setup_s` is judged as the
/// driver judges it, because the driver requires it on every workload and
/// it cannot be demoted: its spread is exempt, and the median of the even
/// sets may not differ from the median of the odd sets by more than the
/// bound.
pub fn run_aa(sets: usize, seed: u64, seconds: f64, out: Option<&Path>) -> Result<(), String> {
    if sets < 2 {
        return Err("--sets must be at least 2 (10 or more for a verdict worth keeping)".into());
    }
    let scratch = out.map_or_else(
        || Path::new("benchmark/out/aa").to_path_buf(),
        Path::to_path_buf,
    );
    let mut runs: BTreeMap<&'static str, Runs> = BTreeMap::new();
    for set in 0..sets {
        let mut order = Workload::ALL;
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = seed + set as u64;
            eprintln!("set {}/{sets}: {} seed {seed}", set + 1, w.name());
            let detail = run_child(w, seed, seconds, &scratch)?;
            if out.is_some() {
                let path = scratch.join(w.name()).join(format!("seed-{seed}.json"));
                std::fs::write(&path, &detail)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            runs.entry(w.name())
                .or_default()
                .insert(seed, figures_of(&detail)?);
        }
    }
    println!(
        "{:<16} {:<20} {:>16} {:>9} {:>9} {:>7}  verdict",
        "workload", "figure", "median", "iqr", "furthest", "bound"
    );
    let mut breaches = 0;
    for w in Workload::ALL {
        for spec in &FIGURES {
            let xs = column(&runs[w.name()], spec.name);
            let (lo, hi) = xs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let furthest = if spec.higher_is_better {
                worse_by(spec, hi, lo)
            } else {
                worse_by(spec, lo, hi)
            };
            let (bound, verdict) = match spec.bound {
                None => ("-".to_string(), "not gated"),
                Some(bound) => {
                    let moved = if spec.name == "setup_s" {
                        let half = |k: usize| {
                            median(&xs.iter().skip(k).step_by(2).copied().collect::<Vec<_>>())
                        };
                        (half(0) - half(1)).abs() / half(0).min(half(1))
                    } else {
                        furthest
                    };
                    breaches += (moved > bound) as usize;
                    let verdict = match (moved <= bound, spec.name) {
                        (true, "setup_s") => "ok (halves)",
                        (true, _) => "ok",
                        (false, _) => "BREACH",
                    };
                    (format!("{:.0}%", bound * 100.0), verdict)
                }
            };
            println!(
                "{:<16} {:<20} {:>16.6} {:>8.2}% {:>8.2}% {bound:>7}  {verdict}",
                w.name(),
                spec.name,
                median(&xs),
                iqr_share(&xs) * 100.0,
                furthest * 100.0,
            );
        }
    }
    if breaches > 0 {
        return Err(format!(
            "{breaches} workload/metric pairs moved by more than their bound on identical code"
        ));
    }
    Ok(())
}

fn read_dir_runs(dir: &Path, w: Workload) -> Result<Runs, String> {
    let dir = dir.join(w.name());
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut runs = Runs::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let seed = path.file_name().and_then(|n| n.to_str()).and_then(|n| {
            n.strip_prefix("seed-")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        });
        // The last run's own `detail.json` lives here too.
        let Some(seed) = seed else { continue };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        runs.insert(
            seed,
            figures_of(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    Ok(runs)
}

/// The verdict on one workload x figure, by choosing-metrics sections 6-8.
/// A figure without a bound can be `improved` or `worsened` by the paired
/// rule, which alternating runs protect from the host's moods; it can never
/// be `regressed` or `unchanged`, because nothing says by how much it may
/// move.
fn verdict(spec: &Figure, base: &Runs, change: &Runs) -> (&'static str, String) {
    let (b, c) = (column(base, spec.name), column(change, spec.name));
    if b.len() < 2 || c.len() < 2 {
        return ("too few runs", String::new());
    }
    let (b_med, c_med) = (median(&b), median(&c));
    let spread = iqr_share(&b);
    let (q1, q3) = quartiles(&b);
    let row = format!(
        "{b_med:>16.6} {c_med:>16.6}  x{:<7.4} of {b_med:<14.6} {:>5} {:>7.2}%",
        c_med / b_med,
        spec.bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        spread * 100.0
    );
    let better = |x: f64, than: f64| worse_by(spec, x, than) > 0.0;
    let pairs: Vec<(f64, f64)> = base
        .iter()
        .filter_map(|(seed, m)| Some((*m.get(spec.name)?, *change.get(seed)?.get(spec.name)?)))
        .collect();
    // Nine tenths of the pairs on one side, ties on neither, and the medians
    // further apart than the base's own quartiles.
    let clear = |change_wins: bool| {
        let won = pairs
            .iter()
            .filter(|&&(b, c)| {
                if change_wins {
                    better(c, b)
                } else {
                    better(b, c)
                }
            })
            .count();
        !pairs.is_empty()
            && won * 10 >= pairs.len() * 9
            && better(c_med, b_med) == change_wins
            && (c_med - b_med).abs() > q3 - q1
    };
    let verdict = match spec.bound {
        Some(bound) => {
            let every_change_run_better = c.iter().all(|&x| b.iter().all(|&y| better(x, y)));
            if spread > bound && !every_change_run_better {
                "unresolved"
            } else if worse_by(spec, b_med, c_med) > bound {
                "regressed"
            } else if clear(true) {
                "improved"
            } else {
                "unchanged"
            }
        }
        None if clear(true) => "improved",
        None if clear(false) => "worsened",
        None => "no verdict",
    };
    (verdict, row)
}

/// Print one row per workload x figure for two directories of runs.
pub fn run_compare(base_dir: &Path, change_dir: &Path) -> Result<(), String> {
    println!(
        "{:<16} {:<20} {:>16} {:>16}  {:<26} {:>5} {:>8}  verdict",
        "workload", "figure", "base", "change", "ratio", "bound", "spread"
    );
    for w in Workload::ALL {
        let base = read_dir_runs(base_dir, w)?;
        let change = read_dir_runs(change_dir, w)?;
        for spec in &FIGURES {
            let (verdict, row) = verdict(spec, &base, &change);
            println!("{:<16} {:<20} {row}  {verdict}", w.name(), spec.name);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(metric: &str, values: &[f64]) -> Runs {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, BTreeMap::from([(metric.to_string(), v)])))
            .collect()
    }

    fn spec(name: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.name == name).unwrap()
    }

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];
    const NOISY: [f64; 10] = [
        80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0,
    ];

    fn scaled(xs: &[f64], by: f64) -> Vec<f64> {
        xs.iter().map(|x| x * by).collect()
    }

    #[test]
    fn gated_verdicts_follow_the_guide() {
        let s = spec("peak_rss_mb"); // lower is better, bound 8%
        let base = runs(s.name, &STEADY);
        assert_eq!(verdict(s, &base, &base.clone()).0, "unchanged");
        let down = runs(s.name, &scaled(&STEADY, 0.95));
        assert_eq!(verdict(s, &base, &down).0, "improved");
        let up = runs(s.name, &scaled(&STEADY, 1.25));
        assert_eq!(verdict(s, &base, &up).0, "regressed");
        // Within the bound is not a regression.
        let bump = runs(s.name, &scaled(&STEADY, 1.05));
        assert_eq!(verdict(s, &base, &bump).0, "unchanged");
        // A base whose own spread exceeds the bound resolves nothing...
        let noisy = runs(s.name, &NOISY);
        assert_eq!(verdict(s, &noisy, &noisy).0, "unresolved");
        // ...unless every run of the change beats every run of the base.
        let far = runs(s.name, &[50.0; 10]);
        assert_eq!(verdict(s, &noisy, &far).0, "improved");
        assert_eq!(verdict(s, &runs(s.name, &[1.0]), &far).0, "too few runs");
    }

    #[test]
    fn ungated_verdicts_use_the_paired_rule_alone() {
        let s = spec("steps_per_s"); // higher is better, no bound
        let base = runs(s.name, &STEADY);
        assert_eq!(verdict(s, &base, &base.clone()).0, "no verdict");
        let up = runs(s.name, &scaled(&STEADY, 1.05));
        assert_eq!(verdict(s, &base, &up).0, "improved");
        let down = runs(s.name, &scaled(&STEADY, 0.75));
        assert_eq!(verdict(s, &base, &down).0, "worsened");
        // A gap inside the base's own quartiles proves nothing.
        let noisy = runs(s.name, &NOISY);
        let nudge = runs(s.name, &scaled(&NOISY, 1.05));
        assert_eq!(verdict(s, &noisy, &nudge).0, "no verdict");
    }

    #[test]
    fn direction_follows_the_metric() {
        let lower = spec("job_p50_ms");
        assert!(worse_by(lower, 10.0, 11.0) > 0.0);
        let higher = spec("steps_per_s");
        assert!(worse_by(higher, 10.0, 11.0) < 0.0);
    }

    #[test]
    fn detail_files_must_be_correct_and_carry_both_groups() {
        let ok = r#"{"correct": true, "metrics": {"a": {"value": 2.5, "unit": "s"}}, "reported": {"b": {"value": 4, "unit": "ms"}}}"#;
        let figures = figures_of(ok).unwrap();
        assert_eq!((figures["a"], figures["b"]), (2.5, 4.0));
        assert!(figures_of(&ok.replace("true", "false")).is_err());
        assert!(figures_of(&ok.replace("reported", "other")).is_err());
    }
}
