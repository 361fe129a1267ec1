use std::path::PathBuf;
use std::process::ExitCode;

use lightrw_benchmark::endtoend::{self, RunOptions, RunResult};
use lightrw_benchmark::inputs::Workload;
use lightrw_benchmark::json::{obj, Value};
use lightrw_benchmark::{aa, ladder, spec};

const USAGE: &str = "\
usage:
  lightrw-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
      run one workload; the last line of stdout is the result as JSON
  lightrw-benchmark aa [--sets N] [--seed BASE] [--seconds S] [--out DIR]
      run N sets of all workloads and hold every gated figure to its bound
  lightrw-benchmark compare BASE_DIR CHANGE_DIR
      compare two directories written by `aa --out`, one row per workload and figure
workloads: corpus-cached corpus-large corpus-node2vec serve-stream";

/// Seconds a run measures when `--seconds` is absent; `BENCHMARK.json`'s
/// `run_seconds` names the same figure for the driver.
const DEFAULT_SECONDS: f64 = 20.0;

struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Remove `--name VALUE` and return the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{name} needs a value"));
        }
        self.args.remove(i);
        Ok(Some(self.args.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    /// Remove a bare `--name` and say whether it was there.
    fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn seconds_flag(flags: &mut Flags) -> Result<f64, String> {
    let seconds = flags.parsed::<f64>("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0 {
        Ok(seconds)
    } else {
        Err("--seconds must be between 0 and 3600".into())
    }
}

fn print_result(result: &RunResult) {
    for (m, v) in &result.metrics {
        println!("{:<40} {v:>18.6} {}", m.name, m.unit);
    }
    for (m, v) in &result.reported {
        println!("{:<40} {v:>18.6} {}  (not gated)", m.name, m.unit);
    }
    let line = obj(vec![
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", result.metrics_json()),
    ]);
    println!("{}", line.render());
}

fn run(mut flags: Flags) -> Result<(), String> {
    let name = flags.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", spec::WORKLOADS))?;
    let seed = flags.parsed::<u64>("--seed")?.ok_or("--seed is required")?;
    let seconds = seconds_flag(&mut flags)?;
    let trace = match flags.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let smoke = flags.switch("--smoke");
    let out = flags.value("--out")?.map_or_else(
        || {
            PathBuf::from(format!(
                "benchmark/out/{name}-seed{seed}-trace{}",
                trace as u8
            ))
        },
        PathBuf::from,
    );
    flags.finish()?;
    let opts = RunOptions {
        workload,
        seed,
        seconds,
        smoke,
        out,
    };
    let result = if trace {
        ladder::run(&opts)?
    } else {
        endtoend::run(&opts)?
    };
    endtoend::write_detail(&opts.out, &result)?;
    print_result(&result);
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("aa") => {
            args.remove(0);
            let mut flags = Flags { args };
            (|| {
                let sets = flags.parsed::<usize>("--sets")?.unwrap_or(10);
                let seed = flags.parsed::<u64>("--seed")?.unwrap_or(1);
                let seconds = seconds_flag(&mut flags)?;
                let out = flags.value("--out")?.map(PathBuf::from);
                flags.finish()?;
                aa::run_aa(sets, seed, seconds, out.as_deref())
            })()
        }
        Some("compare") => match &args[1..] {
            [base, change] => aa::run_compare(base.as_ref(), change.as_ref()),
            _ => Err("compare takes BASE_DIR and CHANGE_DIR".into()),
        },
        Some(_) => run(Flags { args }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
