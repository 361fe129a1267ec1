//! # lightrw-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§6), each
//! printing the same rows/series the paper reports (see DESIGN.md §3 for
//! the full index). Every experiment is a library function so binaries,
//! `exp_all` and the integration tests share one code path:
//!
//! ```text
//! cargo run --release -p lightrw-bench --bin exp_fig14_speedup -- --scale 14
//! cargo run --release -p lightrw-bench --bin exp_all            # everything
//! ```
//!
//! Default scales are reduced (stand-ins ≤ 2^14 vertices) so the suite
//! finishes in minutes; `--scale N` raises fidelity, `--quick` lowers it
//! for CI. Results are deterministic per seed.

pub mod datasets;
pub mod experiments;
pub mod table;

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// log2 of the stand-in vertex count.
    pub scale: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Reduced workloads for CI/integration tests.
    pub quick: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: 12,
            seed: 42,
            quick: false,
        }
    }
}

impl Opts {
    /// Quick preset used by integration tests.
    pub fn quick() -> Self {
        Self {
            scale: 9,
            quick: true,
            ..Self::default()
        }
    }

    /// Parse `--scale N`, `--seed N`, `--quick`, `--full` from the process
    /// arguments; a bad option prints `error: …` and exits 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("options: --scale N (default 12) --seed N --quick --full");
            std::process::exit(0);
        }
        Self::parse(&args).unwrap_or_else(|msg| die(&msg))
    }

    /// [`Opts::from_args`] without the process: `args` excludes the
    /// program name.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, arg: Option<&String>) -> Result<T, String> {
            arg.and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("{flag} needs an integer"))
        }
        let mut opts = Self::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(arg, args.next())?,
                "--seed" => opts.seed = value(arg, args.next())?,
                "--quick" => opts.quick = true,
                "--full" => opts.scale = opts.scale.max(16),
                other => return Err(format!("unknown option {other}")),
            }
        }
        if !(6..=22).contains(&opts.scale) {
            return Err(format!("--scale {} is outside 6..=22", opts.scale));
        }
        Ok(opts)
    }
}

fn die<T>(msg: &str) -> T {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Format seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Format a rate in engineering notation.
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2} G/s", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2} M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2} K/s", r / 1e3)
    } else {
        format!("{r:.1} /s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = Opts::default();
        assert_eq!(o.scale, 12);
        assert!(!o.quick);
        let q = Opts::quick();
        assert!(q.quick);
        assert!(q.scale < o.scale);
    }

    fn parse(line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Opts::parse(&args)
    }

    #[test]
    fn parse_accepts_every_option() {
        assert_eq!(parse(""), Ok(Opts::default()));
        let want = Opts {
            scale: 9,
            seed: 7,
            quick: true,
        };
        assert_eq!(parse("--quick --seed 7 --scale 9"), Ok(want));
        assert_eq!(parse("--full").unwrap().scale, 16);
        assert_eq!(parse("--scale 20 --full").unwrap().scale, 20);
        assert_eq!(parse("--scale 6").unwrap().scale, 6);
        assert_eq!(parse("--scale 22").unwrap().scale, 22);
    }

    #[test]
    fn parse_rejects_bad_input_without_panicking() {
        for (line, want) in [
            ("--scale 5", "outside 6..=22"),
            ("--scale 23", "outside 6..=22"),
            ("--bogus", "unknown option --bogus"),
            ("--scale", "--scale needs an integer"),
            ("--seed", "--seed needs an integer"),
            ("--scale twelve", "--scale needs an integer"),
            ("--seed -1", "--seed needs an integer"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(want), "{line:?} gave {err:?}");
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(25e-6), "25.0 µs");
        assert_eq!(fmt_rate(2.5e9), "2.50 G/s");
        assert_eq!(fmt_rate(2.5e6), "2.50 M/s");
        assert_eq!(fmt_rate(2500.0), "2.50 K/s");
        assert_eq!(fmt_rate(12.0), "12.0 /s");
    }
}
