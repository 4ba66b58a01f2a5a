//! The repository's benchmark: three workloads (`serve`, `churn`,
//! `cold-start`) that drive `SpService` through its public API, print
//! end-to-end metrics, and — in a traced run — per-layer metrics from
//! spans recorded around the benchmark's own calls into each layer.
//! See `README.md` for the metric table and the reasons behind each
//! workload.

pub mod churn;
pub mod cold;
pub mod common;
pub mod report;
pub mod serve;
pub mod trace;

use common::Size;
use std::path::PathBuf;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["serve", "churn", "cold-start"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether to record spans and report per-layer metrics.
    pub trace: bool,
    /// Use the tiny self-test sizes.
    pub tiny: bool,
    /// Directory for snapshots (a per-run subdirectory is made and
    /// removed).
    pub work_dir: PathBuf,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--tiny] [--work-dir <dir>]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            work_dir: PathBuf::from(".perfbench_work"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                args.tiny = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--work-dir" => args.work_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(args)
    }

    /// The input sizes this run uses.
    pub fn size(&self) -> Size {
        Size::new(self.tiny)
    }
}

/// Runs the workload, prints the report and the result line, and
/// returns whether the run was correct.
pub fn run(args: &Args) -> std::io::Result<bool> {
    let size = args.size();
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work)?;
    let outcome = match args.workload.as_str() {
        "serve" => serve::run(args, &size),
        "churn" => churn::run(args, &size, &work),
        _ => cold::run(args, &size, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&args.work_dir);
    Ok(report::finish(args, outcome))
}
