//! The repository benchmark: `fig5`, `city` and `serve` workloads, timed
//! end to end, plus a traced run that reports every layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig5 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run it from the repository root (the `fig5` gate reads
//! `results/fig5.txt`, and the `serve` files go under `.bench_work/`).
//! Report lines go to stdout; the last stdout line is the JSON result.
//! Any correctness-gate mismatch exits with code 1 and prints no result.

mod city;
mod fig5;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

const USAGE: &str =
    "usage: ch-benchmark --workload <fig5|city|serve> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig5,
    City,
    Serve,
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "fig5" => Workload::Fig5,
                    "city" => Workload::City,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!("provenance: nproc {nproc} | profile {profile} | git rev {rev}")
}

/// The committed Fig. 5 a seed-1 campaign must reproduce byte for byte.
const FIG5_ARTIFACT: &str = "results/fig5.txt";

/// Where the serve workload keeps its files, inside the working
/// directory.
fn serve_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()))
}

fn with_serve_files(
    f: impl FnOnce(&serve::Files) -> Result<Outcome, String>,
) -> Result<Outcome, String> {
    let files = serve::Files::new(&serve_dir())?;
    let result = f(&files);
    files.remove();
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    Ok(match args.workload {
        Workload::Fig5 => {
            let artifact = std::fs::read_to_string(FIG5_ARTIFACT)
                .map_err(|e| format!("correctness gate: cannot read {FIG5_ARTIFACT}: {e}"))?;
            let (_, ctx) = setup::standard();
            fig5::run(
                &ctx,
                args.seed,
                &fig5::Size::full(),
                args.seconds,
                &artifact,
            )?
        }
        Workload::City => {
            let (_, ctx) = setup::standard();
            city::run(&ctx, args.seed, &city::Size::full(), args.seconds)?
        }
        Workload::Serve => {
            let data = ch_scenarios::CityData::standard(ch_scenarios::experiments::CITY_SEED);
            with_serve_files(|files| {
                serve::run(&data, args.seed, &serve::Size::full(), args.seconds, files)
            })?
        }
    })
}

/// Every per-layer metric comes from every traced run, whichever
/// workload it names: the traced run replays all three.
fn traced(args: &Args) -> Result<Outcome, String> {
    let (data, ctx) = setup::standard();
    let mut out = setup::traced(&data)?;
    out.absorb(fig5::traced(&ctx, args.seed, &fig5::Size::full())?);
    out.absorb(city::traced(&ctx, args.seed, &city::Size::full())?);
    out.absorb(with_serve_files(|files| {
        serve::traced(&data, args.seed, &serve::Size::full(), files)
    })?);
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance());
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "city",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::City,
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        for bad in [
            vec![
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "fig5",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "fig5",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            vec![
                "--workload",
                "fig5",
                "--seed",
                "1",
                "--seconds",
                "-1",
                "--trace",
                "0",
            ],
            vec!["--workload", "fig5", "--seed", "1", "--seconds"],
            vec!["--workload", "fig5", "--seed", "1"],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "{bad:?}");
        }
    }
}
