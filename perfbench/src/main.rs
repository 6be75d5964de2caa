//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, on standard output, a provenance line
//! and then, as the last line, the JSON result object. Human-readable
//! metric lines and any check failures go to standard error.

use perfbench::corpus::Workload;
use perfbench::metrics::{decl, Kind};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <plan-fine|plan-coarse|plan-deadline|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, prov) = match perfbench::run(args.workload, args.seed, args.seconds, args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kind = if args.traced { Kind::PerLayer } else { Kind::EndToEnd };
    for (name, value) in &report.values {
        if let Some(d) = decl(name).filter(|d| d.kind == kind) {
            eprintln!("{:<32} {value:>14.4} {}", name, d.unit);
        }
    }
    for msg in &report.notes {
        eprintln!("{msg}");
    }
    for msg in &report.check_failures {
        eprintln!("check failed: {msg}");
    }
    println!("provenance {}", prov.json(&report, args.seconds, args.traced));
    println!("{}", report.json_line(kind));
    ExitCode::SUCCESS
}
