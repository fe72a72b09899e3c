//! `sicost-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line, then a JSON
//! result line. A failed correctness check prints the reason to stderr
//! and exits with status 1 without printing any metric.

use sicost_perfbench::bench::{self, Args};
use sicost_perfbench::spec::Workload;
use std::process::ExitCode;

const USAGE: &str =
    "usage: sicost-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = bench::run(&args).and_then(|report| Ok((report.json()?, report)));
    match result {
        Ok((json, report)) => {
            let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
            println!(
                "# {} seed={} seconds={} trace={} host_parallelism={cores}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            print!("{}", report.table());
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
