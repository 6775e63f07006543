//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the host-calibration block, every metric by name with its
//! unit, and as the last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 0 only when every iteration passed its checks.

// Counts every heap allocation, for the `*.allocs*` per-layer metrics.
#[global_allocator]
static METER: allocmeter::Meter = allocmeter::Meter::new();

use perfbench::workloads::{Scale, Workload};
use perfbench::{host, run, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n\
     workloads: trace-flat-1m, trace-ola, campaign-quick, trace-m32-faults-sharded";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "seconds must be finite and non-negative, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cal = host::calibrate();
    println!("host: {}", cal.to_json());
    println!(
        "workload: {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let result = run(&cfg, &cal);
    for note in &result.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in &result.metrics {
        println!("{name} = {value} {unit}");
    }
    if let Some(v) = result.max_stretch {
        println!("max_stretch = {v} ratio (informational, not gated)");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
