//! `mobidx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed, as
//! the last line of standard output, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! operation failed or any check rejected an answer, 2 on bad usage.

use mobidx_perfbench::{run, Params, Workload};

const USAGE: &str = "usage: mobidx-perfbench --workload <track-mixed|query-scan|ingest-durable> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Params::full(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&params);
    println!(
        "workload {} seed {} seconds {} trace {}",
        params.workload.name(),
        params.seed,
        params.seconds,
        u8::from(params.trace)
    );
    for m in &out.metrics {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<30} {:>14.4} ratio ({} failed of {} attempted)",
        "error_frac",
        out.error_frac(),
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!("{}", out.to_json());
    if !out.correct() {
        std::process::exit(1);
    }
}
