//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout and prints, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Progress and workload-specific
//! figures go to standard error. Scratch state lives under `.bench_work/`
//! and is removed at exit; traced runs leave their spans in
//! `.bench_trace/`.

use std::path::PathBuf;
use std::process::ExitCode;
use wk_perfbench::{run, Options, Size, Workload};

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::full(),
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        trace_dir: PathBuf::from(".bench_trace"),
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <scan-1024|kset-2048|daemon-month|study> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = run(opts);
    let c = &out.checks;
    for (name, v, unit) in out.detail.0.iter().chain(&out.metrics.0) {
        eprintln!("{name:<32} {v:>16.6} {unit}");
    }
    eprintln!("{:<32} {:>16.6} ratio", "fail_ratio", c.fail_ratio());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        out.metrics.to_json()
    );
    // Leave no empty scratch parent behind; fails harmlessly if in use.
    let _ = std::fs::remove_dir(".bench_work");
    ExitCode::SUCCESS
}
