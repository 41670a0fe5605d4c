//! `whodunit-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A traced
//! run also writes its spans to `.bench_out/<workload>-seed<n>.tsv`
//! under the working directory. Exits non-zero when any operation or
//! output check failed.

use std::process::ExitCode;

use whodunit_perfbench::workloads::{Scale, Workload};
use whodunit_perfbench::{result_json, run, RunConfig};

fn parse_args() -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::CollectorWire,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let val = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{arg} {val}: {e}");
        match arg.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{val}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => cfg.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{val}'")),
                }
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("whodunit-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = run(&cfg);
    for l in &r.lines {
        println!("{l}");
    }
    if cfg.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.tsv", cfg.workload.name(), cfg.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                r.tracer.write_tsv(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("whodunit-perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &r.metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&r));
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
