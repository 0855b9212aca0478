//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, one line per metric with its unit, and as
//! the last line the JSON result. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` the per-layer metrics of a traced run, and writes
//! its spans to `out/spans-<workload>-seed<n>.json` in this package.
//! `--workload all` runs every workload in its own process, one after the
//! other.

use perfbench::inputs::{cells, WORKLOADS};
use perfbench::measure::{measure, per_layer, Opts, END_TO_END};
use perfbench::{host, report};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("number"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0|1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(args)
}

/// Run each workload in a child process of its own, so each reports its
/// own peak memory.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed already");
        child_args[at + 1] = w.to_string();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: workload {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(cells) = cells(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload `{}` (want {} or all)",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let opts = Opts {
        seconds: args.seconds,
        trace: args.trace,
        work_dir: out_dir.join(format!("work-{}-{}", args.workload, std::process::id())),
    };
    let measured = measure(&cells, &opts);
    // The store scratch goes whatever happened.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let outcome = match measured {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = match report::select(&wanted, &outcome.metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = host::fingerprint(&args.workload, args.seed, outcome.passes);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {fingerprint}");
    for p in &outcome.tally.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, spans.to_json(&fingerprint)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans {}", path.display());
    }
    print!("{}", report::table(&metrics));
    println!("{}", report::result_line(&outcome.tally, &metrics));
    ExitCode::SUCCESS
}
