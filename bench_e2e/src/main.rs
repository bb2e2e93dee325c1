//! `bench_e2e --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a provenance line, then one JSON result line; exits non-zero when
//! any output or workload self-check fails. `bench_e2e daemon ...` is the
//! daemon the `maod` workloads start (see `daemon::serve_main`).

use std::path::PathBuf;
use std::process::ExitCode;

use bench_e2e::{daemon, provenance_line, run, Options, Workload};

const USAGE: &str = "usage: bench_e2e --workload oneshot_build|maod_edit|maod_warm \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon_exe: exe,
        run_dir: PathBuf::from(".bench_run").join(std::process::id().to_string()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return daemon::serve_main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for failure in &report.failures {
        eprintln!("bench_e2e: FAILED: {failure}");
    }
    println!("{}", provenance_line(&opts, &report));
    println!("{}", report.json_line());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
