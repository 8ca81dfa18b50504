//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero when
//! any output differs from its reference.
//!
//! `perfbench references <workload> <first-seed> <last-seed>` prints the
//! reference lines `references.txt` holds; `perfbench fig14-report` prints
//! the report text `fig14_report.txt` holds.

use std::process::ExitCode;

use perfbench::check::{self, SimStats};
use perfbench::host::EnvStamp;
use perfbench::spec::Workload;
use perfbench::{driver, run};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Prints reference lines for a workload over a seed range.
fn references(args: &[String]) -> Result<(), String> {
    let [workload, first, last] = args else {
        return Err("usage: references <workload> <first-seed> <last-seed>".into());
    };
    let workload: Workload = workload.parse()?;
    let first: u64 = first.parse().map_err(|e| format!("{e}"))?;
    let last: u64 = last.parse().map_err(|e| format!("{e}"))?;
    if workload == Workload::Fig14Sweep {
        let text = run::program_fig14()?;
        let rack_s: f64 = workload
            .sims(0)
            .iter()
            .map(|spec| driver::run(spec).rack_substeps as f64 * spec.tick.as_secs())
            .sum();
        println!("{workload} * {:016x} {rack_s}", check::digest_text(&text));
        return Ok(());
    }
    for seed in first..=last {
        let spec = &workload.sims(seed)[0];
        let program = run::program(spec)?;
        let oracle = driver::run(&spec.on_serial());
        if oracle.metrics != program {
            return Err(format!(
                "{workload} seed {seed}: driver and program disagree"
            ));
        }
        println!(
            "{workload} {seed} {:016x} # {}",
            check::digest(&program),
            SimStats::of(&program).json()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    // The benchmark measures the program with tracing off and at full scale,
    // whatever the caller's environment says.
    for var in ["RECHARGE_TRACE", "RECHARGE_BLACKBOX", "RECHARGE_FAST"] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tool = match argv.first().map(String::as_str) {
        Some("references") => Some(references(&argv[1..])),
        Some("fig14-report") => Some(run::program_fig14().map(|text| print!("{text}"))),
        _ => None,
    };
    if let Some(result) = tool {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = EnvStamp::collect();
    let outcome = if args.trace {
        run::traced(args.workload, args.seed, args.seconds)
    } else {
        run::untraced(args.workload, args.seed, args.seconds)
    };
    println!(
        "# workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("# env {}", env.json(outcome.threads));
    for stats in &outcome.stats {
        println!("# simulated {stats}");
    }
    for note in &outcome.notes {
        println!("# note {note}");
    }
    for error in &outcome.check_errors {
        println!("# FAILED {error}");
    }
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
