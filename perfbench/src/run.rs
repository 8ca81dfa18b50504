//! One benchmark run: a workload at a seed for a number of host seconds,
//! untraced (end-to-end metrics) or traced (per-layer metrics).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use recharge_bench::experiments::fig14;
use recharge_sim::RunMetrics;

use crate::check::{self, Reference, SimStats};
use crate::driver::{self, Layers};
use crate::host::{self, median, quantile};
use crate::spec::{Spec, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (simulations) attempted.
    pub attempted: u64,
    /// Operations that panicked or whose output differed from its reference.
    pub failed: u64,
    /// Checks that failed outside any operation (reference vs oracle).
    pub check_errors: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Simulated statistics of the run's output.
    pub stats: Vec<String>,
    /// Caveats on the metrics.
    pub notes: Vec<String>,
    /// Threads the process ran while the workload's backend was up.
    pub threads: usize,
}

impl Outcome {
    /// Whether every operation and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty()
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{:?}: {{\"value\": {value:?}, \"unit\": {:?}}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one simulation through the program's entry point, catching a panic.
///
/// # Errors
///
/// The panic message, if the run panicked.
pub fn program(spec: &Spec) -> Result<RunMetrics, String> {
    let scenario = spec.scenario();
    catch_unwind(AssertUnwindSafe(|| scenario.build().run())).map_err(panic_text)
}

/// Runs the Fig 14 experiment through its entry point, returning the
/// rendered report.
///
/// # Errors
///
/// The panic message, if the sweep panicked.
pub fn program_fig14() -> Result<String, String> {
    catch_unwind(|| fig14::run().render()).map_err(panic_text)
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

/// Host time spent sampling set-up after each operation.
const SETUP_BUDGET: Duration = Duration::from_millis(40);

/// The output one operation of a workload must reproduce.
struct Expected {
    digest: u64,
    /// Simulated rack-seconds of one operation.
    rack_s: f64,
    stats: Vec<String>,
}

/// Host seconds before the first control tick, summed over one operation's
/// simulations, repeated for at least `budget` and at least 11 times; one
/// sample per repetition.
fn setup_samples(sims: &[Spec], budget: Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut sums = Vec::new();
    while sums.len() < 11 || start.elapsed() < budget {
        let mut sum = 0.0;
        for spec in sims {
            let t = Instant::now();
            let setup = driver::setup(spec);
            sum += t.elapsed().as_secs_f64();
            drop(setup);
        }
        sums.push(sum);
    }
    sums
}

/// The most threads the process runs while the simulations' backends are up.
fn backend_threads(sims: &[Spec]) -> usize {
    sims.iter()
        .map(|spec| {
            let _setup = driver::setup(spec);
            host::threads()
        })
        .max()
        .unwrap_or(1)
}

/// The reference a single-simulation workload checks against: the committed
/// digest when one exists for the seed, else the outside driver's run of the
/// same spec on the serial reference backend. The driver's run is made
/// either way — it is the source of the exact simulated time — and must
/// agree with a committed digest.
fn expected_single(
    workload: Workload,
    seed: u64,
    spec: &Spec,
    references: &str,
    out: &mut Outcome,
) -> Expected {
    let oracle = driver::run(&spec.on_serial());
    let oracle_digest = check::digest(&oracle.metrics);
    let digest = match check::reference(references, workload.name(), seed) {
        Some(Reference { digest, .. }) => {
            if digest != oracle_digest {
                out.check_errors.push(format!(
                    "serial-backend driver digest {oracle_digest:016x} differs from the \
                     committed reference {digest:016x}"
                ));
            }
            digest
        }
        None => oracle_digest,
    };
    Expected {
        digest,
        rack_s: oracle.rack_substeps as f64 * spec.tick.as_secs(),
        stats: vec![SimStats::of(&oracle.metrics).json()],
    }
}

/// Fig 14's committed report and simulated rack-seconds.
fn expected_fig14(out: &mut Outcome) -> Expected {
    let reference = check::reference(check::REFERENCES, Workload::Fig14Sweep.name(), 0);
    let text_digest = check::digest_text(check::FIG14_REPORT);
    match reference {
        Some(r) if r.digest == text_digest && r.rack_s.is_some() => {}
        _ => out
            .check_errors
            .push("fig14 reference line and committed report text disagree".to_owned()),
    }
    Expected {
        digest: text_digest,
        rack_s: reference.and_then(|r| r.rack_s).unwrap_or(0.0),
        stats: fig14_stats(check::FIG14_REPORT),
    }
}

/// The simulated statistics of a Fig 14 report: its tightest-limit lines.
fn fig14_stats(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with("at the "))
        .map(|l| format!("{l:?}"))
        .collect()
}

/// Runs one operation; returns the simulations that failed.
fn operation(workload: Workload, sims: &[Spec], expected: &Expected) -> (u64, Option<String>) {
    if workload == Workload::Fig14Sweep {
        return match program_fig14() {
            Ok(text) if check::digest_text(&text) == expected.digest => (0, None),
            Ok(text) => {
                let differing = text
                    .lines()
                    .zip(check::FIG14_REPORT.lines())
                    .filter(|(a, b)| a != b)
                    .count()
                    .max(1);
                let first = text
                    .lines()
                    .zip(check::FIG14_REPORT.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("got {a:?}, expected {b:?}"))
                    .unwrap_or_default();
                (
                    differing.min(sims.len()) as u64,
                    Some(format!("fig14 report differs from reference: {first}")),
                )
            }
            Err(e) => (sims.len() as u64, Some(format!("fig14 panicked: {e}"))),
        };
    }
    match program(&sims[0]) {
        Ok(m) if check::digest(&m) == expected.digest => (0, None),
        Ok(m) => (
            1,
            Some(format!(
                "output digest {:016x} differs from reference {:016x}",
                check::digest(&m),
                expected.digest
            )),
        ),
        Err(e) => (1, Some(format!("simulation panicked: {e}"))),
    }
}

/// The end-to-end run: `setup_s`, then operations for about `seconds`.
#[must_use]
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    untraced_against(workload, seed, seconds, check::REFERENCES)
}

/// [`untraced`], checked against the given reference table.
#[must_use]
pub fn untraced_against(workload: Workload, seed: u64, seconds: f64, references: &str) -> Outcome {
    let mut out = Outcome::default();
    let sims = workload.sims(seed);
    out.threads = backend_threads(&sims);
    let expected = if workload == Workload::Fig14Sweep {
        expected_fig14(&mut out)
    } else {
        expected_single(workload, seed, &sims[0], references, &mut out)
    };
    out.stats.clone_from(&expected.stats);

    // Set-up is sampled after every operation, so its samples span the run
    // as the operations' do.
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let (failed, error) = operation(workload, &sims, &expected);
        walls.push(t.elapsed().as_secs_f64());
        setups.extend(setup_samples(&sims, SETUP_BUDGET));
        out.attempted += sims.len() as u64;
        out.failed += failed;
        if let Some(e) = error {
            out.check_errors.push(e);
        }
        let last = walls[walls.len() - 1];
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let wall_s = median(&walls);
    out.metric("wall_s", wall_s, "s");
    out.metric("rack_s_per_s", expected.rack_s / wall_s, "rack-s/s");
    out.metric("setup_s", median(&setups), "s");
    out
}

/// Sums of one traced round over the round's simulations.
#[derive(Debug, Default, Clone)]
struct Round {
    program_s: f64,
    program_cpu_s: f64,
    driver_s: f64,
    rack_substeps: u64,
    layers: Layers,
}

/// The simulations a traced run mirrors: the workload's one simulation, or
/// for `fig14-sweep` one point per panel, the limit picked by the seed.
fn traced_sims(workload: Workload, seed: u64) -> Vec<Spec> {
    let sims = workload.sims(seed);
    if workload != Workload::Fig14Sweep {
        return sims;
    }
    let per_panel = sims.len() / 4;
    (0..4)
        .map(|panel| {
            let pick = (seed as usize).wrapping_add(panel * 2) % per_panel;
            sims[panel * per_panel + pick].clone()
        })
        .collect()
}

/// The registry counters one program run moves, read with telemetry on.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    executed: u64,
    skipped: u64,
    rpc_calls: u64,
    rpc_retries: u64,
    rpc_timeouts: u64,
}

/// Runs the program once per simulation with telemetry on and reads the
/// existing counters; the run's output must not change.
fn counter_pass(sims: &[Spec], reference: &[RunMetrics], out: &mut Outcome) -> Counters {
    use recharge_telemetry as tm;
    let mut c = Counters::default();
    for (spec, expected) in sims.iter().zip(reference) {
        tm::reset_metrics();
        tm::set_enabled(true);
        let result = program(spec);
        tm::set_enabled(false);
        drop(tm::take_records());
        out.attempted += 1;
        match result {
            Ok(m) if &m == expected => {}
            Ok(_) => {
                out.failed += 1;
                out.check_errors
                    .push("output with telemetry on differs from telemetry off".to_owned());
            }
            Err(e) => {
                out.failed += 1;
                out.check_errors
                    .push(format!("simulation panicked with telemetry on: {e}"));
            }
        }
        c.executed += tm::counter("sim.rack_substeps").value();
        c.skipped += tm::counter("sim.ticks_skipped").value();
        c.rpc_calls += tm::counter("net.rpc_calls").value();
        c.rpc_retries += tm::counter("net.rpc_retries").value();
        c.rpc_timeouts += tm::counter("net.rpc_timeouts").value();
    }
    tm::reset_metrics();
    c
}

/// The traced run: program, untimed driver and timed driver on each traced
/// simulation, in rounds, for about `seconds`. Every driver run's
/// `RunMetrics` must be `==` to the program's.
#[must_use]
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let sims = traced_sims(workload, seed);
    let clock_ns = driver::clock_cost_ns();
    out.threads = backend_threads(&sims);

    // Warm-up and the reference each round is held to: the program's own
    // output, checked against the committed digest where one exists.
    let mut reference: Vec<RunMetrics> = Vec::new();
    for spec in &sims {
        out.attempted += 1;
        match program(spec) {
            Ok(m) => {
                if workload != Workload::Fig14Sweep {
                    if let Some(r) = check::reference(check::REFERENCES, workload.name(), seed) {
                        if r.digest != check::digest(&m) {
                            out.failed += 1;
                            out.check_errors.push(format!(
                                "output digest {:016x} differs from reference {:016x}",
                                check::digest(&m),
                                r.digest
                            ));
                        }
                    }
                }
                out.stats.push(SimStats::of(&m).json());
                reference.push(m);
            }
            Err(e) => {
                out.failed += 1;
                out.check_errors.push(format!("simulation panicked: {e}"));
                return out;
            }
        }
    }
    let counters = counter_pass(&sims, &reference, &mut out);

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round_start = Instant::now();
        let mut round = Round::default();
        for (spec, expected) in sims.iter().zip(&reference) {
            // Alternate which of the program and the untimed driver runs
            // first, so neither always inherits the other's cache state.
            let mut result = Err(String::new());
            let mut plain = None;
            let program_first = rounds.len().is_multiple_of(2);
            for program_turn in [program_first, !program_first] {
                if program_turn {
                    let cpu = host::cpu_s();
                    let t = Instant::now();
                    result = program(spec);
                    round.program_s += t.elapsed().as_secs_f64();
                    round.program_cpu_s += host::cpu_s() - cpu;
                } else {
                    let t = Instant::now();
                    plain = Some(driver::run(spec));
                    round.driver_s += t.elapsed().as_secs_f64();
                }
            }
            let plain = plain.expect("the driver ran this round");
            let timed = driver::run_traced(spec, &mut round.layers, clock_ns);

            out.attempted += 1;
            let agree = matches!(&result, Ok(m) if m == expected)
                && plain.metrics == *expected
                && timed.metrics == *expected;
            if !agree {
                out.failed += 1;
                out.check_errors.push(match result {
                    Err(e) => format!("simulation panicked: {e}"),
                    Ok(_) => "driver RunMetrics differ from FleetSimulation::run".to_owned(),
                });
            }
            round.rack_substeps += timed.rack_substeps;
        }
        rounds.push(round);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    layer_metrics(&mut out, &rounds, counters, clock_ns);
    out
}

fn layer_metrics(out: &mut Outcome, rounds: &[Round], counters: Counters, clock_ns: f64) {
    let n = rounds.len() as f64;
    let mean = |f: &dyn Fn(&Layers) -> f64| rounds.iter().map(|r| f(&r.layers)).sum::<f64>() / n;
    // Each directly timed segment carries one clock read of bias.
    let seg = |ns: f64, count: usize| (ns - count as f64 * clock_ns).max(0.0) * 1e-9;
    let ticks = |l: &Layers| l.tick_ns.len();

    let rack_power_s = mean(&|l| l.load.ns * 1e-9);
    let step_s = mean(&|l| seg(l.step_ns as f64, ticks(l)));
    let readings_s = mean(&|l| seg(l.readings_ns as f64, ticks(l)));
    let read_s = mean(&|l| seg(l.gather_ns as f64, l.controller_calls as usize));
    let cmd_s = mean(&|l| l.bus_cmd.ns.max(0.0) * 1e-9);
    let controller_s = mean(&|l| seg(l.controller_ns as f64, ticks(l)));
    let breaker_s = mean(&|l| seg(l.breaker_ns as f64, ticks(l)));
    let bookkeeping_s = mean(&|l| seg(l.bookkeeping_ns as f64, ticks(l)));
    let setup_s = mean(&|l| l.setup_ns as f64 * 1e-9);
    let run_s = mean(&|l| l.run_ns as f64 * 1e-9);
    let covered = setup_s + step_s + readings_s + controller_s + breaker_s + bookkeeping_s;
    let requested = rounds.iter().map(|r| r.rack_substeps as f64).sum::<f64>() / n;
    // Dense backends step every rack every sub-step and keep no count.
    let executed = if counters.executed + counters.skipped == 0 {
        requested
    } else {
        counters.executed as f64
    };
    let physics_s = (step_s - rack_power_s).max(0.0);

    let ticks_us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.layers.tick_ns.iter().map(|&t| t as f64 / 1e3))
        .collect();
    let median_of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let program_s = median_of(&|r| r.program_s);
    let driver_s = median_of(&|r| r.driver_s);
    let traced_s = median_of(&|r| r.layers.run_ns as f64 * 1e-9);

    out.metric(
        "trace.rack_power.calls",
        mean(&|l| l.load.calls as f64),
        "count",
    );
    out.metric("trace.rack_power.s", rack_power_s, "s");
    out.metric("dynamo.step_schedule.s", physics_s, "s");
    out.metric("dynamo.ns_per_rack_step", physics_s / requested * 1e9, "ns");
    out.metric("dynamo.rack_substeps.executed", executed, "count");
    out.metric("dynamo.rack_substeps.total", requested, "count");
    out.metric("dynamo.readings.calls", mean(&|l| ticks(l) as f64), "count");
    out.metric("dynamo.readings.s", readings_s, "s");
    out.metric(
        "dynamo.bus.read.calls",
        mean(&|l| l.bus_reads as f64),
        "count",
    );
    out.metric("dynamo.bus.read.s", read_s, "s");
    out.metric(
        "dynamo.bus.cmd.calls",
        mean(&|l| l.bus_cmd.calls as f64),
        "count",
    );
    out.metric("dynamo.bus.cmd.s", cmd_s, "s");
    out.metric(
        "controller.self.s",
        (controller_s - read_s - cmd_s).max(0.0),
        "s",
    );
    out.metric(
        "controller.tick.calls",
        mean(&|l| l.controller_calls as f64),
        "count",
    );
    out.metric("power.breaker.s", breaker_s, "s");
    out.metric(
        "sim.other.s",
        (run_s - setup_s - step_s - readings_s - controller_s - breaker_s).max(0.0),
        "s",
    );
    out.metric("sim.tick.p50_us", quantile(&ticks_us, 0.5), "us");
    out.metric("sim.tick.p99_us", quantile(&ticks_us, 0.99), "us");
    out.metric("sim.tick.samples", ticks_us.len() as f64, "count");
    out.metric("net.rpc_calls", counters.rpc_calls as f64, "count");
    out.metric("net.rpc_retries", counters.rpc_retries as f64, "count");
    out.metric("net.rpc_timeouts", counters.rpc_timeouts as f64, "count");
    out.metric("process.cpu_s", median_of(&|r| r.program_cpu_s), "s");
    out.metric("process.peak_rss_mb", host::peak_rss_mb(), "MB");
    out.metric(
        "telemetry.overhead_pct",
        (traced_s / program_s - 1.0) * 100.0,
        "%",
    );
    out.metric("trace.coverage_pct", covered / run_s * 100.0, "%");
    out.metric(
        "driver.drift_pct",
        (driver_s / program_s - 1.0) * 100.0,
        "%",
    );
}
