//! The outside driver against the program, on small scenarios and every
//! backend kind the workloads use, and the reference check against a
//! perturbed digest.

use perfbench::check;
use perfbench::driver::{self, clock_cost_ns, Layers};
use perfbench::run;
use perfbench::spec::{backend, Backend, Spec, Workload, FIG14_SEED};
use recharge_bench::experiments::common::{msb_scenario, paper_counts, Deployment};
use recharge_dynamo::Strategy;
use recharge_sim::DischargeLevel;
use recharge_units::{Seconds, Watts};

/// A 7-rack row; a seed no reference was built from.
fn row(backend: Backend, control_every: usize) -> Spec {
    Spec {
        limit: Watts::from_kilowatts(50.0),
        discharge: DischargeLevel::High,
        horizon: Seconds::from_hours(2.5),
        control_every,
        backend,
        ..Spec::row(3, 2, 2, 4242)
    }
}

fn assert_driver_matches(spec: &Spec) {
    let program = run::program(spec).expect("program run");
    let plain = driver::run(spec);
    assert_eq!(plain.metrics, program, "untimed driver diverged");
    let mut layers = Layers::default();
    let traced = driver::run_traced(spec, &mut layers, clock_cost_ns());
    assert_eq!(traced.metrics, program, "traced driver diverged");
    assert_eq!(traced.ticks, layers.tick_ns.len() as u64);
    assert_eq!(layers.controller_calls, traced.ticks);
    assert!(layers.load.calls > 0 && layers.load.calls <= traced.rack_substeps);
    assert!(program.total_sla_met() > 0, "the row should charge");
}

#[test]
fn driver_matches_program_on_serial() {
    assert_driver_matches(&row(backend("serial"), 1));
}

#[test]
fn driver_matches_program_on_event() {
    assert_driver_matches(&row(backend("event"), 5));
}

#[test]
fn driver_matches_program_on_loopback_rpc() {
    assert_driver_matches(&row(Backend::Rpc(Box::default()), 1));
}

#[test]
fn fig14_points_are_the_experiments_scenarios() {
    let (strategy, discharge, limit_mw) = (Strategy::Global, DischargeLevel::High, 2.2);
    let spec = Spec::fig14_point(limit_mw, strategy, discharge, FIG14_SEED);
    let experiment = msb_scenario(
        paper_counts(),
        limit_mw,
        discharge,
        Deployment::PriorityAware,
        Some(strategy),
        FIG14_SEED,
    )
    .build()
    .run();
    assert_eq!(run::program(&spec).expect("program run"), experiment);
    assert_eq!(driver::run(&spec).metrics, experiment);
}

#[test]
fn committed_reference_passes_and_a_perturbed_one_fails() {
    let (workload, seed) = (Workload::MsbIdleCe5, 3);
    let good = run::untraced(workload, seed, 0.0);
    assert!(good.correct(), "{:?}", good.check_errors);
    assert_eq!(good.failed, 0);

    let reference = check::reference(check::REFERENCES, workload.name(), seed)
        .expect("a committed reference for seed 3");
    let perturbed = format!("{workload} {seed} {:016x}\n", reference.digest ^ 1);
    let bad = run::untraced_against(workload, seed, 0.0, &perturbed);
    assert!(!bad.correct());
    assert_eq!(
        bad.failed, bad.attempted,
        "every operation must count as failed"
    );
    assert!(bad.json().contains("\"correct\": false"));
}

#[test]
fn fig14_reference_line_matches_the_committed_report() {
    let reference = check::reference(check::REFERENCES, Workload::Fig14Sweep.name(), 7)
        .expect("a fig14 reference line");
    assert_eq!(reference.digest, check::digest_text(check::FIG14_REPORT));
    assert!(reference.rack_s.is_some_and(|s| s > 0.0));
}
