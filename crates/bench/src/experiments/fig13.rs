//! Fig 13: MSB power under the original charger, the variable charger, and
//! priority-aware charging, across power limits and battery-discharge levels.
//!
//! Table III (maximum server power capping for the same six cases) is derived
//! from the same runs; see [`results`] and the `tab3` module.

use recharge_sim::{DischargeLevel, RunMetrics};

use crate::experiments::common::{msb_scenario, paper_counts, par_map, Deployment};
use crate::{ExperimentReport, Table};

/// One of the six Fig 13 cases under one deployment.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case letter, `(a)` through `(f)`.
    pub case: &'static str,
    /// Full-scale breaker limit in MW.
    pub limit_mw: f64,
    /// Battery-discharge level.
    pub discharge: DischargeLevel,
    /// Which deployment produced the metrics.
    pub deployment: Deployment,
    /// The run's measured metrics.
    pub metrics: RunMetrics,
}

/// The six published cases: (a,b) low, (c,d) medium, (e,f) high discharge,
/// each at the 2.5 MW actual limit and a constrained 2.3 MW limit.
#[must_use]
pub fn cases() -> [(&'static str, f64, DischargeLevel); 6] {
    [
        ("(a)", 2.5, DischargeLevel::Low),
        ("(b)", 2.3, DischargeLevel::Low),
        ("(c)", 2.5, DischargeLevel::Medium),
        ("(d)", 2.3, DischargeLevel::Medium),
        ("(e)", 2.5, DischargeLevel::High),
        ("(f)", 2.3, DischargeLevel::High),
    ]
}

/// Runs all six cases under all three deployments (18 simulations, on
/// every core; results come back in case-then-deployment order).
#[must_use]
pub fn results() -> Vec<CaseResult> {
    let counts = paper_counts();
    let points: Vec<_> = cases()
        .into_iter()
        .flat_map(|case| Deployment::ALL.map(|deployment| (case, deployment)))
        .collect();
    par_map(&points, |&((case, limit_mw, discharge), deployment)| {
        let metrics = msb_scenario(counts, limit_mw, discharge, deployment, None, 0xF13)
            .build()
            .run();
        CaseResult {
            case,
            limit_mw,
            discharge,
            deployment,
            metrics,
        }
    })
}

/// Renders the Fig 13 report from fresh runs.
#[must_use]
pub fn run() -> ExperimentReport {
    render(&results())
}

/// Renders the report from precomputed results (shared with `tab3`).
#[must_use]
pub fn render(results: &[CaseResult]) -> ExperimentReport {
    let mut table = Table::new(&[
        "case",
        "limit (MW)",
        "discharge",
        "deployment",
        "IT before OT (MW)",
        "peak draw (MW)",
        "peak recharge (kW)",
        "over limit",
        "max capping (kW)",
    ]);
    for r in results {
        let scale = 316.0 / r.metrics.rack_outcomes.len().max(1) as f64;
        table.row(&[
            r.case.to_owned(),
            format!("{:.1}", r.limit_mw),
            format!("{:?}", r.discharge),
            r.deployment.label().to_owned(),
            format!("{:.3}", r.metrics.it_load_before_ot.as_megawatts() * scale),
            format!("{:.3}", r.metrics.max_total_draw.as_megawatts() * scale),
            format!("{:.0}", r.metrics.max_recharge_power.as_kilowatts() * scale),
            if r.metrics.max_total_draw > r.metrics.power_limit {
                "YES"
            } else {
                "no"
            }
            .to_owned(),
            format!("{:.0}", r.metrics.max_capped_power.as_kilowatts() * scale),
        ]);
    }

    let aware_capping: f64 = results
        .iter()
        .filter(|r| r.deployment == Deployment::PriorityAware)
        .map(|r| r.metrics.max_capped_power.as_kilowatts())
        .sum();
    let summary = format!(
        "paper shape: the original charger overloads the MSB in every case; the variable\n\
         charger cuts the spike ~60% but still overloads at the 2.3 MW limit; priority-aware\n\
         charging never exceeds the limit and needs zero capping in all six cases.\n\
         measured: priority-aware total capping across all cases = {aware_capping:.1} kW\n\
         (values are scaled to the full 316-rack fleet when running in fast mode)"
    );

    ExperimentReport {
        id: "fig13",
        title: "MSB power: original vs variable vs priority-aware across limits and discharge",
        sections: vec![table.render(), summary],
    }
}
