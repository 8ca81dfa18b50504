//! Fig 15: SLA attainment under different rack-priority distributions
//! (evenly distributed thirds, and all racks P1) at medium discharge.

use recharge_dynamo::Strategy;
use recharge_sim::DischargeLevel;

use crate::experiments::common::paper_counts;
use crate::experiments::fig14::{render_sweep, sweeps, SweepSpec};
use crate::ExperimentReport;

/// Runs the Fig 15 distribution study.
#[must_use]
pub fn run() -> ExperimentReport {
    let base = paper_counts();
    let total = base.0 + base.1 + base.2;
    let third = total / 3;
    let even = (third, third, total - 2 * third);
    let all_p1 = (total, 0, 0);

    let distributions = [
        (even, "evenly distributed (thirds)"),
        (all_p1, "all racks P1"),
    ];
    let strategies = [
        (Strategy::PriorityAware, "priority-aware"),
        (Strategy::Global, "global"),
    ];
    let specs: Vec<SweepSpec> = distributions
        .iter()
        .flat_map(|&(counts, _)| {
            strategies.map(|(strategy, _)| (counts, strategy, DischargeLevel::Medium, 0xF15))
        })
        .collect();
    let results = sweeps(&specs);

    let mut sections = Vec::new();
    let mut averages = Vec::new();
    let labelled = distributions
        .iter()
        .flat_map(|&(counts, name)| strategies.map(|(_, label)| (counts, name, label)));
    for ((counts, name, label), rows) in labelled.zip(&results) {
        let avg_total: f64 =
            rows.iter().map(|r| (r.1 + r.2 + r.3) as f64).sum::<f64>() / rows.len().max(1) as f64;
        averages.push((name, label, avg_total));
        sections.push(render_sweep(&format!("{name}, {label}:"), counts, rows));
    }

    let all_p1_aware = averages
        .iter()
        .find(|(n, l, _)| *n == "all racks P1" && *l == "priority-aware")
        .map_or(0.0, |&(_, _, a)| a);
    let all_p1_global = averages
        .iter()
        .find(|(n, l, _)| *n == "all racks P1" && *l == "global")
        .map_or(0.0, |&(_, _, a)| a);
    let ratio = if all_p1_global > 0.0 {
        all_p1_aware / all_p1_global
    } else {
        f64::INFINITY
    };
    // The paper's 3× claim lives in the constrained region where the global
    // uniform rate falls below the P1 requirement: compare there directly,
    // on the all-P1 sweeps above (the last two specs).
    let (aware_rows, global_rows) = (&results[2], &results[3]);
    let constrained: Vec<String> = aware_rows
        .iter()
        .zip(global_rows)
        .filter(|(a, _)| a.0 <= 2.45)
        .map(|(a, g)| format!("  {:.2} MW: priority-aware {} vs global {}", a.0, a.1, g.1))
        .collect();
    sections.push(format!(
        "all-P1 average racks meeting the SLA over the sweep: priority-aware {all_p1_aware:.0}, \
         global {all_p1_global:.0} (ratio {ratio:.1}×).\n\
         constrained region (≤2.45 MW), where the paper's ≈3× gap lives:\n{}\n\
         paper: with all racks P1, priority-aware averages 208 racks, ≈3× the global baseline \
         — the lowest-discharge-first order packs the most racks into the available power.",
        constrained.join("\n")
    ));

    ExperimentReport {
        id: "fig15",
        title: "SLA attainment vs power limit under different priority distributions",
        sections,
    }
}
