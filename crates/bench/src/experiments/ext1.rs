//! Extension 1 (§IV-A future work): postponing battery charging entirely
//! instead of capping servers under extreme power constraint.
//!
//! The paper: "capping would begin if the available power was less than
//! 120 kW (power limit below 2.2 MW)" — because the charger hardware bottoms
//! out at 1 A per BBU. With postponing, that floor disappears: charging can
//! be deferred rack-by-rack (lowest priority, highest DOD first), trading
//! those racks' redundancy for zero server impact.

use recharge_sim::DischargeLevel;
use recharge_units::Priority;

use crate::experiments::common::{msb_scenario, paper_counts, par_map, Deployment};
use crate::{fast_mode, ExperimentReport, Table};

/// Sweeps limits below the paper's capping threshold with and without the
/// postponing extension.
#[must_use]
pub fn run() -> ExperimentReport {
    let counts = paper_counts();
    let limits: Vec<f64> = if fast_mode() {
        vec![2.2, 2.1]
    } else {
        vec![2.25, 2.2, 2.15, 2.1, 2.05]
    };

    let mut table = Table::new(&[
        "limit (MW)",
        "IT load (MW)",
        "capping w/o postpone (kW)",
        "capping with postpone (kW)",
        "racks deferred",
        "P1 met (postpone)",
    ]);
    // Every (limit, postponing) run is independent: one queue on every core.
    let points: Vec<(f64, bool)> = limits
        .iter()
        .flat_map(|&limit_mw| [(limit_mw, false), (limit_mw, true)])
        .collect();
    let runs = par_map(&points, |&(limit_mw, postpone)| {
        let base = msb_scenario(
            counts,
            limit_mw,
            DischargeLevel::Medium,
            Deployment::PriorityAware,
            None,
            0xE071,
        );
        if postpone {
            base.allow_postponing()
        } else {
            base
        }
        .build()
        .run()
    });
    for (&limit_mw, pair) in limits.iter().zip(runs.chunks_exact(2)) {
        let (without, with) = (&pair[0], &pair[1]);
        let scale = 316.0 / with.rack_outcomes.len().max(1) as f64;
        let deferred = with
            .rack_outcomes
            .iter()
            .filter(|o| o.charge_duration.is_none() || !o.sla_met)
            .count();
        table.row(&[
            format!("{limit_mw:.2}"),
            format!("{:.3}", with.it_load_before_ot.as_megawatts() * scale),
            format!("{:.0}", without.max_capped_power.as_kilowatts() * scale),
            format!("{:.0}", with.max_capped_power.as_kilowatts() * scale),
            format!("~{deferred}"),
            format!(
                "{}/{}",
                with.sla_summary(Priority::P1).met,
                with.sla_summary(Priority::P1).total
            ),
        ]);
    }

    let notes = "without postponing, server capping engages once available power falls below \
                 the 316-rack × 1 A hardware floor (≈118 kW, i.e. limits under ≈2.2 MW); with \
                 postponing the controller defers low-priority racks instead, keeping servers \
                 uncapped at limits right down to the raw IT load (below that — e.g. the \
                 2.10 MW row, where IT alone exceeds the limit — capping is unavoidable by \
                 any charging policy). The cost is redundancy: \
                 deferred racks miss their charging-time SLA (a deliberately relaxed AOR, as \
                 the paper's future-work note anticipates)."
        .to_owned();

    ExperimentReport {
        id: "ext1",
        title: "Extension: charge postponing vs server capping under extreme limits",
        sections: vec![table.render(), notes],
    }
}
