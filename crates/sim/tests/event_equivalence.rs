//! Serial vs SoA bit-identity under randomized schedules.
//!
//! The SoA engine skips quiescent racks, and its whole contract is "skip only
//! what provably does nothing". These properties randomize the inputs that
//! could break that claim — load-transition timings, input-power edge
//! placement, command streams that postpone/override/cap racks at arbitrary
//! boundaries, and homogeneous vs mixed-policy fleets (one SoA shard per
//! policy group) — and pin readings and `RunMetrics` bit-identical to
//! [`SerialBackend`]. On failure, proptest shrinks to the minimal divergent
//! schedule.

use proptest::prelude::*;

use recharge_battery::ChargePolicy;
use recharge_dynamo::{AgentBus, FleetBackend, SerialBackend, SimRackAgent, SoaBackend};
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::{Amperes, Priority, RackId, Seconds, Watts};

const FLEET: u32 = 6;

/// The test fleet. With `mixed` set, even racks run the original 5 A
/// charger and odd racks the variable one, so the SoA engine splits the
/// fleet into two shards.
fn agents(mixed: bool) -> Vec<SimRackAgent> {
    (0..FLEET)
        .map(|i| {
            let mut builder =
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0));
            if mixed && i % 2 == 0 {
                builder = builder.charge_policy(ChargePolicy::Original);
            }
            builder.build()
        })
        .collect()
}

fn apply_command(bus: &mut dyn AgentBus, op: u8, rack: u32, magnitude: f64) {
    let rack = RackId::new(rack % FLEET);
    match op % 6 {
        0 => bus.set_charge_override(rack, Amperes::new(magnitude)),
        1 => bus.clear_charge_override(rack),
        2 => bus.set_charge_postponed(rack, true),
        3 => bus.set_charge_postponed(rack, false),
        4 => bus.cap_servers(rack, Watts::from_kilowatts(magnitude)),
        _ => bus.uncap_servers(rack),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Backend-level lockstep: arbitrary power-edge placement, per-round
    /// load levels, and command streams must leave the SoA engine
    /// bit-identical to serial at every schedule boundary.
    #[test]
    fn readings_are_bit_identical_under_random_schedules(
        rounds in proptest::collection::vec(
            (
                0u8..6,                                          // command op
                0u32..FLEET,                                     // target rack
                0.5f64..8.0,                                     // magnitude
                proptest::collection::vec(proptest::bool::ANY, 1..10), // power schedule
                3.0f64..8.0,                                     // base load (kW)
            ),
            1..16,
        ),
        dt in 1.0f64..45.0,
        mixed in proptest::bool::ANY,
    ) {
        let mut reference = SerialBackend::new(agents(mixed));
        let mut soa = SoaBackend::new(agents(mixed));
        prop_assert_eq!(soa.shard_count(), if mixed { 2 } else { 1 });
        for (round, (op, rack, magnitude, schedule, base_kw)) in
            rounds.iter().enumerate()
        {
            // Successive rounds target different racks, so on a mixed fleet
            // the command stream lands on both shards mid-run.
            for backend in [&mut reference as &mut dyn FleetBackend, &mut soa] {
                apply_command(backend.bus_mut(), *op, *rack, *magnitude);
            }
            let base = *base_kw;
            let load = move |rack: RackId, i: usize| {
                Watts::from_kilowatts(
                    base + 0.3 * f64::from(rack.index()) + 0.1 * i as f64,
                )
            };
            reference.step_schedule(Seconds::new(dt), schedule, &load);
            soa.step_schedule(Seconds::new(dt), schedule, &load);
            prop_assert_eq!(
                reference.readings(),
                soa.readings(),
                "round {} diverged (mixed {}, schedule {:?})",
                round,
                mixed,
                schedule
            );
        }
        // Accounting must cover the dense schedule exactly.
        let total: u64 = rounds.iter().map(|r| r.3.len() as u64).sum();
        prop_assert_eq!(
            soa.substeps_executed() + soa.substeps_skipped(),
            total * u64::from(FLEET)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: whole-run `RunMetrics` (series, SLA outcomes, peaks)
    /// bit-identical between serial and SoA stepping across random fleets,
    /// discharge depths, and control cadences.
    #[test]
    fn run_metrics_are_bit_identical_end_to_end(
        seed in 0u64..1_000,
        control_every in 1usize..6,
        dod in 0.1f64..0.8,
        warmup in 0.0f64..600.0,
    ) {
        let base = Scenario::row(3, 2, 2, seed)
            .power_limit(Watts::from_kilowatts(190.0))
            .discharge(DischargeLevel::Custom(dod))
            .warmup(Seconds::new(warmup))
            .control_every(control_every)
            .max_horizon(Seconds::from_hours(2.5));
        let serial = base.clone().build().run();
        let soa = base.soa().build().run();
        prop_assert_eq!(
            &soa,
            &serial,
            "seed {} control_every {} dod {} warmup {}",
            seed,
            control_every,
            dod,
            warmup
        );
    }
}
