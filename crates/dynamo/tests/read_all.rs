//! The bulk-read contract: on every in-process bus, `read_all_into` hands
//! over exactly `racks().filter_map(read)`, in `racks()` order, bit for bit
//! — over random fleets, random disconnect sets and random command
//! schedules.

use proptest::prelude::*;

use recharge_battery::ChargePolicy;
use recharge_dynamo::{
    AgentBus, FleetBackend, FleetBackendKind, InMemoryBus, PowerReading, RackAgent, SimRackAgent,
};
use recharge_units::{Amperes, Priority, RackId, Seconds, Watts};

/// One rack: priority pick, offered load (kW), whether it runs the
/// original 5 A charger instead of the variable one.
type RackSpec = (u8, f64, bool);

/// One command: kind pick, target-rack pick, magnitude in `[0, 1)`.
type Command = (u8, usize, f64);

/// One round: the input-power state of each sub-step, the commands sent at
/// the boundary, and racks whose reachability flips (in-memory bus only).
type Round = (Vec<bool>, Vec<Command>, Vec<usize>);

/// The in-process backends whose bus overrides the bulk read.
const KINDS: [FleetBackendKind; 2] = [FleetBackendKind::Serial, FleetBackendKind::Soa];

fn agents(specs: &[RackSpec]) -> Vec<SimRackAgent> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(p, load_kw, original))| {
            let mut builder =
                SimRackAgent::builder(RackId::new(i as u32), Priority::ALL[p as usize])
                    .offered_load(Watts::from_kilowatts(load_kw));
            if original {
                builder = builder.charge_policy(ChargePolicy::Original);
            }
            builder.build()
        })
        .collect()
}

/// Every field of a reading, floats by their IEEE-754 bits.
fn bits(r: &PowerReading) -> (u32, u8, bool, u64, u64, String, u64, u64, u64) {
    (
        r.rack.index(),
        r.priority.rank(),
        r.input_power_present,
        r.it_load.as_watts().to_bits(),
        r.recharge_power.as_watts().to_bits(),
        format!("{:?}", r.bbu_state),
        r.event_dod.value().to_bits(),
        r.dod.value().to_bits(),
        r.capped_power.as_watts().to_bits(),
    )
}

/// Checks the contract on one bus, starting from a non-empty buffer so a
/// bus that appends instead of replacing is caught too.
fn check_contract(bus: &dyn AgentBus, stale: PowerReading) -> Result<(), TestCaseError> {
    let expected: Vec<_> = bus
        .racks()
        .into_iter()
        .filter_map(|rack| bus.read(rack))
        .map(|r| bits(&r))
        .collect();
    let mut out = vec![stale; 3];
    bus.read_all_into(&mut out);
    let got: Vec<_> = out.iter().map(bits).collect();
    prop_assert_eq!(got, expected);
    Ok(())
}

fn send(bus: &mut dyn AgentBus, n: usize, (kind, pick, x): Command) {
    let rack = RackId::new((pick % n) as u32);
    match kind {
        0 => bus.set_charge_override(rack, Amperes::new(1.0 + 4.0 * x)),
        1 => bus.clear_charge_override(rack),
        2 => bus.set_charge_postponed(rack, x < 0.5),
        3 => bus.cap_servers(rack, Watts::from_kilowatts(6.0 * x)),
        _ => bus.uncap_servers(rack),
    }
}

fn load(rack: RackId, i: usize) -> Watts {
    Watts::from_kilowatts(4.0 + f64::from(rack.index() % 5) + 0.1 * i as f64)
}

fn arb_fleet() -> impl Strategy<Value = Vec<RackSpec>> {
    proptest::collection::vec((0u8..3, 3.0f64..9.0, proptest::bool::ANY), 1..24)
}

fn arb_rounds() -> impl Strategy<Value = Vec<Round>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::bool::ANY, 1..5),
            proptest::collection::vec((0u8..5, 0usize..64, 0.0f64..1.0), 0..8),
            proptest::collection::vec(0usize..64, 0..3),
        ),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn in_memory_bulk_read_matches_per_rack_reads(fleet in arb_fleet(), rounds in arb_rounds()) {
        let n = fleet.len();
        let mut bus = InMemoryBus::new(agents(&fleet));
        let stale = bus.read(RackId::new(0)).expect("rack 0 exists");
        let mut disconnected = vec![false; n];
        check_contract(&bus, stale)?;
        for (input_power, commands, flips) in rounds {
            for &power in &input_power {
                for agent in bus.agents_mut() {
                    agent.set_offered_load(load(agent.rack(), 0));
                    agent.set_input_power(power);
                    agent.step(Seconds::new(10.0));
                }
            }
            for command in commands {
                send(&mut bus, n, command);
            }
            for pick in flips {
                let i = pick % n;
                let rack = RackId::new(i as u32);
                if disconnected[i] {
                    bus.reconnect(rack);
                } else {
                    bus.disconnect(rack);
                }
                disconnected[i] = !disconnected[i];
            }
            check_contract(&bus, stale)?;
        }
    }

    #[test]
    fn backend_bulk_reads_match_per_rack_reads(fleet in arb_fleet(), rounds in arb_rounds()) {
        let n = fleet.len();
        for kind in KINDS {
            let mut backend: Box<dyn FleetBackend> = kind.build(agents(&fleet));
            let stale = backend.readings()[0];
            check_contract(backend.bus_mut(), stale)?;
            for (input_power, commands, _) in &rounds {
                backend.step_schedule(Seconds::new(10.0), input_power, &load);
                let bus = backend.bus_mut();
                for &command in commands {
                    send(bus, n, command);
                }
                check_contract(bus, stale)?;
            }
        }
    }
}
