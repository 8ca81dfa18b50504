//! Pluggable fleet-execution backends.
//!
//! The simulator's tick loop needs three things from wherever the rack agents
//! live: advance the physics over a schedule of sub-steps, read back the
//! fleet's telemetry, and hand the controller an [`AgentBus`]. The
//! [`FleetBackend`] trait captures exactly that surface, so the loop is
//! agnostic to how agents are stepped. Two in-process engines implement it:
//! [`SerialBackend`] steps agent objects one rack at a time and is the
//! reference, and [`SoaBackend`] steps flat per-rack arrays and skips
//! quiescent racks. The RPC backends in `recharge-net` implement it over a
//! wire, stepping hosted agents in [`SerialBackend`]'s per-agent order.
//!
//! All backends are **bit-identical**: a backend chooses *how* the per-agent
//! `set_offered_load → set_input_power → step` sequence is executed, never
//! what the sequence computes. [`FleetBackendKind`] is the serializable
//! selector a scenario carries.

use std::fmt;
use std::str::FromStr;

use recharge_telemetry::tspan;
use recharge_units::{RackId, Seconds, SimTime, Watts};

use crate::agent::{RackAgent, SimRackAgent};
use crate::bus::{AgentBus, InMemoryBus};
use crate::messages::PowerReading;
use crate::soa::SoaBackend;

/// Where rack agents execute, and how sub-step schedules reach them.
///
/// A *schedule* is the run of physical sub-steps between two consecutive
/// controller interventions: `input_power[i]` and `load_of(rack, i)` describe
/// sub-step `i`, every sub-step lasting `dt`. Commands issued through
/// [`bus_mut`](Self::bus_mut) are only required to take effect at schedule
/// boundaries — which is where the controller runs, so it can never observe
/// the difference.
pub trait FleetBackend: Send {
    /// A short stable name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Advances every agent through the schedule's sub-steps.
    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    );

    /// Post-step telemetry for every rack, in fleet order.
    fn readings(&self) -> Vec<PowerReading>;

    /// The command/read surface the controller drives.
    fn bus_mut(&mut self) -> &mut dyn AgentBus;

    /// Runs a control tick *hosted by the backend*, if it supports one.
    ///
    /// Backends that colocate the leaf control tier with the agents (e.g. a
    /// sharded RPC mesh running leaf controllers server-side) return
    /// `Some(report)` and the simulator skips its own controller for that
    /// tick; the default is `None` — control stays with the simulator.
    fn hosted_control_tick(&mut self, _now: SimTime) -> Option<HostedControlReport> {
        None
    }
}

/// What a backend-hosted control tick observed, summed over the fleet.
///
/// The fields mirror the like-named [`ControllerReport`] aggregates so the
/// simulator's bookkeeping is agnostic to who ran the control loop.
///
/// [`ControllerReport`]: crate::ControllerReport
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostedControlReport {
    /// Total present IT load across reachable racks.
    pub it_load: Watts,
    /// Total battery recharge draw across reachable racks.
    pub recharge_power: Watts,
    /// Total server power currently capped away.
    pub capped_power: Watts,
}

/// Steps every agent in-process, one rack at a time — the reference backend.
pub struct SerialBackend {
    bus: InMemoryBus<SimRackAgent>,
    racks: Vec<RackId>,
}

impl SerialBackend {
    /// Creates a serial backend over the given agents.
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>) -> Self {
        let racks = agents.iter().map(RackAgent::rack).collect();
        SerialBackend {
            bus: InMemoryBus::new(agents),
            racks,
        }
    }
}

impl FleetBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let _span = tspan!("fleet.step_schedule", "fleet");
        for (i, &power) in input_power.iter().enumerate() {
            for &rack in &self.racks {
                if let Some(agent) = self.bus.agent_mut(rack) {
                    agent.set_offered_load(load_of(rack, i));
                    agent.set_input_power(power);
                    agent.step(dt);
                }
            }
        }
    }

    fn readings(&self) -> Vec<PowerReading> {
        self.bus.agents().map(RackAgent::read).collect()
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        &mut self.bus
    }
}

/// The backend selector a scenario carries: which [`FleetBackend`] to build
/// for a fleet of agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetBackendKind {
    /// In-process serial stepping ([`SerialBackend`]); the default and the
    /// reference every other backend is pinned to.
    #[default]
    Serial,
    /// The struct-of-arrays engine ([`SoaBackend`]): flat per-rack arrays,
    /// quiescent racks fast-forward instead of stepping.
    Soa,
}

/// Every string [`FleetBackendKind`] parses, in the order the parse error
/// lists them. `"event"` is an alias for [`FleetBackendKind::Soa`], which
/// absorbed the event-driven engine.
const ACCEPTED: [&str; 3] = ["serial", "soa", "event"];

impl FleetBackendKind {
    /// Builds the backend over the given agents.
    #[must_use]
    pub fn build(self, agents: Vec<SimRackAgent>) -> Box<dyn FleetBackend> {
        match self {
            FleetBackendKind::Serial => Box::new(SerialBackend::new(agents)),
            FleetBackendKind::Soa => Box::new(SoaBackend::new(agents)),
        }
    }
}

impl fmt::Display for FleetBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FleetBackendKind::Serial => "serial",
            FleetBackendKind::Soa => "soa",
        })
    }
}

/// A [`FleetBackendKind`] string that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendKindError {
    /// The rejected input.
    pub text: String,
}

impl fmt::Display for ParseBackendKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend kind {:?} (expected one of {ACCEPTED:?})",
            self.text
        )
    }
}

impl std::error::Error for ParseBackendKindError {}

impl FromStr for FleetBackendKind {
    type Err = ParseBackendKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "serial" => Ok(FleetBackendKind::Serial),
            "soa" | "event" => Ok(FleetBackendKind::Soa),
            _ => Err(ParseBackendKindError { text: s.to_owned() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Controller, ControllerConfig, Strategy};
    use recharge_units::{DeviceId, Priority};

    fn agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect()
    }

    #[test]
    fn kind_names_and_default() {
        assert_eq!(FleetBackendKind::default(), FleetBackendKind::Serial);
        assert_eq!(FleetBackendKind::Serial.build(agents(1)).name(), "serial");
        assert_eq!(FleetBackendKind::Soa.build(agents(1)).name(), "soa");
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [FleetBackendKind::Serial, FleetBackendKind::Soa] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        assert_eq!(FleetBackendKind::Soa.to_string(), "soa");
        assert_eq!("serial".parse(), Ok(FleetBackendKind::Serial));
        assert_eq!("soa".parse(), Ok(FleetBackendKind::Soa));
        assert_eq!("event".parse(), Ok(FleetBackendKind::Soa));
    }

    #[test]
    fn removed_and_malformed_kinds_are_rejected() {
        // The shard-count forms are errors, not aliases: an alias would
        // silently ignore the shard count.
        for bad in [
            "sharded:2",
            "sharded-batched:2",
            "soa-sharded:2",
            "event-sharded:2",
            "",
            "serial:1",
            "soa:1",
            "event:1",
            "events",
            "SOA",
        ] {
            assert_eq!(
                bad.parse::<FleetBackendKind>(),
                Err(ParseBackendKindError {
                    text: bad.to_owned()
                }),
                "{bad:?} parsed"
            );
        }
    }

    #[test]
    fn parse_error_lists_exactly_the_accepted_strings() {
        let err = "sharded:2".parse::<FleetBackendKind>().unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"unknown backend kind "sharded:2" (expected one of ["serial", "soa", "event"])"#
        );
        for accepted in ACCEPTED {
            assert!(accepted.parse::<FleetBackendKind>().is_ok(), "{accepted}");
        }
    }

    #[test]
    fn controller_gather_equals_a_fleet_read_taken_before_the_tick() {
        // The simulator reuses `Controller::last_readings` in place of
        // `readings()` on in-process backends. Across ticks that send
        // overrides and cap servers, the gather must equal a fleet read
        // taken just before the tick, rack for rack in fleet order.
        for kind in [FleetBackendKind::Serial, FleetBackendKind::Soa] {
            let mut backend = kind.build(agents(3));
            let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
            let dt = Seconds::new(1.0);
            backend.step_schedule(dt, &[false; 60], &load);
            // Below IT load plus the 1 A fleet floor: capping is inevitable.
            let config = ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(18.5));
            let mut controller = Controller::new(config, Strategy::PriorityAware);
            let mut commanded_and_capped = false;
            for s in 0..30 {
                backend.step_schedule(dt, &[true], &load);
                let before = backend.readings();
                let report =
                    controller.tick(SimTime::from_secs(61.0 + f64::from(s)), backend.bus_mut());
                assert_eq!(
                    controller.last_readings(),
                    before.as_slice(),
                    "{kind} tick {s}"
                );
                commanded_and_capped |=
                    report.overrides_sent > 0 && report.cap_requested > Watts::ZERO;
            }
            assert!(
                commanded_and_capped,
                "{kind}: no tick both sent overrides and capped servers"
            );
        }
    }
}
