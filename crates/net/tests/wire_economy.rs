//! The single-server mesh's wire economy, counted on the global telemetry
//! registry: a control tick costs one bulk read and at most one command
//! batch, and a lost batch counts every command it carried.
//!
//! The tests flip the global telemetry flag and read global counters, so
//! they hold [`telemetry_lock`] and live in their own integration binary,
//! where no other test's traffic can move the counters.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use recharge_dynamo::{
    AgentBus, Controller, ControllerConfig, FleetBackend, RackAgent, SimRackAgent, Strategy,
};
use recharge_net::{
    AgentHost, AgentServer, Endpoint, FaultClock, FaultPlan, Partition, RpcBus, RpcBusConfig,
    RpcFleetBackend, RpcMeshConfig, DEFAULT_LEASE_TICKS,
};
use recharge_units::{DeviceId, Priority, RackId, Seconds, SimTime, Watts};

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The paper MSB's shape: 316 racks at 2.5 MW, mixed priorities, every
/// battery discharged by a 60 s open transition so the controller has
/// recharge to coordinate from its first tick.
fn msb_agents() -> Vec<SimRackAgent> {
    let mut agents: Vec<SimRackAgent> = (0..316u32)
        .map(|i| {
            SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                .offered_load(Watts::from_kilowatts(7.0))
                .build()
        })
        .collect();
    for agent in &mut agents {
        agent.set_input_power(false);
        agent.step(Seconds::new(60.0));
        agent.set_input_power(true);
    }
    agents
}

/// A clean link spends at most two RPCs per control tick — one
/// `ReadAllReadings`, one `ApplyCommandBatch` — where a per-rack gather would
/// spend one per rack. Discovery happens at spawn and is not counted.
#[test]
fn control_tick_costs_at_most_two_rpcs() {
    let _lock = telemetry_lock();
    recharge_telemetry::set_enabled(true);
    let calls = recharge_telemetry::counter("net.rpc_calls");

    let mut backend =
        RpcFleetBackend::spawn(msb_agents(), &RpcMeshConfig::default()).expect("spawning the mesh");
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_megawatts(2.5)),
        Strategy::PriorityAware,
    );
    let load = |_: RackId, _: usize| Watts::from_kilowatts(7.0);
    let before = calls.value();
    let control_ticks = 60u32;
    let mut overrides = 0;
    for s in 0..control_ticks {
        backend.step_schedule(Seconds::new(1.0), &[true], &load);
        let _ = backend.readings();
        overrides += controller
            .tick(SimTime::from_secs(f64::from(s)), backend.bus_mut())
            .overrides_sent;
    }
    let spent = calls.value() - before;
    recharge_telemetry::set_enabled(false);

    assert!(overrides > 0, "the run must exercise the command path");
    assert!(
        spent <= 2 * u64::from(control_ticks),
        "{spent} RPCs over {control_ticks} control ticks"
    );
    let coordinated = backend
        .host()
        .racks()
        .iter()
        .filter(|&&rack| backend.host().is_coordinated(rack))
        .count();
    assert_eq!(coordinated, 316, "every rack stays under a live lease");
}

/// A whole-link partition that loses a three-command batch moves
/// `net.rpc_lost_commands` by three, not by one.
#[test]
fn lost_batch_counts_each_command() {
    let _lock = telemetry_lock();
    let clock = FaultClock::new();
    let agents: Vec<SimRackAgent> = (0..3u32)
        .map(|i| SimRackAgent::builder(RackId::new(i), Priority::P1).build())
        .collect();
    let host = Arc::new(AgentHost::new(agents, DEFAULT_LEASE_TICKS, clock.clone()));
    let server = AgentServer::serve(Arc::clone(&host), &Endpoint::loopback()).expect("serve");
    let config = RpcBusConfig {
        fault: Some(FaultPlan::partitions_only(vec![Partition::all(1, 2)])),
        ..RpcBusConfig::default()
    };
    let mut bus = RpcBus::connect(server.endpoint(), config, clock.clone()).expect("connect");

    clock.advance(1);
    for i in 0..3 {
        bus.cap_servers(RackId::new(i), Watts::from_kilowatts(1.0));
    }
    recharge_telemetry::set_enabled(true);
    let lost = recharge_telemetry::counter("net.rpc_lost_commands");
    let before = lost.value();
    bus.flush_commands();
    let counted = lost.value() - before;
    recharge_telemetry::set_enabled(false);

    assert_eq!(counted, 3);
    host.with_agents(|agents| {
        assert!(agents.iter().all(|a| a.read().capped_power == Watts::ZERO));
    });
}
