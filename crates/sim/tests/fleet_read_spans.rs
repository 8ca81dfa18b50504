//! Who reads the fleet, as a trace shows it: on the plain in-process path the
//! simulator reuses the controller's gather, so a traced run records no
//! `sim.readings` span; over the RPC mesh the simulator reads the backend
//! itself, once per control tick.
//!
//! This is a single-test integration binary because it toggles the global
//! telemetry enable flag and drains the global trace buffers — state no other
//! concurrently running test may share.

use recharge_net::RpcMeshConfig;
use recharge_sim::Scenario;
use recharge_telemetry::TraceRecord;
use recharge_units::Seconds;

/// The paper MSB, cut short around the open transition.
fn msb() -> Scenario {
    Scenario::paper_msb(3)
        .warmup(Seconds::from_minutes(10.0))
        .max_horizon(Seconds::from_minutes(3.0))
}

fn count(records: &[TraceRecord], name: &str) -> usize {
    records.iter().filter(|r| r.name == name).count()
}

/// Runs `scenario` traced and returns what it recorded.
fn traced(scenario: Scenario) -> Vec<TraceRecord> {
    let _ = recharge_telemetry::take_records();
    let _ = scenario.build().run();
    recharge_telemetry::take_records()
}

#[test]
fn the_fleet_is_read_once_per_control_tick() {
    recharge_telemetry::set_enabled(true);
    let in_process = traced(msb());
    let in_process_soa = traced(msb().soa());
    let rpc = traced(msb().rpc(RpcMeshConfig::default()));
    recharge_telemetry::set_enabled(false);

    for (path, records) in [("serial", &in_process), ("soa", &in_process_soa)] {
        let ticks = count(records, "sim.tick");
        assert!(ticks > 0, "{path}: no sim.tick spans");
        assert_eq!(
            count(records, "sim.readings"),
            0,
            "{path}: fleet read twice"
        );
        assert_eq!(count(records, "controller.gather"), ticks, "{path}");
        assert_eq!(count(records, "sim.bookkeeping"), ticks, "{path}");
    }

    let ticks = count(&rpc, "sim.tick");
    assert!(ticks > 0, "rpc: no sim.tick spans");
    assert_eq!(count(&rpc, "sim.readings"), ticks, "rpc");
    assert_eq!(count(&rpc, "sim.bookkeeping"), ticks, "rpc");
}
