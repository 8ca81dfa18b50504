//! An outside driver that mirrors `FleetSimulation::run`'s tick loop using
//! only the program's public calls, so each layer can be timed from outside.
//!
//! The mirror covers what the benchmark's workloads use: a mitigated run
//! with the simulator's own controller and no HA replicas. Its `RunMetrics`
//! must be `==` to the program's on every run; when they are, the layer
//! times below describe the program's loop as long as `driver.drift_pct`
//! (untimed mirror vs program wall time) stays small.
//!
//! Per-tick boundaries are timed directly. The per-rack callbacks run
//! millions of times per simulation, and reading the clock around each one
//! would slow the traced run severalfold and serialize the very pipeline it
//! measures, so neither is timed per call:
//!
//! - the controller's gather (`AgentBus::racks` followed by one `read` per
//!   rack) is one contiguous block per tick, timed from the `racks` call to
//!   the return of the last `read`;
//! - `load_of` inside `step_schedule` is counted on every call, and one call
//!   in [`SAMPLE_EVERY`] records its `(rack, time)`. After the run the
//!   recorded calls are replayed back to back against the same trace, and
//!   their mean cost, scaled to the call count, is the load-synthesis time.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

use recharge_core::{ChargeIndex, SlaTable};
use recharge_dynamo::{
    AgentBus, Controller, ControllerConfig, EventScheduler, FleetBackend, PowerReading,
    SimRackAgent,
};
use recharge_power::{Breaker, BreakerStatus};
use recharge_sim::{RackSlaOutcome, RunMetrics, SeriesPoint};
use recharge_telemetry::{flight, FlightKind, ReasonCode};
use recharge_trace::{DiurnalModel, RackPowerTrace, SyntheticFleet, SyntheticFleetBuilder};
use recharge_units::{Amperes, DeviceId, Priority, RackId, Seconds, SimTime, Watts};

use crate::spec::{Backend, Spec};

/// One in this many per-rack callback calls is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// A simulation's fleet, agents and backend, ready for its first tick.
pub struct Setup {
    fleet: SyntheticFleet,
    backend: Box<dyn FleetBackend>,
}

/// Builds what the program builds before its first control tick: fleet
/// synthesis, agent construction, and the backend (or the RPC mesh).
///
/// # Panics
///
/// If the RPC mesh cannot be spawned.
#[must_use]
pub fn setup(spec: &Spec) -> Setup {
    let fleet = SyntheticFleetBuilder::new(spec.seed)
        .priority_counts(spec.counts.0, spec.counts.1, spec.counts.2)
        .mean_rack_power(spec.mean_rack_power)
        .diurnal(DiurnalModel::standard())
        .noise_tick(spec.tick.as_secs())
        .build();
    let agents: Vec<SimRackAgent> = fleet
        .fleet()
        .iter()
        .map(|entry| {
            SimRackAgent::builder(entry.rack, entry.priority)
                .charge_policy(spec.policy)
                .offered_load(fleet.rack_power(entry.rack, SimTime::ZERO))
                .build()
        })
        .collect();
    let backend = match &spec.backend {
        Backend::InProcess(kind) => kind.build(agents),
        Backend::Rpc(mesh) => {
            let leaf = recharge_net::LeafControlSpec {
                limit: spec.limit,
                strategy: spec.strategy,
                allow_postponing: false,
            };
            recharge_net::spawn_mesh(agents, mesh, Some(leaf))
                .expect("spawning the RPC mesh backend")
        }
    };
    Setup { fleet, backend }
}

/// Calls made to a per-call hook, and the host nanoseconds spent in them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent in the calls.
    pub ns: f64,
}

/// Records the trace calls `step_schedule` makes: a count, and the
/// arguments of one call in [`SAMPLE_EVERY`] for the replay.
#[derive(Default)]
struct LoadSampler {
    calls: Cell<u64>,
    sample: RefCell<Vec<(RackId, SimTime)>>,
}

impl LoadSampler {
    #[inline]
    fn record(&self, rack: RackId, at: SimTime) {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.sample.borrow_mut().push((rack, at));
        }
    }

    /// Host nanoseconds per call: the recorded calls replayed back to back,
    /// the fastest of three passes.
    fn replay_ns_per_call(&self, fleet: &SyntheticFleet) -> f64 {
        let sample = self.sample.borrow();
        if sample.is_empty() {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let mut sink = Watts::ZERO;
            for &(rack, at) in sample.iter() {
                sink += fleet.rack_power(rack, at);
            }
            std::hint::black_box(sink);
            best = best.min(ns_since(start) as f64 / sample.len() as f64);
        }
        best
    }
}

/// The controller's bus, timed from outside: the gather from the `racks`
/// call to the return of the read of the last rack it listed, and each
/// command of the flush.
struct TimedBus<'a> {
    inner: &'a mut dyn AgentBus,
    clock_ns: f64,
    gather_start: Cell<Option<Instant>>,
    listed: Cell<usize>,
    reads: Cell<usize>,
    gather_ns: Cell<u64>,
    cmd: Timed,
}

impl TimedBus<'_> {
    fn command(&mut self, f: impl FnOnce(&mut dyn AgentBus)) {
        let start = Instant::now();
        f(&mut *self.inner);
        self.cmd.calls += 1;
        self.cmd.ns += ns_since(start) as f64 - self.clock_ns;
    }
}

impl AgentBus for TimedBus<'_> {
    fn racks(&self) -> Vec<RackId> {
        self.gather_start.set(Some(Instant::now()));
        let racks = self.inner.racks();
        self.listed.set(racks.len());
        self.reads.set(0);
        racks
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        let reading = self.inner.read(rack);
        let reads = self.reads.get() + 1;
        self.reads.set(reads);
        if reads == self.listed.get() {
            if let Some(start) = self.gather_start.take() {
                self.gather_ns.set(self.gather_ns.get() + ns_since(start));
            }
        }
        reading
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        self.command(|bus| bus.set_charge_override(rack, current));
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        self.command(|bus| bus.clear_charge_override(rack));
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        self.command(|bus| bus.set_charge_postponed(rack, postponed));
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        self.command(|bus| bus.cap_servers(rack, limit));
    }

    fn uncap_servers(&mut self, rack: RackId) {
        self.command(|bus| bus.uncap_servers(rack));
    }
}

/// Layer timings of traced simulations (host nanoseconds), summed over
/// every simulation traced into them.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Fleet synthesis, agents, backend.
    pub setup_ns: u64,
    /// The whole traced run, setup included.
    pub run_ns: u64,
    /// `load_of` calls inside `step_schedule`, priced by the replay.
    pub load: Timed,
    /// `step_schedule`, its load callbacks included.
    pub step_ns: u64,
    /// `FleetBackend::readings`, called once per tick.
    pub readings_ns: u64,
    /// `AgentBus::read` calls in the controller's gather.
    pub bus_reads: u64,
    /// The controller's gathers: `racks` plus every `read`.
    pub gather_ns: u64,
    /// Ticks whose gather did not read every listed rack (untimed).
    pub gathers_incomplete: u64,
    /// Commands the controller flushed.
    pub bus_cmd: Timed,
    /// `Controller::tick` calls.
    pub controller_calls: u64,
    /// `Controller::tick`, its bus calls included.
    pub controller_ns: u64,
    /// `Breaker::observe` and the breaker gauges' inputs.
    pub breaker_ns: u64,
    /// Per-tick bookkeeping: series, SLA tracks.
    pub bookkeeping_ns: u64,
    /// Host latency of every control tick.
    pub tick_ns: Vec<u64>,
}

/// What one driver run produced.
#[derive(Debug, Clone)]
pub struct DriverRun {
    /// The run's metrics; must be `==` to the program's.
    pub metrics: RunMetrics,
    /// Control ticks executed.
    pub ticks: u64,
    /// Rack sub-steps the schedule asked for (racks × sub-steps).
    pub rack_substeps: u64,
}

struct ChargeTrack {
    started: SimTime,
    priority: Priority,
    dod: recharge_units::Dod,
}

#[inline]
fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `spec` through the mirrored loop, untimed.
#[must_use]
pub fn run(spec: &Spec) -> DriverRun {
    run_inner::<false>(spec, &mut Layers::default(), 0.0)
}

/// Runs `spec` through the mirrored loop, timing each layer into `layers`;
/// `clock_ns` is [`clock_cost_ns`], subtracted from each timed command.
#[must_use]
pub fn run_traced(spec: &Spec, layers: &mut Layers, clock_ns: f64) -> DriverRun {
    run_inner::<true>(spec, layers, clock_ns)
}

fn run_inner<const TRACED: bool>(spec: &Spec, layers: &mut Layers, clock_ns: f64) -> DriverRun {
    let run_start = Instant::now();
    let sla = SlaTable::table2();
    let tick = spec.tick;
    let Setup { fleet, mut backend } = setup(spec);

    let ot_start = fleet.diurnal().first_peak_after(SimTime::ZERO);
    let rack_count = fleet.fleet().len();
    let mean_rack_load = fleet.aggregate_power(ot_start) / rack_count as f64;
    let params = recharge_battery::BbuParams::production();
    let per_bbu = mean_rack_load / f64::from(params.bbus_per_rack);
    let ot_duration = params.full_discharge_energy * spec.discharge.target_dod() / per_bbu;
    let ot_end = ot_start + ot_duration;

    let config = ControllerConfig::new(DeviceId::new(0), spec.limit);
    let mut controller = Controller::new(config, spec.strategy);
    let mut breaker = Breaker::new(spec.limit);
    if TRACED {
        layers.setup_ns += ns_since(run_start);
    }

    let mut t = ot_start - spec.warmup;
    let hard_end = ot_end + spec.horizon;
    let mut next_sample = t;
    let mut series = Vec::new();
    let mut max_total = Watts::ZERO;
    let mut max_recharge = Watts::ZERO;
    let mut max_capped = Watts::ZERO;
    let mut it_before_ot = Watts::ZERO;
    let mut tripped = false;
    let mut tracks: HashMap<RackId, ChargeTrack> = HashMap::new();
    let mut outcomes: Vec<RackSlaOutcome> = Vec::new();

    let control_every = spec.control_every.max(1);
    let mut times: Vec<SimTime> = Vec::with_capacity(control_every);
    let mut input_power: Vec<bool> = Vec::with_capacity(control_every);
    let mut cadence: EventScheduler<()> = EventScheduler::new();
    cadence.schedule(0, ());
    let mut ticks = 0u64;
    let load = LoadSampler::default();

    while let Some((due, ())) = cadence.pop_next() {
        let tick_start = Instant::now();
        ticks += 1;
        times.clear();
        input_power.clear();
        let mut t_sub = t;
        for _ in 0..control_every {
            let in_ot = t_sub >= ot_start && t_sub < ot_end;
            times.push(t_sub);
            input_power.push(!in_ot);
            t_sub += tick;
        }
        let now = times[control_every - 1];
        recharge_telemetry::set_flight_now(now.as_secs());

        let step_start = Instant::now();
        if TRACED {
            backend.step_schedule(tick, &input_power, &|rack, i| {
                load.record(rack, times[i]);
                fleet.rack_power(rack, times[i])
            });
        } else {
            backend.step_schedule(tick, &input_power, &|rack, i| {
                fleet.rack_power(rack, times[i])
            });
        }
        let readings_start = Instant::now();
        let readings = backend.readings();
        let controller_start = Instant::now();

        let (it_load, recharge, capped) = if let Some(report) = backend.hosted_control_tick(now) {
            (report.it_load, report.recharge_power, report.capped_power)
        } else if TRACED {
            let mut bus = TimedBus {
                inner: backend.bus_mut(),
                clock_ns,
                gather_start: Cell::new(None),
                listed: Cell::new(0),
                reads: Cell::new(0),
                gather_ns: Cell::new(0),
                cmd: Timed::default(),
            };
            let report = controller.tick(now, &mut bus);
            layers.controller_calls += 1;
            layers.bus_reads += bus.reads.get() as u64;
            layers.gather_ns += bus.gather_ns.get();
            layers.gathers_incomplete += u64::from(bus.gather_start.get().is_some());
            layers.bus_cmd.calls += bus.cmd.calls;
            layers.bus_cmd.ns += bus.cmd.ns;
            (report.it_load, report.recharge_power, report.capped_power)
        } else {
            let report = controller.tick(now, backend.bus_mut());
            (report.it_load, report.recharge_power, report.capped_power)
        };
        let total = it_load + recharge;

        let breaker_start = Instant::now();
        if breaker.observe(total, now) == BreakerStatus::Tripped {
            tripped = true;
        }
        std::hint::black_box(breaker.available_power(total));
        std::hint::black_box(breaker.next_possible_trip_time(now, total));
        let bookkeeping_start = Instant::now();

        if now < ot_start {
            it_before_ot = total;
        }
        max_total = max_total.max(total);
        max_recharge = max_recharge.max(recharge);
        max_capped = max_capped.max(capped);
        if now >= next_sample {
            series.push(SeriesPoint {
                at: now,
                it_load,
                recharge_power: recharge,
                capped_power: capped,
            });
            next_sample = now + spec.sample_every;
        }

        let mut all_settled = true;
        for reading in &readings {
            match reading.bbu_state {
                recharge_battery::BbuState::Charging => {
                    all_settled = false;
                    tracks.entry(reading.rack).or_insert(ChargeTrack {
                        started: now,
                        priority: reading.priority,
                        dod: reading.event_dod,
                    });
                }
                recharge_battery::BbuState::FullyCharged => {
                    if let Some(track) = tracks.remove(&reading.rack) {
                        let duration = now - track.started;
                        let budget = sla.charge_time_budget(track.priority);
                        let sla_met = duration <= budget;
                        flight(
                            FlightKind::SlaOutcome,
                            if sla_met {
                                ReasonCode::SlaMet
                            } else {
                                ReasonCode::SlaMissed
                            },
                            reading.rack.index(),
                            track.priority.rank(),
                            ChargeIndex::dod_bucket(track.dod),
                            duration.as_secs().to_bits(),
                            budget.as_secs().to_bits(),
                        );
                        outcomes.push(RackSlaOutcome {
                            rack: reading.rack,
                            priority: track.priority,
                            event_dod: track.dod,
                            charge_duration: Some(duration),
                            sla_met,
                        });
                    }
                }
                _ => all_settled = false,
            }
        }

        if TRACED {
            let tick_end = Instant::now();
            layers.step_ns += (readings_start - step_start).as_nanos() as u64;
            layers.readings_ns += (controller_start - readings_start).as_nanos() as u64;
            layers.controller_ns += (breaker_start - controller_start).as_nanos() as u64;
            layers.breaker_ns += (bookkeeping_start - breaker_start).as_nanos() as u64;
            layers.bookkeeping_ns += (tick_end - bookkeeping_start).as_nanos() as u64;
            layers
                .tick_ns
                .push((tick_end - tick_start).as_nanos() as u64);
        }

        t = t_sub;
        if tripped || (t >= ot_end + Seconds::new(60.0) && all_settled) || t >= hard_end {
            break;
        }
        cadence.schedule(due + 1, ());
    }

    for (rack, track) in tracks {
        recharge_telemetry::flight_at(
            t.as_secs(),
            FlightKind::SlaOutcome,
            ReasonCode::SlaMissed,
            rack.index(),
            track.priority.rank(),
            ChargeIndex::dod_bucket(track.dod),
            f64::INFINITY.to_bits(),
            sla.charge_time_budget(track.priority).as_secs().to_bits(),
        );
        outcomes.push(RackSlaOutcome {
            rack,
            priority: track.priority,
            event_dod: track.dod,
            charge_duration: None,
            sla_met: false,
        });
    }
    outcomes.sort_by_key(|o| o.rack);

    let metrics = RunMetrics {
        series,
        power_limit: spec.limit,
        max_total_draw: max_total,
        max_recharge_power: max_recharge,
        max_capped_power: max_capped,
        it_load_before_ot: it_before_ot,
        breaker_tripped: tripped,
        rack_outcomes: outcomes,
        ot_start,
        ot_duration,
    };
    drop(backend);
    if TRACED {
        layers.run_ns += ns_since(run_start);
        let calls = load.calls.get();
        layers.load.calls += calls;
        layers.load.ns += load.replay_ns_per_call(&fleet) * calls as f64;
    }
    DriverRun {
        metrics,
        ticks,
        rack_substeps: ticks * control_every as u64 * rack_count as u64,
    }
}

/// The bias one timed region carries: the host nanoseconds an empty
/// `Instant::now` … `elapsed` pair reports, on top of the timed call itself.
#[must_use]
pub fn clock_cost_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let reps = 20_000u32;
        let mut sum = 0u64;
        for _ in 0..reps {
            let s = Instant::now();
            sum += s.elapsed().as_nanos() as u64;
        }
        best = best.min(sum as f64 / f64::from(reps));
    }
    best
}
