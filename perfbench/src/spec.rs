//! Simulation specs and the benchmark's named workloads.
//!
//! A [`Spec`] carries every knob the benchmark sets on a [`Scenario`], in the
//! open: `Scenario`'s fields are private, and the outside driver needs the
//! same parameters the program runs with. [`Spec::scenario`] sets every one
//! of them explicitly, so the program's run and the driver's mirror start
//! from identical inputs.

use std::fmt;
use std::str::FromStr;

use recharge_battery::ChargePolicy;
use recharge_bench::experiments::{common, fig14};
use recharge_dynamo::{FleetBackendKind, Strategy};
use recharge_net::RpcMeshConfig;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::{Seconds, Watts};

/// Where a simulation's rack agents run.
#[derive(Debug, Clone)]
pub enum Backend {
    /// An in-process backend, named by its parse string.
    InProcess(FleetBackendKind),
    /// The RPC mesh.
    Rpc(Box<RpcMeshConfig>),
}

/// Every parameter of one simulation the benchmark runs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Trace seed.
    pub seed: u64,
    /// P1/P2/P3 rack counts.
    pub counts: (usize, usize, usize),
    /// Mean rack power of the synthetic fleet.
    pub mean_rack_power: Watts,
    /// Breaker limit.
    pub limit: Watts,
    /// Coordination strategy.
    pub strategy: Strategy,
    /// Charger policy.
    pub policy: ChargePolicy,
    /// Open-transition depth.
    pub discharge: DischargeLevel,
    /// Physical sub-step.
    pub tick: Seconds,
    /// Series sampling interval.
    pub sample_every: Seconds,
    /// Simulated time before the open transition.
    pub warmup: Seconds,
    /// Simulated time allowed after the open transition.
    pub horizon: Seconds,
    /// Sub-steps per controller tick.
    pub control_every: usize,
    /// Where the agents run.
    pub backend: Backend,
}

/// Parses an in-process backend name; the names are the program's own parse
/// strings, which outlive renames of the enum variants.
#[must_use]
pub fn backend(name: &str) -> Backend {
    Backend::InProcess(
        FleetBackendKind::from_str(name)
            .unwrap_or_else(|e| panic!("backend `{name}` does not parse: {e}")),
    )
}

impl Spec {
    /// `Scenario::paper_msb(seed)`'s defaults: the 316-rack MSB at 2.5 MW,
    /// priority-aware control, variable charger, medium discharge.
    #[must_use]
    pub fn paper_msb(seed: u64) -> Self {
        Spec {
            seed,
            counts: (89, 142, 85),
            mean_rack_power: Watts::from_kilowatts(6.33),
            limit: Watts::from_megawatts(2.5),
            strategy: Strategy::PriorityAware,
            policy: ChargePolicy::Variable,
            discharge: DischargeLevel::Medium,
            tick: Seconds::new(1.0),
            sample_every: Seconds::new(5.0),
            warmup: Seconds::new(60.0),
            horizon: Seconds::from_hours(3.0),
            control_every: 1,
            backend: backend("serial"),
        }
    }

    /// `Scenario::row(p1, p2, p3, seed)`'s defaults: a small row at 190 kW.
    #[must_use]
    pub fn row(p1: usize, p2: usize, p3: usize, seed: u64) -> Self {
        Spec {
            counts: (p1, p2, p3),
            mean_rack_power: Watts::from_kilowatts(6.0),
            limit: Watts::from_kilowatts(190.0),
            ..Spec::paper_msb(seed)
        }
    }

    /// One point of the paper's Fig 14 sweep, exactly as
    /// `experiments::common::msb_scenario` builds it.
    #[must_use]
    pub fn fig14_point(
        limit_mw: f64,
        strategy: Strategy,
        discharge: DischargeLevel,
        seed: u64,
    ) -> Self {
        let counts = common::paper_counts();
        let total = (counts.0 + counts.1 + counts.2) as f64;
        Spec {
            counts,
            limit: Watts::from_megawatts(limit_mw * total / 316.0),
            strategy,
            discharge,
            ..Spec::paper_msb(seed)
        }
    }

    /// The program's scenario for this spec, every field set explicitly.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        let scenario = Scenario::paper_msb(self.seed)
            .priority_counts(self.counts.0, self.counts.1, self.counts.2)
            .mean_rack_power(self.mean_rack_power)
            .power_limit(self.limit)
            .strategy(self.strategy)
            .charge_policy(self.policy)
            .discharge(self.discharge)
            .tick(self.tick)
            .sample_every(self.sample_every)
            .warmup(self.warmup)
            .max_horizon(self.horizon)
            .control_every(self.control_every);
        match &self.backend {
            Backend::InProcess(kind) => scenario.backend(*kind),
            Backend::Rpc(config) => scenario.rpc(RpcMeshConfig::clone(config)),
        }
    }

    /// The same simulation on the serial reference backend.
    #[must_use]
    pub fn on_serial(&self) -> Self {
        Spec {
            backend: backend("serial"),
            ..self.clone()
        }
    }
}

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper MSB, 4 h warmup, 2.5 h horizon, a controller every 1 s tick,
    /// `serial` backend.
    MsbCe1,
    /// The same at `control_every(5)` on the `event` backend.
    MsbIdleCe5,
    /// The paper's Fig 14 limit sweep (36 MSB runs) through
    /// `experiments::fig14::run`.
    Fig14Sweep,
    /// Paper MSB over the default loopback-TCP RPC mesh.
    RpcMsb,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MsbCe1,
        Workload::MsbIdleCe5,
        Workload::Fig14Sweep,
        Workload::RpcMsb,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MsbCe1 => "msb-ce1",
            Workload::MsbIdleCe5 => "msb-idle-ce5",
            Workload::Fig14Sweep => "fig14-sweep",
            Workload::RpcMsb => "rpc-msb",
        }
    }

    /// The simulations one operation of the workload runs, in order. For
    /// `fig14-sweep` these are the 36 points `fig14::run` sweeps (its trace
    /// seed is the paper figure's own, so `seed` does not enter); for the
    /// others the one simulation the seed selects.
    #[must_use]
    pub fn sims(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::MsbCe1 => vec![msb(seed)],
            Workload::MsbIdleCe5 => vec![Spec {
                control_every: 5,
                backend: backend("event"),
                ..msb(seed)
            }],
            Workload::Fig14Sweep => fig14_grid(),
            Workload::RpcMsb => vec![Spec {
                // The paper MSB's default 60 s warmup, with the horizon cut
                // to 3 simulated minutes after the open transition so one run
                // takes seconds, not half a minute: every tick still reads
                // all 316 racks over the wire, and the recharge admissions
                // after the transition still write to them.
                horizon: Seconds::from_minutes(3.0),
                backend: Backend::Rpc(Box::default()),
                ..Spec::paper_msb(seed)
            }],
        }
    }
}

/// The ROADMAP's MSB workload: 1 s tick, 4 h warmup, 2.5 h horizon.
fn msb(seed: u64) -> Spec {
    Spec {
        warmup: Seconds::from_hours(4.0),
        horizon: Seconds::from_hours(2.5),
        ..Spec::paper_msb(seed)
    }
}

/// The trace seed `experiments::fig14::run` sweeps with.
pub const FIG14_SEED: u64 = 0xF14;

/// The (strategy, discharge) pairs of Fig 14, in `fig14::run`'s order.
pub const FIG14_PANELS: [(Strategy, DischargeLevel); 4] = [
    (Strategy::PriorityAware, DischargeLevel::Medium),
    (Strategy::Global, DischargeLevel::Medium),
    (Strategy::PriorityAware, DischargeLevel::High),
    (Strategy::Global, DischargeLevel::High),
];

fn fig14_grid() -> Vec<Spec> {
    FIG14_PANELS
        .iter()
        .flat_map(|&(strategy, discharge)| {
            fig14::limits_mw()
                .into_iter()
                .map(move |mw| Spec::fig14_point(mw, strategy, discharge, FIG14_SEED))
        })
        .collect()
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{s}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}
