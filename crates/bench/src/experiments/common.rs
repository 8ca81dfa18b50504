//! Shared configuration for the MSB-scale simulation experiments, and the
//! helper that runs their independent sweep points on every core.

use std::num::NonZero;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

use recharge_battery::ChargePolicy;
use recharge_dynamo::Strategy;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::Watts;

use crate::fast_mode;

/// The three charger deployments Fig 13 / Table III compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// The original 5 A charger, no coordination.
    OriginalCharger,
    /// The variable (Eq. 1) charger, no coordination.
    VariableCharger,
    /// The variable charger under coordinated priority-aware control.
    PriorityAware,
}

impl Deployment {
    /// All deployments in the paper's comparison order.
    pub const ALL: [Deployment; 3] = [
        Deployment::OriginalCharger,
        Deployment::VariableCharger,
        Deployment::PriorityAware,
    ];

    /// Short label used in report tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Deployment::OriginalCharger => "original charger",
            Deployment::VariableCharger => "variable charger",
            Deployment::PriorityAware => "priority-aware",
        }
    }

    fn strategy(self) -> Strategy {
        match self {
            Deployment::OriginalCharger | Deployment::VariableCharger => Strategy::Uncoordinated,
            Deployment::PriorityAware => Strategy::PriorityAware,
        }
    }

    fn charge_policy(self) -> ChargePolicy {
        match self {
            Deployment::OriginalCharger => ChargePolicy::Original,
            Deployment::VariableCharger | Deployment::PriorityAware => ChargePolicy::Variable,
        }
    }
}

/// The fleet-size divisor in effect: 1 normally, 4 in fast mode (79 racks
/// with proportionally scaled limits — the dynamics are scale-free because
/// both load and recharge power scale with rack count).
#[must_use]
pub fn scale_divisor() -> usize {
    if fast_mode() {
        4
    } else {
        1
    }
}

/// The paper's MSB priority mix (89/142/85), divided by the scale divisor.
#[must_use]
pub fn paper_counts() -> (usize, usize, usize) {
    let d = scale_divisor();
    (89 / d, 142 / d, 85 / d)
}

/// Builds an MSB-scale scenario for a deployment: `limit_mw` is the
/// full-scale breaker limit (scaled along with the fleet in fast mode).
#[must_use]
pub fn msb_scenario(
    counts: (usize, usize, usize),
    limit_mw: f64,
    discharge: DischargeLevel,
    deployment: Deployment,
    strategy_override: Option<Strategy>,
    seed: u64,
) -> Scenario {
    let total_full_scale = 316.0;
    let total = (counts.0 + counts.1 + counts.2) as f64;
    let limit = Watts::from_megawatts(limit_mw * total / total_full_scale);
    Scenario::paper_msb(seed)
        .priority_counts(counts.0, counts.1, counts.2)
        .power_limit(limit)
        .strategy(strategy_override.unwrap_or_else(|| deployment.strategy()))
        .charge_policy(deployment.charge_policy())
        .discharge(discharge)
}

/// Maps `f` over `items` on every available core and returns the results in
/// input order, so a report assembled from them is byte-identical to a
/// serial loop's.
///
/// Sweep points are independent simulations, and each one's output depends
/// only on its own inputs. Workers pull the next item off one shared index,
/// so a slow point never leaves a core idle behind a fixed partition. An
/// item that panics is re-raised on the caller with its original payload
/// once the other workers have drained the queue: no partial result is ever
/// returned. One env-trace scope spans the whole map, so a
/// `RECHARGE_TRACE` run writes a single trace holding every point.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, NonZero::get);
    par_map_on(threads, items, f)
}

/// [`par_map`] on exactly `threads` workers (clamped to the item count).
fn par_map_on<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let _trace = recharge_telemetry::env_trace_scope();
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    // `Relaxed` is enough: the index publishes no data. Results travel back
    // through `join`, which orders everything the workers wrote.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break done;
            };
            done.push((i, f(item)));
        }
    };
    // The calling thread is one of the workers. A panic in a spawned worker
    // comes back through `join`; one on the calling thread leaves the scope
    // after the spawned workers finish. Either way the payload is kept.
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut results = worker();
        for h in handles {
            results.extend(
                h.join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_sim::RunMetrics;
    use recharge_units::Seconds;

    #[test]
    fn par_map_preserves_input_order_and_reraises_panics() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let squares = par_map_on(threads, &items, |&x| x * x);
            assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
        assert!(par_map_on(4, &[] as &[u8], |&x| x).is_empty());

        // A panicking item reaches the caller with its own payload.
        for threads in [1, 3] {
            let caught = panic::catch_unwind(|| {
                par_map_on(threads, &items, |&x| {
                    assert!(x != 5, "sweep point {x} failed");
                    x
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("sweep point 5 failed"), "{threads} threads");
        }
    }

    #[test]
    fn par_map_is_deterministic_across_thread_counts() {
        // Small row simulations at distinct seeds and limits: one worker and
        // several must produce the very same metrics, in the same order.
        let points: Vec<(u64, f64)> = (0..6).map(|i| (i, 150.0 + 10.0 * i as f64)).collect();
        let simulate = |&(seed, limit_kw): &(u64, f64)| -> RunMetrics {
            Scenario::row(2, 2, 2, seed)
                .power_limit(Watts::from_kilowatts(limit_kw))
                .warmup(Seconds::new(600.0))
                .max_horizon(Seconds::new(1_800.0))
                .build()
                .run()
        };
        let serial = par_map_on(1, &points, simulate);
        let parallel = par_map_on(4, &points, simulate);
        assert!(
            serial.windows(2).any(|w| w[0] != w[1]),
            "the points must differ, or a reordering could not show"
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn deployment_mapping() {
        assert_eq!(
            Deployment::OriginalCharger.charge_policy(),
            ChargePolicy::Original
        );
        assert_eq!(
            Deployment::PriorityAware.strategy(),
            Strategy::PriorityAware
        );
        assert_eq!(
            Deployment::VariableCharger.strategy(),
            Strategy::Uncoordinated
        );
        assert_eq!(Deployment::OriginalCharger.label(), "original charger");
    }

    #[test]
    fn scenario_limit_scales_with_fleet() {
        let s = msb_scenario(
            (89, 142, 85),
            2.5,
            DischargeLevel::Medium,
            Deployment::PriorityAware,
            None,
            1,
        );
        // Full fleet: full limit.
        assert!((s.limit().as_megawatts() - 2.5).abs() < 1e-9);
    }
}
