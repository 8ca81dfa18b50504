//! Quiescence skipping: the sleep bookkeeping behind [`SoaBackend`].
//!
//! Most of a diurnal run is dead time — batteries sit full, no overload, no
//! CC→CV knee — yet a dense pass would still execute every rack on every
//! sub-step. [`SoaBackend`] keeps a per-rack sleep state ([`Lane`], one per
//! SoA shard) and a next-event queue, and only steps the racks whose event
//! horizon or input has actually arrived.
//!
//! **Equivalence argument.** The skip authority is
//! `SoaShard::is_quiescent`, which grants sleep only when the next dense
//! sub-step would be an *exact* no-op (settled state with zero wall power, or
//! postponed charging) — never from an analytic prediction, because float
//! accumulation is step-size dependent. The battery/breaker
//! `next_event_time()` horizons stay advisory lower bounds (proptest-pinned
//! in their own crates); here they would only ever be used to *defer* a wake,
//! never to skip one. Three rules keep the arrays bit-identical to the dense
//! pass at every schedule boundary:
//!
//! 1. A rack sleeps only *after* executing a sub-step that left it
//!    quiescent, so boundary effects (the final wall-power reading of a
//!    charge, the state latch flip) are always executed densely.
//! 2. Input-power edges and bus commands wake racks before the sub-step on
//!    which they take effect: edges wake the whole fleet (power is a global
//!    input), commands wake their target via a scheduled event at the next
//!    sub-step. Sleeping racks therefore never miss an input transition.
//! 3. The only array a skipped sub-step would have written is the
//!    `offered[]` trace mirror; `touch_offered` replays the schedule's final
//!    load for every sleeping rack, which is exactly the value the dense
//!    pass would have left behind (intermediate writes are unobservable —
//!    readings happen only at schedule boundaries).
//!
//! Every sleep→wake transition journals a
//! [`FlightKind::FastForward`](recharge_telemetry::FlightKind::FastForward)
//! event with the number of sub-steps skipped, so provenance of the
//! fast-forward is auditable after the fact. `sim.rack_substeps`,
//! `sim.ticks_skipped`, `sim.events_fired`, and `sim.offered_replays`
//! counters quantify the win per run.
//!
//! [`SoaBackend`]: crate::SoaBackend

use recharge_units::{RackId, Seconds, Watts};

use crate::soa::SoaShard;

/// Extra scheduler capacity beyond one pending wake per rack, covering a
/// typical batch's worth of power edges without a mid-run reallocation.
pub(crate) const EDGE_HEADROOM: usize = 64;

/// What the fleet-level event queue carries.
pub(crate) enum FleetEvent {
    /// Input power flips to the carried value at the event's sub-step.
    PowerEdge(bool),
    /// A bus command touched a sleeping rack; it must step again.
    Wake { shard: usize, slot: usize },
}

/// Per-shard sleep bookkeeping, parallel to the SoA arrays.
///
/// `active` and `asleep` are disjoint sorted complements of the slot space,
/// which keeps every operation — including the end-of-batch offered replay —
/// proportional to the slots it touches, not to the shard size.
pub(crate) struct Lane {
    /// Whether each slot is currently fast-forwarding.
    sleeping: Vec<bool>,
    /// Clock of the last sub-step each slot actually executed.
    slept_at: Vec<u64>,
    /// Sorted slot indices still stepping densely.
    active: Vec<u32>,
    /// Sorted slot indices currently fast-forwarding (the complement of
    /// `active`), so the offered replay iterates sleepers instead of
    /// scanning the whole shard.
    asleep: Vec<u32>,
}

impl Lane {
    /// A lane over `len` slots, everyone awake.
    pub(crate) fn new(len: usize) -> Self {
        Lane {
            sleeping: vec![false; len],
            slept_at: vec![0; len],
            active: (0..u32::try_from(len).expect("shard fits u32")).collect(),
            asleep: Vec::new(),
        }
    }

    /// Whether `slot` is currently fast-forwarding.
    pub(crate) fn is_sleeping(&self, slot: usize) -> bool {
        self.sleeping[slot]
    }

    /// Wakes `slot` if it is sleeping, returning how many sub-steps it
    /// skipped. Waking an awake slot is a no-op (`None`).
    pub(crate) fn wake_one(&mut self, slot: usize, now: u64) -> Option<u64> {
        if !self.sleeping[slot] {
            return None;
        }
        self.sleeping[slot] = false;
        let skipped = now.saturating_sub(self.slept_at[slot] + 1);
        let s32 = u32::try_from(slot).expect("slot fits u32");
        if let Ok(pos) = self.asleep.binary_search(&s32) {
            self.asleep.remove(pos);
        }
        if let Err(pos) = self.active.binary_search(&s32) {
            self.active.insert(pos, s32);
        }
        Some(skipped)
    }

    /// Wakes every sleeping slot, invoking `woken(slot, skipped)` in
    /// ascending slot order.
    pub(crate) fn wake_all(&mut self, now: u64, mut woken: impl FnMut(usize, u64)) {
        if self.asleep.is_empty() {
            return;
        }
        for &s in &self.asleep {
            let slot = s as usize;
            self.sleeping[slot] = false;
            woken(slot, now.saturating_sub(self.slept_at[slot] + 1));
        }
        self.asleep.clear();
        self.active.clear();
        self.active
            .extend(0..u32::try_from(self.sleeping.len()).expect("shard fits u32"));
    }

    /// Executes one sub-step for every active slot, retiring the ones whose
    /// executed step proved the next is a no-op. `load(rack)` supplies the
    /// offered load; returns the number of sub-steps executed.
    pub(crate) fn step_active(
        &mut self,
        shard: &mut SoaShard,
        now: u64,
        power: bool,
        dt: Seconds,
        mut load: impl FnMut(RackId) -> Watts,
    ) -> u64 {
        let Lane {
            sleeping,
            slept_at,
            active,
            asleep,
        } = self;
        let mut executed: u64 = 0;
        active.retain(|&s| {
            let slot = s as usize;
            let offered = load(shard.rack_at(slot));
            shard.substep(slot, offered, power, dt);
            executed += 1;
            if shard.is_quiescent(slot) {
                sleeping[slot] = true;
                slept_at[slot] = now;
                if let Err(pos) = asleep.binary_search(&s) {
                    asleep.insert(pos, s);
                }
                false
            } else {
                true
            }
        });
        executed
    }

    /// Replays the schedule's final offered-load write into every sleeping
    /// slot — the one observable effect the skipped sub-steps had — and
    /// returns the number of writes (each sleeper gets exactly one).
    pub(crate) fn replay_offered(
        &self,
        shard: &mut SoaShard,
        mut load: impl FnMut(RackId) -> Watts,
    ) -> u64 {
        for &s in &self.asleep {
            let slot = s as usize;
            let offered = load(shard.rack_at(slot));
            shard.touch_offered(slot, offered);
        }
        self.asleep.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use crate::agent::SimRackAgent;
    use crate::backend::FleetBackend;
    use crate::bus::AgentBus;
    use crate::soa::SoaBackend;
    use recharge_units::{Priority, RackId, Seconds, Watts};

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
    fn quiescent_racks_are_actually_skipped() {
        let mut fleet = SoaBackend::new(agents(4));
        // One outage sub-step, then a long quiet charge-and-settle stretch.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert!(
            fleet.substeps_skipped() > 0,
            "settled racks should fast-forward"
        );
        assert_eq!(
            fleet.substeps_executed() + fleet.substeps_skipped(),
            2_001 * 4,
            "executed + skipped must cover the dense schedule exactly"
        );
        // Everyone finished the recharge and went quiet.
        assert!(fleet
            .readings()
            .iter()
            .all(|r| r.recharge_power == Watts::ZERO));
    }

    #[test]
    fn commands_wake_sleeping_racks() {
        let mut fleet = SoaBackend::new(agents(2));
        // Postpone both racks so they sleep at zero setpoint after an outage.
        fleet.step_schedule(Seconds::new(30.0), &[false], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        fleet.set_charge_postponed(RackId::new(0), true);
        fleet.set_charge_postponed(RackId::new(1), true);
        fleet.step_schedule(Seconds::new(30.0), &[true; 10], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let before = fleet.substeps_executed();
        // Asleep now; an idle schedule should execute nothing.
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(fleet.substeps_executed(), before);
        // Resuming rack 0 must wake it — and only it.
        fleet.set_charge_postponed(RackId::new(0), false);
        fleet.step_schedule(Seconds::new(30.0), &[true; 3], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert!(
            fleet.substeps_executed() > before,
            "command must wake the rack"
        );
        let readings = fleet.readings();
        assert!(
            readings[0].recharge_power > Watts::ZERO,
            "rack 0 charges again"
        );
        assert_eq!(
            readings[1].recharge_power,
            Watts::ZERO,
            "rack 1 stays postponed"
        );
    }

    #[test]
    fn offered_replay_writes_exactly_one_per_sleeper() {
        let mut fleet = SoaBackend::new(agents(4));
        // One outage sub-step, then a quiet stretch long enough that every
        // rack finishes its recharge and sleeps.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let settled = fleet.offered_replays();
        // A fully-asleep batch performs exactly one offered write per rack,
        // reached via the maintained sleeper list.
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(
            fleet.offered_replays() - settled,
            4,
            "one replay write per sleeping rack per batch"
        );
        // And the replay set is exactly the sleeper set: executed + skipped
        // still covers the dense schedule.
        assert_eq!(
            fleet.substeps_executed() + fleet.substeps_skipped(),
            2_006 * 4
        );
    }
}
