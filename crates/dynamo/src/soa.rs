//! Struct-of-arrays fleet physics: the fast execution engine.
//!
//! The object path dispatches every rack through
//! `SimRackAgent` → `RackBatterySystem` → `Bbu` → `BbuPack`, four layers of
//! method calls and scattered structs per rack per sub-step. At the paper's
//! 316 racks that is noise; at a 100k-rack campus it is the simulator's whole
//! budget. [`SoaBackend`] flattens the fleet into contiguous arrays — one
//! `soc[]`, `event_dod[]`, `automatic[]`, `offered[]`, … per shard, plus one
//! packed flag byte per rack — and steps them in a branch-light pass that
//! skips racks proven quiescent (the rules are in the `event` module).
//!
//! **Equivalence argument.** The per-rack state transition is *the same
//! code*: both paths call [`recharge_battery::kernel`] for the CC-CV and
//! discharge arithmetic, and every executed SoA sub-step replays the exact
//! `set_offered_load → set_input_power → step` sequence of
//! [`SerialBackend`](crate::SerialBackend) for its rack. Racks do not
//! interact during physics, so per-rack state — and therefore every
//! [`PowerReading`] and downstream `RunMetrics` — is bit-identical to the
//! object path. The backend-equivalence matrix and proptests over random
//! command schedules enforce this.
//!
//! Flag packing (one `u8` per rack):
//!
//! ```text
//! bit 0-1  BBU state      00 fully charged, 01 charging,
//!                         10 discharging,   11 fully discharged
//! bit 2    charge_terminated   (the pack's completion latch)
//! bit 3    postponed           (charging suspended entirely)
//! bit 4    override active     (override_a[] holds the clamped setpoint)
//! bit 5    cap active          (cap[] holds the server power cap)
//! bit 6    input power present
//! ```

use recharge_battery::kernel;
use recharge_battery::{BbuParams, BbuState, ChargePhase, ChargePolicy};
use recharge_telemetry::{flight, tcounter, tspan, FlightKind, ReasonCode, NO_BUCKET};
use recharge_units::{Amperes, Dod, Priority, RackId, RackMap, Seconds, Soc, Watts};

use crate::agent::{RackAgent, SimRackAgent};
use crate::backend::FleetBackend;
use crate::bus::AgentBus;
use crate::event::{FleetEvent, Lane, EDGE_HEADROOM};
use crate::messages::PowerReading;
use crate::scheduler::EventScheduler;

const STATE_MASK: u8 = 0b0000_0011;
const STATE_FULLY_CHARGED: u8 = 0b00;
const STATE_CHARGING: u8 = 0b01;
const STATE_DISCHARGING: u8 = 0b10;
const STATE_FULLY_DISCHARGED: u8 = 0b11;
const FLAG_TERMINATED: u8 = 1 << 2;
const FLAG_POSTPONED: u8 = 1 << 3;
const FLAG_OVERRIDE: u8 = 1 << 4;
const FLAG_CAPPED: u8 = 1 << 5;
const FLAG_INPUT_POWER: u8 = 1 << 6;

fn state_bits(state: BbuState) -> u8 {
    match state {
        BbuState::FullyCharged => STATE_FULLY_CHARGED,
        BbuState::Charging => STATE_CHARGING,
        BbuState::Discharging => STATE_DISCHARGING,
        BbuState::FullyDischarged => STATE_FULLY_DISCHARGED,
    }
}

fn bits_state(bits: u8) -> BbuState {
    match bits & STATE_MASK {
        STATE_FULLY_CHARGED => BbuState::FullyCharged,
        STATE_CHARGING => BbuState::Charging,
        STATE_DISCHARGING => BbuState::Discharging,
        _ => BbuState::FullyDischarged,
    }
}

/// One shard of the fleet: contiguous parallel arrays over its racks.
///
/// All racks in a shard share one [`BbuParams`] and [`ChargePolicy`] — the
/// construction pass partitions the fleet into homogeneous groups first — so
/// parameters live once per shard instead of once per rack.
#[derive(Debug, Clone)]
pub(crate) struct SoaShard {
    params: BbuParams,
    policy: ChargePolicy,
    /// `bbus_per_rack` as the f64 the load-share division uses.
    bbus: f64,
    racks: Vec<RackId>,
    priority: Vec<Priority>,
    soc: Vec<f64>,
    event_dod: Vec<f64>,
    /// Automatic setpoint (amps) latched at the last charge-sequence start.
    automatic: Vec<f64>,
    /// Override setpoint (amps); meaningful iff `FLAG_OVERRIDE`.
    override_a: Vec<f64>,
    /// Offered IT load (watts) from the trace.
    offered: Vec<f64>,
    /// Server power cap (watts); meaningful iff `FLAG_CAPPED`.
    cap: Vec<f64>,
    /// Rack recharge wall power (watts) after the last sub-step.
    recharge: Vec<f64>,
    flags: Vec<u8>,
}

impl SoaShard {
    fn from_agents(agents: &[&SimRackAgent], params: BbuParams, policy: ChargePolicy) -> Self {
        let n = agents.len();
        let mut shard = SoaShard {
            params,
            policy,
            bbus: f64::from(params.bbus_per_rack),
            racks: Vec::with_capacity(n),
            priority: Vec::with_capacity(n),
            soc: Vec::with_capacity(n),
            event_dod: Vec::with_capacity(n),
            automatic: Vec::with_capacity(n),
            override_a: Vec::with_capacity(n),
            offered: Vec::with_capacity(n),
            cap: Vec::with_capacity(n),
            recharge: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        };
        for &agent in agents {
            let bbu = agent.battery().bbu();
            let charger = bbu.charger();
            shard.racks.push(agent.rack());
            shard.priority.push(agent.priority());
            shard.soc.push(bbu.soc().value());
            shard.event_dod.push(bbu.event_dod().value());
            shard.automatic.push(charger.automatic_current().as_amps());
            shard
                .override_a
                .push(charger.override_current().map_or(0.0, Amperes::as_amps));
            shard.offered.push(agent.offered_load().as_watts());
            shard
                .cap
                .push(agent.cap_limit().map_or(0.0, Watts::as_watts));
            // `read()` reports the rack recharge power gated on input power —
            // exactly what an object-path agent would publish from here on.
            shard.recharge.push(agent.read().recharge_power.as_watts());
            let mut flags = state_bits(bbu.state());
            if bbu.pack().is_fully_charged() {
                flags |= FLAG_TERMINATED;
            }
            if charger.is_postponed() {
                flags |= FLAG_POSTPONED;
            }
            if charger.override_current().is_some() {
                flags |= FLAG_OVERRIDE;
            }
            if agent.cap_limit().is_some() {
                flags |= FLAG_CAPPED;
            }
            if agent.has_input_power() {
                flags |= FLAG_INPUT_POWER;
            }
            shard.flags.push(flags);
        }
        shard
    }

    fn len(&self) -> usize {
        self.racks.len()
    }

    /// The rack occupying `slot` (fleet identity, for load lookups).
    pub(crate) fn rack_at(&self, slot: usize) -> RackId {
        self.racks[slot]
    }

    /// The priority of the rack in `slot` (flight-recorder provenance).
    fn priority_at(&self, slot: usize) -> Priority {
        self.priority[slot]
    }

    /// Whether the next sub-step for this rack is a provable no-op given
    /// unchanged input power and an arbitrary offered load.
    ///
    /// This is the engine's *entire* skip authority: a rack may
    /// be fast-forwarded only while this predicate holds, because then the
    /// dense sub-step would write nothing except `offered[]` (patched up
    /// separately by [`touch_offered`](Self::touch_offered)). The cases:
    ///
    /// - `FullyCharged` / `FullyDischarged` with `recharge == 0`: the dense
    ///   pass only re-zeroes `recharge`. (A rack *entering* a settled state
    ///   still reports its final wall power for that boundary, so it needs
    ///   one more dense sub-step before it can sleep.)
    /// - `Charging`, not terminated, with a non-positive setpoint (postponed):
    ///   `kernel::charge_step` at zero amps moves nothing. A terminated
    ///   charging rack is excluded — its next sub-step flips the state latch
    ///   to `FullyCharged`, which is observable.
    /// - `Discharging` never sleeps: drain is load-dependent every sub-step.
    ///
    /// Input-power *edges* invalidate sleep; the engine wakes all
    /// racks on every edge, so the predicate can assume power is steady.
    pub(crate) fn is_quiescent(&self, slot: usize) -> bool {
        if self.recharge[slot] != 0.0 {
            return false;
        }
        match self.flags[slot] & STATE_MASK {
            STATE_FULLY_CHARGED | STATE_FULLY_DISCHARGED => true,
            STATE_CHARGING => {
                self.flags[slot] & FLAG_TERMINATED == 0 && self.setpoint(slot) <= Amperes::ZERO
            }
            _ => false,
        }
    }

    /// Replays the only observable effect a skipped sub-step would have had:
    /// the `offered[]` trace write. Idempotent with the dense pass's last
    /// write for the same sub-step.
    pub(crate) fn touch_offered(&mut self, slot: usize, load: Watts) {
        self.offered[slot] = load.max(Watts::ZERO).as_watts();
    }

    /// The IT load actually drawn after capping — `SimRackAgent::effective_load`.
    fn effective_load(&self, slot: usize) -> Watts {
        let offered = Watts::new(self.offered[slot]);
        if self.flags[slot] & FLAG_CAPPED != 0 {
            offered.min(Watts::new(self.cap[slot]))
        } else {
            offered
        }
    }

    /// The effective charging setpoint — `Charger::setpoint`.
    fn setpoint(&self, slot: usize) -> Amperes {
        let flags = self.flags[slot];
        if flags & FLAG_POSTPONED != 0 {
            Amperes::ZERO
        } else if flags & FLAG_OVERRIDE != 0 {
            Amperes::new(self.override_a[slot])
        } else {
            Amperes::new(self.automatic[slot])
        }
    }

    fn set_state(&mut self, slot: usize, state: u8) {
        self.flags[slot] = (self.flags[slot] & !STATE_MASK) | state;
    }

    /// `Bbu::input_power_lost`: start carrying the load.
    fn input_power_lost(&mut self, slot: usize) {
        match self.flags[slot] & STATE_MASK {
            STATE_FULLY_CHARGED | STATE_CHARGING => self.set_state(slot, STATE_DISCHARGING),
            _ => {}
        }
    }

    /// `Bbu::input_power_restored`: latch the event DOD, recompute the
    /// automatic setpoint, begin (or skip) the charge sequence.
    fn input_power_restored(&mut self, slot: usize) {
        match self.flags[slot] & STATE_MASK {
            STATE_DISCHARGING | STATE_FULLY_DISCHARGED => {
                let dod = Soc::new(self.soc[slot]).to_dod();
                self.event_dod[slot] = dod.value();
                self.automatic[slot] = self.policy.automatic_current(dod).as_amps();
                if self.flags[slot] & FLAG_TERMINATED != 0 {
                    // Possible only for a zero-length or zero-load event.
                    self.set_state(slot, STATE_FULLY_CHARGED);
                } else {
                    self.set_state(slot, STATE_CHARGING);
                }
            }
            _ => {}
        }
    }

    /// One rack's sub-step: the `set_offered_load → set_input_power → step`
    /// sequence of the object path, over array state.
    pub(crate) fn substep(&mut self, slot: usize, load: Watts, power: bool, dt: Seconds) {
        self.offered[slot] = load.max(Watts::ZERO).as_watts();

        let had_power = self.flags[slot] & FLAG_INPUT_POWER != 0;
        if power != had_power {
            if power {
                self.flags[slot] |= FLAG_INPUT_POWER;
                self.input_power_restored(slot);
            } else {
                self.flags[slot] &= !FLAG_INPUT_POWER;
                self.input_power_lost(slot);
            }
        }

        match self.flags[slot] & STATE_MASK {
            STATE_FULLY_CHARGED | STATE_FULLY_DISCHARGED => {
                self.recharge[slot] = 0.0;
            }
            STATE_DISCHARGING => {
                let share = self.effective_load(slot) / self.bbus;
                let mut terminated = self.flags[slot] & FLAG_TERMINATED != 0;
                let step = kernel::discharge_step(
                    &self.params,
                    &mut self.soc[slot],
                    &mut terminated,
                    share,
                    dt,
                );
                if terminated {
                    self.flags[slot] |= FLAG_TERMINATED;
                } else {
                    self.flags[slot] &= !FLAG_TERMINATED;
                }
                if step.depleted {
                    self.set_state(slot, STATE_FULLY_DISCHARGED);
                }
                self.recharge[slot] = 0.0;
            }
            _ => {
                // STATE_CHARGING
                let setpoint = self.setpoint(slot);
                let mut terminated = self.flags[slot] & FLAG_TERMINATED != 0;
                let step = kernel::charge_step(
                    &self.params,
                    &mut self.soc[slot],
                    &mut terminated,
                    setpoint,
                    dt,
                );
                if terminated {
                    self.flags[slot] |= FLAG_TERMINATED;
                }
                if step.phase == ChargePhase::Complete {
                    self.set_state(slot, STATE_FULLY_CHARGED);
                }
                self.recharge[slot] = (step.wall_power * self.bbus).as_watts();
            }
        }
    }

    /// `Charger::set_override` for one slot: clamp to the 1–5 A hardware
    /// range and raise the override flag.
    fn set_override_slot(&mut self, slot: usize, current: Amperes) {
        self.override_a[slot] = current
            .clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE)
            .as_amps();
        self.flags[slot] |= FLAG_OVERRIDE;
    }

    /// `Charger::clear_override` for one slot.
    fn clear_override_slot(&mut self, slot: usize) {
        self.flags[slot] &= !FLAG_OVERRIDE;
    }

    /// `Charger::set_postponed` for one slot.
    fn set_postponed_slot(&mut self, slot: usize, postponed: bool) {
        if postponed {
            self.flags[slot] |= FLAG_POSTPONED;
        } else {
            self.flags[slot] &= !FLAG_POSTPONED;
        }
    }

    /// `SimRackAgent::cap_servers` for one slot.
    fn cap_slot(&mut self, slot: usize, limit: Watts) {
        self.cap[slot] = limit.max(Watts::ZERO).as_watts();
        self.flags[slot] |= FLAG_CAPPED;
    }

    /// `SimRackAgent::uncap_servers` for one slot.
    fn uncap_slot(&mut self, slot: usize) {
        self.flags[slot] &= !FLAG_CAPPED;
    }

    /// `SimRackAgent::read` over array state.
    fn read(&self, slot: usize) -> PowerReading {
        let flags = self.flags[slot];
        let input = flags & FLAG_INPUT_POWER != 0;
        let offered = Watts::new(self.offered[slot]);
        let effective = self.effective_load(slot);
        PowerReading {
            rack: self.racks[slot],
            priority: self.priority[slot],
            input_power_present: input,
            it_load: effective,
            recharge_power: if input {
                Watts::new(self.recharge[slot])
            } else {
                Watts::ZERO
            },
            bbu_state: bits_state(flags),
            event_dod: Dod::new(self.event_dod[slot]),
            dod: Soc::new(self.soc[slot]).to_dod(),
            capped_power: (offered - effective).max(Watts::ZERO),
        }
    }
}

/// The struct-of-arrays fleet engine: flat per-rack arrays stepped in one
/// pass, skipping racks whose next sub-step is provably a no-op.
///
/// Implements both [`FleetBackend`] (the tick loop's surface) and
/// [`AgentBus`] (the controller's surface) over the same arrays — there are
/// no per-rack agent objects at all. Readings, bus behavior, and downstream
/// `RunMetrics` are bit-identical to [`SerialBackend`](crate::SerialBackend);
/// only the number of rack sub-steps executed changes.
///
/// # Examples
///
/// ```
/// use recharge_dynamo::{FleetBackend, SimRackAgent, SoaBackend};
/// use recharge_units::{Priority, RackId, Seconds, Watts};
///
/// let agents = (0..4)
///     .map(|i| SimRackAgent::builder(RackId::new(i), Priority::P2).build())
///     .collect();
/// // A 30-second open transition, then power returns.
/// let mut fleet = SoaBackend::new(agents);
/// fleet.step_schedule(Seconds::new(30.0), &[false, true], &|_, _| {
///     Watts::from_kilowatts(6.0)
/// });
/// assert!(fleet.readings().iter().all(|r| r.is_charging()));
/// // A long quiet stretch of wall power: settled racks fast-forward.
/// fleet.step_schedule(Seconds::new(30.0), &[true; 600], &|_, _| {
///     Watts::from_kilowatts(6.0)
/// });
/// assert!(fleet.substeps_skipped() > 0);
/// ```
pub struct SoaBackend {
    shards: Vec<SoaShard>,
    /// Sleep bookkeeping, one lane per shard.
    lanes: Vec<Lane>,
    /// Fleet order → (shard, slot); readings and rack listings replay this so
    /// the outside world sees the original agent order even when the
    /// homogeneous-group partition reshuffled racks across shards.
    order: Vec<(usize, usize)>,
    /// rack → (shard, slot); commands and reads route through here.
    index: RackMap<(usize, usize)>,
    scheduler: EventScheduler<FleetEvent>,
    /// The fleet-wide input power as of the last processed edge. Safe to
    /// start `true`: every rack begins awake, and a rack only sleeps after
    /// executing a sub-step whose power this field tracked, so sleeping
    /// racks always agree with it.
    power: bool,
    /// Global sub-step counter across schedules (the event-queue timeline).
    clock: u64,
    /// Rack sub-steps actually executed.
    executed: u64,
    /// End-of-batch offered-load replay writes (one per sleeper per batch).
    replayed: u64,
}

impl SoaBackend {
    /// Creates the SoA engine over the given agents.
    ///
    /// Heterogeneous fleets are supported: racks are partitioned into one
    /// shard per `(BbuParams, ChargePolicy)` group at construction (in
    /// first-seen order). The kernel pass is untouched; only the shard
    /// layout changes. Readings and rack listings always come back in the
    /// original fleet order.
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>) -> Self {
        // Partition fleet positions into homogeneous groups, first-seen
        // order. `BbuParams` is PartialEq-only (f64 fields), so this is a
        // linear scan over the handful of distinct configurations.
        type Group = (BbuParams, ChargePolicy, Vec<usize>);
        let mut groups: Vec<Group> = Vec::new();
        for (pos, agent) in agents.iter().enumerate() {
            let params = *agent.battery().bbu().pack().params();
            let policy = agent.battery().bbu().charger().policy();
            match groups
                .iter_mut()
                .find(|(p, c, _)| *p == params && *c == policy)
            {
                Some((_, _, members)) => members.push(pos),
                None => groups.push((params, policy, vec![pos])),
            }
        }

        let mut shards = Vec::with_capacity(groups.len());
        let mut order = vec![(0usize, 0usize); agents.len()];
        let mut index = RackMap::with_capacity_and_hasher(agents.len(), Default::default());
        for (s, (params, policy, members)) in groups.iter().enumerate() {
            let refs: Vec<&SimRackAgent> = members.iter().map(|&pos| &agents[pos]).collect();
            shards.push(SoaShard::from_agents(&refs, *params, *policy));
            for (slot, &pos) in members.iter().enumerate() {
                order[pos] = (s, slot);
                index.insert(agents[pos].rack(), (s, slot));
            }
        }
        let lanes = shards.iter().map(|s| Lane::new(s.len())).collect();
        SoaBackend {
            shards,
            lanes,
            order,
            index,
            // Steady-state sizing: at most one pending wake per rack plus a
            // batch's worth of power edges — the hot loop never grows the
            // heap.
            scheduler: EventScheduler::with_capacity(agents.len() + EDGE_HEADROOM),
            power: true,
            clock: 0,
            executed: 0,
            replayed: 0,
        }
    }

    /// Total racks across all shards.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.order.len()
    }

    /// Number of shards (homogeneous groups) the fleet is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rack sub-steps actually executed since construction.
    #[must_use]
    pub fn substeps_executed(&self) -> u64 {
        self.executed
    }

    /// Rack sub-steps fast-forwarded (what a dense pass would have run minus
    /// what this one did).
    #[must_use]
    pub fn substeps_skipped(&self) -> u64 {
        self.clock * self.rack_count() as u64 - self.executed
    }

    /// End-of-batch offered-load replay writes since construction: exactly
    /// one write per sleeping rack per schedule, which is the same write set
    /// the dense pass's final sub-step would have produced for them.
    #[must_use]
    pub fn offered_replays(&self) -> u64 {
        self.replayed
    }

    /// Wakes one sleeping slot, journaling the fast-forward. Idempotent.
    fn wake_one(&mut self, shard: usize, slot: usize, now: u64) {
        if let Some(skipped) = self.lanes[shard].wake_one(slot, now) {
            journal_fast_forward(&self.shards[shard], slot, skipped, now);
        }
    }

    /// Wakes every sleeping rack (input power is a fleet-wide input, so an
    /// edge invalidates every sleep).
    fn wake_all(&mut self, now: u64) {
        for (lane, shard) in self.lanes.iter_mut().zip(&self.shards) {
            lane.wake_all(now, |slot, skipped| {
                journal_fast_forward(shard, slot, skipped, now);
            });
        }
    }

    /// Applies a bus command to `rack`'s slot and, if the rack is asleep,
    /// schedules a wake at the next sub-step so the command's effect is
    /// stepped densely.
    fn command(&mut self, rack: RackId, apply: impl FnOnce(&mut SoaShard, usize)) {
        if let Some(&(shard, slot)) = self.index.get(&rack) {
            apply(&mut self.shards[shard], slot);
            if self.lanes[shard].is_sleeping(slot) {
                self.scheduler
                    .schedule(self.clock, FleetEvent::Wake { shard, slot });
            }
        }
    }
}

/// Records one sleep→wake transition in the flight recorder.
fn journal_fast_forward(shard: &SoaShard, slot: usize, skipped: u64, now: u64) {
    flight(
        FlightKind::FastForward,
        ReasonCode::Observed,
        shard.rack_at(slot).index(),
        shard.priority_at(slot).rank(),
        NO_BUCKET,
        skipped,
        now,
    );
}

impl FleetBackend for SoaBackend {
    fn name(&self) -> &'static str {
        "soa"
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let _span = tspan!("fleet.step_schedule", "fleet");
        let n = input_power.len();
        if n == 0 {
            return;
        }

        // Power edges become scheduled events so the whole timeline — edges,
        // command wakes, and (by induction) sleeps — flows through one
        // deterministic queue.
        let mut prev = self.power;
        for (i, &p) in input_power.iter().enumerate() {
            if p != prev {
                self.scheduler
                    .schedule(self.clock + i as u64, FleetEvent::PowerEdge(p));
                prev = p;
            }
        }

        let mut executed_now: u64 = 0;
        let mut fired: u64 = 0;
        for (i, &power) in input_power.iter().enumerate() {
            let now = self.clock + i as u64;
            while let Some((_, event)) = self.scheduler.pop_due(now) {
                fired += 1;
                match event {
                    FleetEvent::PowerEdge(p) => {
                        self.power = p;
                        self.wake_all(now);
                    }
                    FleetEvent::Wake { shard, slot } => self.wake_one(shard, slot, now),
                }
            }
            debug_assert_eq!(self.power, power, "edge events must track the schedule");

            for (lane, shard) in self.lanes.iter_mut().zip(&mut self.shards) {
                executed_now += lane.step_active(shard, now, power, dt, |rack| load_of(rack, i));
            }
        }
        self.clock += n as u64;

        // Replay the one observable effect the skipped sub-steps had: the
        // schedule's final offered-load write (idempotent with the dense
        // pass's last write). O(sleeping), not O(racks): the lane iterates
        // its maintained sleeper list.
        let mut replays: u64 = 0;
        for (lane, shard) in self.lanes.iter().zip(&mut self.shards) {
            replays += lane.replay_offered(shard, |rack| load_of(rack, n - 1));
        }

        self.executed += executed_now;
        self.replayed += replays;
        tcounter!("sim.rack_substeps").add(executed_now);
        tcounter!("sim.ticks_skipped").add(n as u64 * self.rack_count() as u64 - executed_now);
        tcounter!("sim.events_fired").add(fired);
        tcounter!("sim.offered_replays").add(replays);
    }

    fn readings(&self) -> Vec<PowerReading> {
        let mut readings = Vec::new();
        self.read_all_into(&mut readings);
        readings
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        self
    }
}

impl AgentBus for SoaBackend {
    fn racks(&self) -> Vec<RackId> {
        self.order
            .iter()
            .map(|&(s, slot)| self.shards[s].rack_at(slot))
            .collect()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        let &(s, slot) = self.index.get(&rack)?;
        Some(self.shards[s].read(slot))
    }

    /// Walks the slots in fleet order — `order` replays the original agent
    /// order whatever the grouping pass did to the shard layout — with no
    /// per-rack `index` lookup. Every listed rack is reachable.
    fn read_all_into(&self, out: &mut Vec<PowerReading>) {
        out.clear();
        out.extend(
            self.order
                .iter()
                .map(|&(s, slot)| self.shards[s].read(slot)),
        );
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        self.command(rack, |shard, slot| shard.set_override_slot(slot, current));
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        self.command(rack, SoaShard::clear_override_slot);
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        self.command(rack, |shard, slot| {
            shard.set_postponed_slot(slot, postponed);
        });
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        self.command(rack, |shard, slot| shard.cap_slot(slot, limit));
    }

    fn uncap_servers(&mut self, rack: RackId) {
        self.command(rack, SoaShard::uncap_slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SerialBackend;

    fn agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect()
    }

    /// A mixed fleet: two charge policies interleaved, so the grouping pass
    /// has to split the fleet into two homogeneous shards.
    fn mixed_agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                let mut builder =
                    SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                        .offered_load(Watts::from_kilowatts(6.0));
                if i % 2 == 0 {
                    builder = builder.charge_policy(ChargePolicy::Original);
                }
                builder.build()
            })
            .collect()
    }

    /// Steps the SoA engine and the serial reference through the same mixed
    /// schedule with the same command stream, asserting bit-identical
    /// readings at every boundary.
    fn assert_lockstep(fleet: impl Fn() -> Vec<SimRackAgent>, rounds: usize) {
        let mut reference = SerialBackend::new(fleet());
        let mut soa = SoaBackend::new(fleet());
        for round in 0..rounds {
            // Commands vary per round to exercise every flag transition.
            for backend in [&mut reference as &mut dyn FleetBackend, &mut soa] {
                let bus = backend.bus_mut();
                match round % 5 {
                    0 => bus.set_charge_override(RackId::new(2), Amperes::new(1.5)),
                    1 => {
                        bus.clear_charge_override(RackId::new(2));
                        bus.set_charge_postponed(RackId::new(3), true);
                    }
                    2 => {
                        bus.set_charge_postponed(RackId::new(3), false);
                        bus.cap_servers(RackId::new(4), Watts::from_kilowatts(4.0));
                    }
                    3 => bus.uncap_servers(RackId::new(4)),
                    _ => bus.set_charge_override(RackId::new(6), Amperes::new(9.0)),
                }
            }
            let schedule: Vec<bool> = (0..6).map(|i| (i + round) % 7 != 3).collect();
            let load = |rack: RackId, i: usize| {
                Watts::from_kilowatts(5.0 + 0.3 * f64::from(rack.index()) + 0.1 * i as f64)
            };
            reference.step_schedule(Seconds::new(1.0), &schedule, &load);
            soa.step_schedule(Seconds::new(1.0), &schedule, &load);
            assert_eq!(
                reference.readings(),
                soa.readings(),
                "round {round} diverged"
            );
            for rack in reference.bus_mut().racks() {
                assert_eq!(
                    reference.bus_mut().read(rack),
                    AgentBus::read(&soa, rack),
                    "round {round} rack {rack:?}"
                );
            }
        }
    }

    #[test]
    fn soa_matches_object_path_bit_for_bit() {
        assert_lockstep(|| agents(7), 12);
    }

    #[test]
    fn heterogeneous_soa_matches_object_path_bit_for_bit() {
        assert_lockstep(|| mixed_agents(7), 12);
    }

    #[test]
    fn heterogeneous_fleets_partition_by_group_and_keep_fleet_order() {
        // 7 racks, alternating policies → two groups (4 + 3 racks), one
        // shard per group.
        let fleet = SoaBackend::new(mixed_agents(7));
        assert_eq!(fleet.shard_count(), 2);
        assert_eq!(fleet.rack_count(), 7);
        let order: Vec<u32> = fleet.readings().iter().map(|r| r.rack.index()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
        let listed: Vec<u32> = AgentBus::racks(&fleet).iter().map(|r| r.index()).collect();
        assert_eq!(listed, order);
    }

    #[test]
    fn empty_fleet_is_inert() {
        let mut fleet = SoaBackend::new(Vec::new());
        fleet.step_schedule(Seconds::new(1.0), &[true], &|_, _| Watts::ZERO);
        assert!(fleet.readings().is_empty());
        assert!(fleet.bus_mut().read(RackId::new(0)).is_none());
        assert_eq!(fleet.substeps_skipped(), 0);
    }
}
