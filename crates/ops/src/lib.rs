//! `recharge-ops`: the post-mortem half of the observability plane.
//!
//! The flight recorder (`recharge_telemetry::recorder`) journals every
//! Algorithm 1 decision with a machine-readable reason code and its exact
//! inputs; a trigger (breaker trip, first SLA miss, panic) dumps the merged
//! timeline to the `RECHARGE_BLACKBOX` path. This crate turns such a dump
//! back into answers:
//!
//! - [`explain`] — *why is rack N in this state at time T?* Reports the
//!   latest decision for the rack at or before T (kind, reason, priority,
//!   DOD bucket, and the decision's exact inputs), plus the rack's recent
//!   decision history leading up to it.
//! - [`timeline`] — the merged event timeline, optionally filtered to one
//!   rack and truncated to the last K events.
//! - [`summary`] — dump-wide shape: trigger, time range, event counts by
//!   kind and reason, racks involved, ring overwrites.
//!
//! Everything renders from the dump alone — no simulation state is needed,
//! which is the point of a black box.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use recharge_telemetry::{BlackboxDump, FlightEvent, FlightKind, NO_BUCKET, NO_RACK};

/// Kinds that represent controller *decisions* about a specific rack — the
/// ones `explain` answers with. Pure observations (margin crossings, SLA
/// verdicts, wire edges) are context, not decisions.
const DECISION_KINDS: [FlightKind; 8] = [
    FlightKind::Admit,
    FlightKind::Postpone,
    FlightKind::Park,
    FlightKind::Resume,
    FlightKind::Throttle,
    FlightKind::Override,
    FlightKind::Cap,
    FlightKind::Uncap,
];

fn is_decision(e: &FlightEvent) -> bool {
    DECISION_KINDS.contains(&e.kind)
}

/// Renders an event's kind-specific payload words as the quantities they
/// carry (see the payload conventions in `DESIGN.md` §14).
#[must_use]
pub fn describe_payload(e: &FlightEvent) -> String {
    let (v0, v1) = (e.v0_f64(), e.v1_f64());
    match e.kind {
        FlightKind::BreakerMargin | FlightKind::BreakerTrip => {
            format!("draw {v0:.1} W vs limit {v1:.1} W")
        }
        FlightKind::SlaOutcome => {
            if v0.is_infinite() {
                format!("never completed within the horizon (budget {v1:.0} s)")
            } else {
                format!("charged in {v0:.1} s vs budget {v1:.0} s")
            }
        }
        FlightKind::Admit => format!("current {v0:.2} A, budget left {v1:.1} W"),
        FlightKind::Postpone => format!("was at {v0:.2} A, residual deficit {v1:.1} W"),
        FlightKind::Park => format!("parked at DOD {v0:.3}"),
        FlightKind::Resume => format!("headroom {v0:.1} W, reserve {v1:.1} W"),
        FlightKind::Throttle => format!("demoted from {v0:.2} A, overload left {v1:.1} W"),
        FlightKind::Override => format!("commanded {v0:.2} A (was {v1:.2} A)"),
        FlightKind::Cap => format!("capped to {v0:.1} W, shedding {v1:.1} W"),
        FlightKind::Uncap => format!("uncapped under {v0:.1} W headroom"),
        FlightKind::LeaseGrant => {
            format!("granted at tick {}, lease {} ticks", e.v0, e.v1)
        }
        FlightKind::LeaseExpire => {
            format!("last contact tick {}, lease {} ticks", e.v0, e.v1)
        }
        FlightKind::RpcRetry => format!("attempt {}, shard {}", e.v0, e.v1),
        FlightKind::PartitionEdge => {
            let edge = if e.v0 == 1 { "opened" } else { "healed" };
            format!("partition {edge}, shard {}", e.v1)
        }
        FlightKind::FastForward => {
            format!(
                "fast-forwarded {} sub-steps, woke at sub-step {}",
                e.v0, e.v1
            )
        }
        FlightKind::LeaderElected => format!("controller {} won term {}", e.v0, e.v1),
        FlightKind::LeaderLost => format!("controller {} lost term {}", e.v0, e.v1),
        FlightKind::SnapshotTaken => format!("term {}, {} bytes", e.v0, e.v1),
        FlightKind::SnapshotRestored => format!("term {}, {} bytes", e.v0, e.v1),
        FlightKind::TakeoverComplete => {
            format!("controller {} leading, term {}", e.v0, e.v1)
        }
        FlightKind::StaleLeaderFenced => {
            format!("stale term {} < current {}", e.v0, e.v1)
        }
    }
}

/// One-line rendering of an event: time, kind, reason, rack identity
/// (priority and DOD bucket when they apply), payload.
#[must_use]
pub fn render_event(e: &FlightEvent) -> String {
    let mut line = format!(
        "t={:<10.3} {:<14} {:<22}",
        e.at(),
        e.kind.name(),
        e.reason.name()
    );
    if e.rack == NO_RACK {
        line.push_str(" fleet     ");
    } else {
        let _ = write!(line, " rack {:<4}", e.rack);
    }
    if e.priority != 0 {
        let _ = write!(line, " P{}", e.priority);
    }
    if e.bucket != NO_BUCKET {
        let _ = write!(line, " dod_bucket {}", e.bucket);
    }
    let _ = write!(line, "  {}", describe_payload(e));
    line
}

/// Answers "why is rack `rack` in this state at time `at`": the latest
/// decision event for the rack at or before `at`, with up to `history`
/// earlier decisions for context. Returns `None` when the dump holds no
/// decision for that rack in `[0, at]`.
#[must_use]
pub fn explain(dump: &BlackboxDump, rack: u32, at: f64, history: usize) -> Option<String> {
    // The dump is timeline-sorted; collect the rack's decisions up to `at`.
    let decisions: Vec<&FlightEvent> = dump
        .events
        .iter()
        .filter(|e| e.rack == rack && e.at() <= at && is_decision(e))
        .collect();
    let last = decisions.last()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rack {rack} at t={at}: {} ({})",
        last.kind.name(),
        last.reason.name()
    );
    let _ = writeln!(
        out,
        "  decided at t={:.3} with priority {} dod_bucket {}: {}",
        last.at(),
        last.priority,
        if last.bucket == NO_BUCKET {
            "-".to_owned()
        } else {
            last.bucket.to_string()
        },
        describe_payload(last)
    );
    let lead_in = decisions.len().saturating_sub(1);
    if lead_in > 0 {
        let _ = writeln!(out, "  history (most recent last):");
        for e in &decisions[lead_in.saturating_sub(history)..lead_in] {
            let _ = writeln!(out, "    {}", render_event(e));
        }
    }
    Some(out)
}

/// Renders the merged timeline, optionally filtered to one rack, truncated
/// to the last `last` events (0 = all).
#[must_use]
pub fn timeline(dump: &BlackboxDump, rack: Option<u32>, last: usize) -> String {
    let selected: Vec<&FlightEvent> = dump
        .events
        .iter()
        .filter(|e| rack.is_none_or(|r| e.rack == r))
        .collect();
    let skip = if last > 0 {
        selected.len().saturating_sub(last)
    } else {
        0
    };
    let mut out = String::new();
    if skip > 0 {
        let _ = writeln!(out, "... {skip} earlier events elided ...");
    }
    for e in &selected[skip..] {
        let _ = writeln!(out, "{}", render_event(e));
    }
    if selected.is_empty() {
        out.push_str("(no events)\n");
    }
    out
}

/// Dump-wide shape: trigger, window, per-kind/per-reason counts, racks.
#[must_use]
pub fn summary(dump: &BlackboxDump) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trigger: {}  events: {}  overwritten: {}",
        dump.trigger,
        dump.events.len(),
        dump.overwritten
    );
    if let (Some(first), Some(last)) = (dump.events.first(), dump.events.last()) {
        let _ = writeln!(out, "window: t={:.3} .. t={:.3}", first.at(), last.at());
    }
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_reason: BTreeMap<&str, usize> = BTreeMap::new();
    let mut racks: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for e in &dump.events {
        *by_kind.entry(e.kind.name()).or_default() += 1;
        *by_reason.entry(e.reason.name()).or_default() += 1;
        if e.rack != NO_RACK {
            racks.insert(e.rack);
        }
    }
    let _ = writeln!(out, "racks involved: {}", racks.len());
    out.push_str("by kind:\n");
    for (kind, n) in &by_kind {
        let _ = writeln!(out, "  {kind:<16} {n}");
    }
    out.push_str("by reason:\n");
    for (reason, n) in &by_reason {
        let _ = writeln!(out, "  {reason:<24} {n}");
    }
    let leadership = leader_timeline(dump);
    if !leadership.is_empty() {
        out.push_str("leader timeline:\n");
        out.push_str(&leadership);
    }
    out
}

/// Renders the HA leadership history: every election, loss, and takeover
/// in dump order. Empty when the run had no HA events (single-controller).
#[must_use]
pub fn leader_timeline(dump: &BlackboxDump) -> String {
    let mut out = String::new();
    for e in &dump.events {
        let line = match e.kind {
            FlightKind::LeaderElected => {
                format!("controller {} elected for term {}", e.v0, e.v1)
            }
            FlightKind::LeaderLost => {
                format!("controller {} lost leadership of term {}", e.v0, e.v1)
            }
            FlightKind::TakeoverComplete => {
                format!("controller {} completed takeover in term {}", e.v0, e.v1)
            }
            _ => continue,
        };
        let _ = writeln!(out, "  t={:<10.3} {} ({})", e.at(), line, e.reason.name());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_telemetry::ReasonCode;

    #[allow(clippy::too_many_arguments)] // mirrors the FlightEvent fields
    fn event(
        at: f64,
        kind: FlightKind,
        reason: ReasonCode,
        rack: u32,
        priority: u8,
        bucket: u16,
        v0: f64,
        v1: f64,
    ) -> FlightEvent {
        FlightEvent {
            at_bits: at.to_bits(),
            kind,
            reason,
            priority,
            bucket,
            rack,
            v0: v0.to_bits(),
            v1: v1.to_bits(),
        }
    }

    fn dump() -> BlackboxDump {
        BlackboxDump {
            trigger: "breaker_trip".to_owned(),
            overwritten: 0,
            events: vec![
                event(
                    10.0,
                    FlightKind::Admit,
                    ReasonCode::AdmitFloor,
                    41,
                    2,
                    512,
                    1.0,
                    900.0,
                ),
                event(
                    20.0,
                    FlightKind::Admit,
                    ReasonCode::AdmitUpgraded,
                    41,
                    2,
                    512,
                    16.4,
                    300.0,
                ),
                event(
                    30.0,
                    FlightKind::Throttle,
                    ReasonCode::ThrottleOverload,
                    41,
                    2,
                    480,
                    16.4,
                    120.0,
                ),
                event(
                    30.0,
                    FlightKind::SlaOutcome,
                    ReasonCode::SlaMissed,
                    41,
                    2,
                    480,
                    4000.0,
                    3600.0,
                ),
                event(
                    35.0,
                    FlightKind::BreakerTrip,
                    ReasonCode::Observed,
                    NO_RACK,
                    0,
                    NO_BUCKET,
                    191_000.0,
                    190_000.0,
                ),
            ],
        }
    }

    #[test]
    fn explain_picks_latest_decision_at_or_before() {
        let d = dump();
        // At t=25 the latest decision is the t=20 upgrade.
        let report = explain(&d, 41, 25.0, 8).expect("decision exists");
        assert!(report.contains("admit (admit_upgraded)"), "{report}");
        assert!(report.contains("priority 2"), "{report}");
        assert!(report.contains("dod_bucket 512"), "{report}");
        assert!(report.contains("16.40 A"), "{report}");
        // At t=30 the throttle wins; the SLA outcome is not a decision.
        let report = explain(&d, 41, 30.0, 8).expect("decision exists");
        assert!(report.contains("throttle (throttle_overload)"), "{report}");
        // Unknown rack or too-early time: no answer.
        assert!(explain(&d, 7, 30.0, 8).is_none());
        assert!(explain(&d, 41, 5.0, 8).is_none());
    }

    #[test]
    fn timeline_filters_and_truncates() {
        let d = dump();
        let all = timeline(&d, None, 0);
        assert_eq!(all.lines().count(), 5);
        let rack41 = timeline(&d, Some(41), 0);
        assert_eq!(rack41.lines().count(), 4);
        assert!(!rack41.contains("breaker_trip"));
        let last2 = timeline(&d, Some(41), 2);
        assert!(last2.starts_with("... 2 earlier events elided ..."));
        assert_eq!(last2.lines().count(), 3);
    }

    #[test]
    fn summary_counts_by_kind_and_reason() {
        let s = summary(&dump());
        assert!(s.contains("trigger: breaker_trip"), "{s}");
        assert!(s.contains("racks involved: 1"), "{s}");
        assert!(
            s.contains("admit             2") || s.contains("admit            2"),
            "{s}"
        );
        assert!(s.contains("sla_missed"), "{s}");
        // No HA events in this dump: the leader timeline section is absent.
        assert!(!s.contains("leader timeline"), "{s}");
    }

    fn ha_event(at: f64, kind: FlightKind, reason: ReasonCode, v0: u64, v1: u64) -> FlightEvent {
        FlightEvent {
            at_bits: at.to_bits(),
            kind,
            reason,
            priority: 0,
            bucket: NO_BUCKET,
            rack: NO_RACK,
            v0,
            v1,
        }
    }

    fn ha_dump() -> BlackboxDump {
        BlackboxDump {
            trigger: "manual".to_owned(),
            overwritten: 0,
            events: vec![
                ha_event(
                    0.0,
                    FlightKind::LeaderElected,
                    ReasonCode::HaCampaignWon,
                    0,
                    1,
                ),
                ha_event(
                    100.0,
                    FlightKind::SnapshotTaken,
                    ReasonCode::HaSnapshotCadence,
                    1,
                    68,
                ),
                ha_event(600.0, FlightKind::LeaderLost, ReasonCode::HaCrashed, 0, 1),
                ha_event(
                    630.0,
                    FlightKind::LeaderElected,
                    ReasonCode::HaCampaignWon,
                    2,
                    2,
                ),
                ha_event(
                    630.0,
                    FlightKind::SnapshotRestored,
                    ReasonCode::HaTakeover,
                    2,
                    68,
                ),
                ha_event(
                    631.0,
                    FlightKind::TakeoverComplete,
                    ReasonCode::HaTakeover,
                    2,
                    2,
                ),
                ha_event(
                    632.0,
                    FlightKind::StaleLeaderFenced,
                    ReasonCode::HaStaleTerm,
                    1,
                    2,
                ),
            ],
        }
    }

    #[test]
    fn ha_events_render_in_timeline() {
        let t = timeline(&ha_dump(), None, 0);
        assert!(t.contains("controller 0 won term 1"), "{t}");
        assert!(t.contains("controller 0 lost term 1"), "{t}");
        assert!(t.contains("term 1, 68 bytes"), "{t}");
        assert!(t.contains("term 2, 68 bytes"), "{t}");
        assert!(t.contains("controller 2 leading, term 2"), "{t}");
        assert!(t.contains("stale term 1 < current 2"), "{t}");
        assert!(t.contains("ha_campaign_won"), "{t}");
    }

    #[test]
    fn summary_prints_leader_timeline() {
        let s = summary(&ha_dump());
        assert!(s.contains("leader timeline:"), "{s}");
        assert!(s.contains("controller 0 elected for term 1"), "{s}");
        assert!(
            s.contains("controller 0 lost leadership of term 1 (ha_crashed)"),
            "{s}"
        );
        assert!(s.contains("controller 2 elected for term 2"), "{s}");
        assert!(
            s.contains("controller 2 completed takeover in term 2"),
            "{s}"
        );
        // Snapshots and fencing are not leadership transitions.
        assert!(!leader_timeline(&ha_dump()).contains("bytes"));
    }
}
