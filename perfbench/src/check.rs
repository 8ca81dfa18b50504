//! Output checks: exact digests of what a run produced, the references
//! committed with the benchmark, and the simulated statistics printed
//! beside the host metrics.

use recharge_sim::RunMetrics;
use recharge_units::Priority;

/// FNV-1a, 64-bit: a stable digest with no dependency.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a word in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a float in by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// An exact digest of every public field of a run's metrics, floats by
/// their bits: two runs share a digest only if their `RunMetrics` are `==`
/// (up to digest collisions).
#[must_use]
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv::default();
    h.u64(m.series.len() as u64);
    for p in &m.series {
        h.f64(p.at.as_secs());
        h.f64(p.it_load.as_watts());
        h.f64(p.recharge_power.as_watts());
        h.f64(p.capped_power.as_watts());
    }
    for w in [
        m.power_limit,
        m.max_total_draw,
        m.max_recharge_power,
        m.max_capped_power,
        m.it_load_before_ot,
    ] {
        h.f64(w.as_watts());
    }
    h.u64(u64::from(m.breaker_tripped));
    h.u64(m.rack_outcomes.len() as u64);
    for o in &m.rack_outcomes {
        h.u64(u64::from(o.rack.index()));
        h.u64(u64::from(o.priority.rank()));
        h.f64(o.event_dod.value());
        h.f64(o.charge_duration.map_or(-1.0, |d| d.as_secs()));
        h.u64(u64::from(o.sla_met));
    }
    h.f64(m.ot_start.as_secs());
    h.f64(m.ot_duration.as_secs());
    h.finish()
}

/// The digest of a rendered report's text.
#[must_use]
pub fn digest_text(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.finish()
}

/// What a run simulated, printed beside its host metrics. A change that only
/// makes the program faster leaves every field identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// (met, total) per priority P1, P2, P3.
    pub sla: [(usize, usize); 3],
    /// Maximum draw at the breaker, W.
    pub max_draw_w: f64,
    /// Maximum draw minus the pre-transition IT load, W.
    pub spike_w: f64,
    /// Maximum server power shed by capping, W.
    pub max_capped_w: f64,
}

impl SimStats {
    /// The statistics of one run.
    #[must_use]
    pub fn of(m: &RunMetrics) -> Self {
        let sla = [Priority::P1, Priority::P2, Priority::P3].map(|p| {
            let s = m.sla_summary(p);
            (s.met, s.total)
        });
        SimStats {
            sla,
            max_draw_w: m.max_total_draw.as_watts(),
            spike_w: m.spike_magnitude().as_watts(),
            max_capped_w: m.max_capped_power.as_watts(),
        }
    }

    /// One JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"sla_met\": {{\"p1\": \"{}/{}\", \"p2\": \"{}/{}\", \"p3\": \"{}/{}\"}}, \
             \"max_draw_w\": {}, \"spike_w\": {}, \"max_capped_w\": {}}}",
            self.sla[0].0,
            self.sla[0].1,
            self.sla[1].0,
            self.sla[1].1,
            self.sla[2].0,
            self.sla[2].1,
            self.max_draw_w,
            self.spike_w,
            self.max_capped_w
        )
    }
}

/// The references committed with the benchmark, one per line:
/// `workload seed digest [simulated-rack-seconds]`, digest in hex, `*` for a
/// workload whose inputs do not depend on the seed, `#` starting a comment.
pub const REFERENCES: &str = include_str!("../references.txt");

/// The Fig 14 report text `experiments::fig14::run` renders, committed
/// whole so a mismatch can be shown line by line.
pub const FIG14_REPORT: &str = include_str!("../fig14_report.txt");

/// One committed reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Expected output digest.
    pub digest: u64,
    /// Simulated rack-seconds of one operation, where the output does not
    /// carry them.
    pub rack_s: Option<f64>,
}

/// The committed reference for a workload at a seed, if one was recorded.
#[must_use]
pub fn reference(table: &str, workload: &str, seed: u64) -> Option<Reference> {
    table.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        if w != workload || (s != "*" && s.parse() != Ok(seed)) {
            return None;
        }
        Some(Reference {
            digest: u64::from_str_radix(d, 16).ok()?,
            rack_s: fields.next().and_then(|v| v.parse().ok()),
        })
    })
}
