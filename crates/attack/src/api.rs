//! The attacker interface.

use ch_sim::{CrashMode, SimTime};
use ch_wifi::mgmt::{Beacon, ProbeRequest};
use ch_wifi::{MacAddr, Ssid};

/// Where a lure SSID originally came from — the Fig. 6 "source" axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LureSource {
    /// Seeded offline from the WiGLE snapshot.
    Wigle,
    /// Harvested online from a direct probe.
    DirectProbe,
    /// Preloaded carrier auto-join SSID (§V-B extension).
    Carrier,
}

/// Which selection lane offered the lure — the Fig. 6 "buffer" axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LureLane {
    /// Popularity Buffer (top weights).
    Popularity,
    /// Popularity ghost list (exploration picks).
    PopularityGhost,
    /// Freshness Buffer (recent hits).
    Freshness,
    /// Freshness ghost list (exploration picks).
    FreshnessGhost,
    /// Plain ranked-database selection (MANA, preliminary City-Hunter).
    Database,
    /// Direct echo of a direct probe's SSID (the KARMA move).
    DirectReply,
}

/// One SSID the attacker offers a client in a probe-response burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lure {
    /// The advertised SSID.
    pub ssid: Ssid,
    /// Provenance (Fig. 6 source breakdown).
    pub source: LureSource,
    /// Selection lane (Fig. 6 buffer breakdown).
    pub lane: LureLane,
}

impl Lure {
    /// Creates a lure.
    pub fn new(ssid: Ssid, source: LureSource, lane: LureLane) -> Self {
        Lure { ssid, source, lane }
    }
}

/// An SSID-luring evil-twin attacker.
///
/// The scenario runner calls [`Attacker::respond_to_probe_into`] for every
/// probe it receives (reusing one lure buffer across the whole run), puts
/// the returned lures on the air (subject to the §III-A scan budget), and
/// reports successful associations back through [`Attacker::on_hit`].
/// [`Attacker::respond_to_probe`] is the allocating convenience form for
/// tests and one-off callers.
///
/// ```
/// use ch_attack::{Attacker, KarmaAttacker};
/// use ch_sim::SimTime;
/// use ch_wifi::mgmt::ProbeRequest;
/// use ch_wifi::{MacAddr, Ssid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut attacker = KarmaAttacker::new(MacAddr::new([0x0a, 0, 0, 0, 0, 1]));
/// let victim = MacAddr::new([0xac, 0, 0, 0, 0, 2]);
/// let probe = ProbeRequest::direct(victim, Ssid::new("AP123")?);
/// let lures = attacker.respond_to_probe(SimTime::ZERO, &probe, 40);
/// assert_eq!(lures[0].ssid.as_str(), "AP123"); // the classic KARMA echo
/// # Ok(())
/// # }
/// ```
///
/// `Send` is a supertrait so a deployed attacker can live inside a city
/// shard that migrates between pool workers across epochs; every
/// generation is plain owned data, so the bound costs nothing.
pub trait Attacker: Send {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// The BSSID the attacker transmits under.
    fn bssid(&self) -> MacAddr;

    /// Chooses up to `budget` lures for this probe, into a caller-owned
    /// vector (cleared first). For direct probes the canonical move is a
    /// single mimicking reply; for broadcast probes the policy is what
    /// distinguishes the attackers.
    ///
    /// Implementations keep this path allocation-free at steady state: with
    /// a warm `out` and warm internal scratch, answering a probe must not
    /// touch the heap (the perfbench gate measures exactly this call).
    fn respond_to_probe_into(
        &mut self,
        now: SimTime,
        probe: &ProbeRequest,
        budget: usize,
        out: &mut Vec<Lure>,
    );

    /// Allocating convenience wrapper around
    /// [`respond_to_probe_into`](Attacker::respond_to_probe_into).
    fn respond_to_probe(&mut self, now: SimTime, probe: &ProbeRequest, budget: usize) -> Vec<Lure> {
        let mut out = Vec::new();
        self.respond_to_probe_into(now, probe, budget, &mut out);
        out
    }

    /// A client associated after receiving `lure` — update hit statistics,
    /// weights, freshness, adaptive sizes.
    fn on_hit(&mut self, now: SimTime, client: MacAddr, lure: &Lure);

    /// Current SSID-database size (Fig. 1(a) time series).
    fn database_len(&self) -> usize;

    /// Whether the §V-B deauthentication extension is active: the runner
    /// will then deauth locally-connected clients in range, forcing them to
    /// rescan.
    fn deauth_enabled(&self) -> bool {
        false
    }

    /// Next beacon the attacker wants on the air, if any. The runner polls
    /// this once per event-loop step; the default attacker beacons never
    /// (staying beacon-silent is itself a detector signature — the
    /// beacon-cloning evasion overrides this).
    fn beacon(&mut self, _now: SimTime) -> Option<Beacon> {
        None
    }

    /// Persist a checkpoint a later warm restart can restore (called by
    /// the runner on the fault plan's checkpoint schedule). Attackers
    /// with nothing durable to save ignore it.
    fn checkpoint(&mut self, _now: SimTime) {}

    /// The attacker process crashed and came back at `now` (fault
    /// injection). [`CrashMode::Warm`] restores the last checkpoint;
    /// [`CrashMode::Cold`] rebuilds from the offline seed state. The
    /// default is a no-op for attackers that keep no in-run state.
    fn on_crash_restart(&mut self, _now: SimTime, _mode: CrashMode) {}

    /// Concrete-type access for persistence layers that hold a
    /// `Box<dyn Attacker>` but must reach an attacker's typed state
    /// (the `ch-serve` checkpoint codec downcasts through this).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable form of [`Attacker::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Shared helper: the canonical reply to a *direct* probe — mimic the
/// requested SSID (all four attackers do this identically, §IV "for the
/// direct probes, City-Hunter utilizes the same approach as in KARMA").
pub fn direct_reply(probe: &ProbeRequest) -> Vec<Lure> {
    let mut out = Vec::with_capacity(1);
    direct_reply_into(probe, &mut out);
    out
}

/// [`direct_reply`] into a caller-owned vector (cleared first). The SSID
/// handoff is a fixed-size inline copy, so a warm `out` makes this
/// allocation-free.
pub fn direct_reply_into(probe: &ProbeRequest, out: &mut Vec<Lure>) {
    debug_assert!(!probe.is_broadcast());
    out.clear();
    out.push(Lure::new(
        // ch-lint: allow(ssid-clone, hot-path-alloc) — inline copy, no heap.
        probe.ssid.clone(),
        LureSource::DirectProbe,
        LureLane::DirectReply,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_reply_mimics() {
        let probe = ProbeRequest::direct(
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            Ssid::new("CafeNet").unwrap(),
        );
        let lures = direct_reply(&probe);
        assert_eq!(lures.len(), 1);
        assert_eq!(lures[0].ssid.as_str(), "CafeNet");
        assert_eq!(lures[0].lane, LureLane::DirectReply);
        assert_eq!(lures[0].source, LureSource::DirectProbe);
    }
}
