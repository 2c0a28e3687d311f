//! Attacker-side evasion: the counter-moves to `ch-detect`.
//!
//! A detector keys on static signatures (BSSID OUI, silent responders)
//! and behavioral tells (broadcast-bait bursts, PNL replay). Each knob in
//! [`EvasionSpec`] blunts one of those signals, at a cost:
//!
//! * **MAC/OUI rotation** — transmit under a fresh vendor-looking BSSID on
//!   a fixed schedule, wiping the detector's per-BSSID evidence. Costs
//!   nothing in h_b but multiplies the MACs ground truth must track.
//! * **Beacon cloning** — beacon like the legitimate AP nearest the
//!   deployment site (its SSID, the standard 100 TU interval), defeating
//!   silent-responder and interval fingerprints.
//! * **Response throttling** — cap probe responses per window, starving
//!   the broadcast-bait heuristic of distinct-SSID evidence. This is the
//!   knob that trades h_b for stealth directly.
//!
//! [`EvasiveAttacker`] wraps any [`Attacker`] (all four generations get
//! the knobs for free) and keeps its own [`EvasionState`], which the
//! fault-injection checkpoint hooks copy like the attackers it wraps.
//! Everything here is schedule arithmetic — no randomness — so evasion
//! composes with the determinism gates, and the wrapped
//! `respond_to_probe_into` stays allocation-free.

use ch_sim::{Cadence, CrashMode, SimDuration, SimTime};
use ch_wifi::channel::Channel;
use ch_wifi::mgmt::{Beacon, ProbeRequest};
use ch_wifi::{MacAddr, Ssid};

use crate::api::{Attacker, Lure};

/// Rotate the transmit BSSID on a fixed schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationSpec {
    /// How long each BSSID stays in use.
    pub period: SimDuration,
}

/// Cap probe responses per window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrottleSpec {
    /// Responses allowed per window.
    pub max_responses: u32,
    /// Window length.
    pub window: SimDuration,
}

/// Declarative evasion configuration; [`EvasionSpec::none`] is a plain,
/// un-evasive attacker.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvasionSpec {
    /// MAC/OUI rotation schedule.
    pub rotation: Option<RotationSpec>,
    /// Beacon like the legitimate AP nearest the deployment site (the
    /// concrete SSID is resolved at build time from the WiGLE snapshot).
    pub beacon_clone: bool,
    /// Response rate cap.
    pub throttle: Option<ThrottleSpec>,
}

impl EvasionSpec {
    /// No evasion at all.
    pub fn none() -> Self {
        EvasionSpec::default()
    }

    /// `true` if every knob is off.
    pub fn is_none(&self) -> bool {
        self.rotation.is_none() && !self.beacon_clone && self.throttle.is_none()
    }

    /// Rotation-only evasion.
    pub fn rotate_every(period: SimDuration) -> Self {
        EvasionSpec {
            rotation: Some(RotationSpec { period }),
            ..EvasionSpec::default()
        }
    }

    /// Beacon-cloning-only evasion.
    pub fn clone_beacons() -> Self {
        EvasionSpec {
            beacon_clone: true,
            ..EvasionSpec::default()
        }
    }

    /// Throttling-only evasion.
    pub fn throttled(max_responses: u32, window: SimDuration) -> Self {
        EvasionSpec {
            throttle: Some(ThrottleSpec {
                max_responses,
                window,
            }),
            ..EvasionSpec::default()
        }
    }
}

/// Vendor-looking OUIs the rotation schedule cycles through (none are on
/// the detector's stock denylist, and none collide with the OUIs the sim
/// mints legitimate infrastructure from).
const ROTATION_OUIS: [[u8; 3]; 4] = [
    [0x00, 0x1a, 0x1e],
    [0x00, 0x1d, 0x7e],
    [0x00, 0x25, 0x9c],
    [0x00, 0x26, 0xbb],
];

/// How often a cloning attacker emits its cloned beacon. The sim's tap is
/// event-driven, so this is a sampled view of the real ~100 TU cadence.
const CLONE_BEACON_PERIOD: SimDuration = SimDuration::from_secs(2);

/// The BSSID in use during rotation `slot` (pure function — both the
/// attacker and ground-truth bookkeeping derive it).
fn rotated_bssid(base: MacAddr, slot: u64) -> MacAddr {
    let o = base.octets();
    let nic =
        u32::from_be_bytes([0, o[3], o[4], o[5]]).wrapping_add((slot as u32).wrapping_mul(131));
    MacAddr::from_index(
        ROTATION_OUIS[(slot % ROTATION_OUIS.len() as u64) as usize],
        nic,
    )
}

/// Everything the evasion wrapper tracks between probes, on top of what
/// the wrapped attacker learns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvasionState {
    /// The rotation slot in force (`now / period`).
    pub rotation_slot: u64,
    /// The BSSID that slot transmits under.
    pub current_bssid: MacAddr,
    /// The throttle window in force (`now / window`).
    pub throttle_window: u64,
    /// Responses sent in that window.
    pub sent_in_window: u32,
    /// The cloned-beacon schedule: next due time and period.
    pub beacons: Cadence,
}

impl EvasionState {
    fn boot(spec: &EvasionSpec, base: MacAddr) -> Self {
        EvasionState {
            rotation_slot: 0,
            current_bssid: if spec.rotation.is_some() {
                rotated_bssid(base, 0)
            } else {
                base
            },
            throttle_window: 0,
            sent_in_window: 0,
            beacons: Cadence::new(CLONE_BEACON_PERIOD, SimTime::ZERO),
        }
    }
}

/// Wraps any attacker with the [`EvasionSpec`] knobs.
pub struct EvasiveAttacker {
    pub(crate) inner: Box<dyn Attacker>,
    spec: EvasionSpec,
    base_bssid: MacAddr,
    /// SSID of the legitimate nearby AP to clone (resolved at build time);
    /// `None` leaves the beacon-clone knob inert.
    clone_target: Option<Ssid>,
    pub(crate) state: EvasionState,
    saved: Option<EvasionState>,
}

impl EvasiveAttacker {
    /// Wraps `inner`, which transmits under `base_bssid` when rotation is
    /// off. `clone_target` is the legitimate SSID to beacon as when
    /// `spec.beacon_clone` is set.
    pub fn new(inner: Box<dyn Attacker>, spec: EvasionSpec, clone_target: Option<Ssid>) -> Self {
        let base_bssid = inner.bssid();
        let state = EvasionState::boot(&spec, base_bssid);
        EvasiveAttacker {
            inner,
            spec,
            base_bssid,
            clone_target,
            state,
            saved: None,
        }
    }

    /// The active evasion spec.
    pub fn spec(&self) -> &EvasionSpec {
        &self.spec
    }

    /// The SSID the beacon-clone knob impersonates, if resolved.
    pub fn clone_target(&self) -> Option<&Ssid> {
        self.clone_target.as_ref()
    }

    fn tick_rotation(&mut self, now: SimTime) {
        if let Some(rotation) = &self.spec.rotation {
            let slot = now.as_micros() / rotation.period.as_micros().max(1);
            if slot != self.state.rotation_slot {
                self.state.rotation_slot = slot;
                self.state.current_bssid = rotated_bssid(self.base_bssid, slot);
            }
        }
    }
}

impl Attacker for EvasiveAttacker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bssid(&self) -> MacAddr {
        self.state.current_bssid
    }

    fn respond_to_probe_into(
        &mut self,
        now: SimTime,
        probe: &ProbeRequest,
        budget: usize,
        out: &mut Vec<Lure>,
    ) {
        self.tick_rotation(now);
        let budget = match &self.spec.throttle {
            Some(throttle) => {
                let window = now.as_micros() / throttle.window.as_micros().max(1);
                if window != self.state.throttle_window {
                    self.state.throttle_window = window;
                    self.state.sent_in_window = 0;
                }
                let remaining = throttle
                    .max_responses
                    .saturating_sub(self.state.sent_in_window);
                budget.min(remaining as usize)
            }
            None => budget,
        };
        // The wrapped attacker still *hears* the probe even when throttled
        // to zero (harvesting continues); the cap lands on what goes on
        // the air.
        self.inner.respond_to_probe_into(now, probe, budget, out);
        out.truncate(budget);
        if self.spec.throttle.is_some() {
            self.state.sent_in_window = self.state.sent_in_window.saturating_add(out.len() as u32);
        }
    }

    fn on_hit(&mut self, now: SimTime, client: MacAddr, lure: &Lure) {
        self.inner.on_hit(now, client, lure);
    }

    fn database_len(&self) -> usize {
        self.inner.database_len()
    }

    fn deauth_enabled(&self) -> bool {
        self.inner.deauth_enabled()
    }

    fn beacon(&mut self, now: SimTime) -> Option<Beacon> {
        if !self.spec.beacon_clone {
            return None;
        }
        // ch-lint: allow(ssid-clone) — inline Ssid copy, no heap; the
        // beacon poll is outside the probe hot path.
        let target = self.clone_target.clone()?;
        // Drain the schedule (catch-up after a quiet stretch) but emit at
        // most one beacon per poll, so a backlog never floods the air.
        let mut due = false;
        while self.state.beacons.pop_due(now).is_some() {
            due = true;
        }
        if !due {
            return None;
        }
        self.tick_rotation(now);
        Some(Beacon::open(
            self.state.current_bssid,
            target,
            Channel::default(),
        ))
    }

    fn checkpoint(&mut self, now: SimTime) {
        self.saved = Some(self.state.clone());
        self.inner.checkpoint(now);
    }

    fn on_crash_restart(&mut self, now: SimTime, mode: CrashMode) {
        self.state = match mode {
            CrashMode::Warm => self
                .saved
                .clone()
                .unwrap_or_else(|| EvasionState::boot(&self.spec, self.base_bssid)),
            CrashMode::Cold => EvasionState::boot(&self.spec, self.base_bssid),
        };
        self.inner.on_crash_restart(now, mode);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KarmaAttacker;
    use ch_wifi::mgmt::ProbeRequest;

    fn client(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn base() -> MacAddr {
        MacAddr::from_index([0x0a, 0xbc, 0xde], 1)
    }

    fn wrap(spec: EvasionSpec, clone_target: Option<Ssid>) -> EvasiveAttacker {
        EvasiveAttacker::new(Box::new(KarmaAttacker::new(base())), spec, clone_target)
    }

    fn direct(name: &str) -> ProbeRequest {
        ProbeRequest::direct(client(1), Ssid::new(name).unwrap())
    }

    #[test]
    fn no_evasion_is_pure_passthrough() {
        let mut evasive = wrap(EvasionSpec::none(), None);
        assert!(EvasionSpec::none().is_none());
        assert_eq!(evasive.bssid(), base());
        assert_eq!(evasive.name(), "KARMA");
        let lures = evasive.respond_to_probe(SimTime::from_secs(9), &direct("AP123"), 40);
        assert_eq!(lures.len(), 1);
        assert_eq!(lures[0].ssid.as_str(), "AP123");
        assert!(evasive.beacon(SimTime::from_secs(10)).is_none());
        assert_eq!(evasive.database_len(), 1);
    }

    #[test]
    fn rotation_changes_bssid_on_schedule() {
        let spec = EvasionSpec::rotate_every(SimDuration::from_secs(60));
        assert!(!spec.is_none());
        let mut evasive = wrap(spec, None);
        // Slot 0 already disguises the denylisted base OUI.
        let first = evasive.bssid();
        assert_ne!(first, base());
        assert_eq!(first.oui(), ROTATION_OUIS[0]);
        evasive.respond_to_probe(SimTime::from_secs(10), &direct("A"), 40);
        assert_eq!(evasive.bssid(), first);
        evasive.respond_to_probe(SimTime::from_secs(70), &direct("B"), 40);
        let second = evasive.bssid();
        assert_ne!(second, first);
        assert_eq!(second.oui(), ROTATION_OUIS[1]);
        // The schedule is a pure function of time: same slot, same MAC.
        assert_eq!(rotated_bssid(base(), 1), second);
        // Rotated MACs still read as vendor-assigned.
        assert!(!second.is_locally_administered());
    }

    #[test]
    fn throttle_caps_responses_per_window() {
        let spec = EvasionSpec::throttled(2, SimDuration::from_secs(60));
        let mut evasive = wrap(spec, None);
        let mut sent = 0;
        for i in 0..5u64 {
            sent += evasive
                .respond_to_probe(SimTime::from_secs(i), &direct("AP"), 40)
                .len();
        }
        assert_eq!(sent, 2);
        // A fresh window re-arms the cap; harvesting continued throughout.
        let lures = evasive.respond_to_probe(SimTime::from_secs(61), &direct("AP"), 40);
        assert_eq!(lures.len(), 1);
        assert_eq!(evasive.database_len(), 1);
    }

    #[test]
    fn beacon_clone_emits_legit_looking_beacons() {
        let target = Ssid::new("CSL").unwrap();
        let mut evasive = wrap(EvasionSpec::clone_beacons(), Some(target.clone()));
        assert_eq!(evasive.clone_target(), Some(&target));
        let beacon = evasive.beacon(SimTime::from_secs(10)).unwrap();
        assert_eq!(beacon.ssid, target);
        assert_eq!(beacon.bssid, base());
        assert_eq!(beacon.interval_tu, Beacon::STANDARD_INTERVAL_TU);
        // At most one per poll, and none until the next period elapses.
        assert!(evasive.beacon(SimTime::from_secs(10)).is_none());
        assert!(evasive.beacon(SimTime::from_secs(13)).is_some());
        // Without a resolved target the knob is inert.
        let mut unresolved = wrap(EvasionSpec::clone_beacons(), None);
        assert!(unresolved.beacon(SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn evasion_state_snapshots_and_restores() {
        let spec = EvasionSpec::throttled(2, SimDuration::from_secs(600));
        let mut evasive = wrap(spec, None);
        evasive.respond_to_probe(SimTime::from_secs(1), &direct("A"), 40);
        evasive.checkpoint(SimTime::from_secs(2));
        evasive.respond_to_probe(SimTime::from_secs(3), &direct("B"), 40);
        // Cap exhausted.
        assert!(evasive
            .respond_to_probe(SimTime::from_secs(4), &direct("C"), 40)
            .is_empty());
        // Warm restart restores the checkpoint: one response left.
        evasive.on_crash_restart(SimTime::from_secs(5), CrashMode::Warm);
        assert_eq!(
            evasive
                .respond_to_probe(SimTime::from_secs(6), &direct("D"), 40)
                .len(),
            1
        );
        assert!(evasive
            .respond_to_probe(SimTime::from_secs(7), &direct("E"), 40)
            .is_empty());
        // Cold restart resets the whole window budget.
        evasive.on_crash_restart(SimTime::from_secs(8), CrashMode::Cold);
        assert_eq!(
            evasive
                .respond_to_probe(SimTime::from_secs(9), &direct("F"), 40)
                .len(),
            1
        );
        // Warm restart with no checkpoint falls back to boot state.
        let mut fresh = wrap(EvasionSpec::throttled(1, SimDuration::from_secs(600)), None);
        fresh.on_crash_restart(SimTime::from_secs(1), CrashMode::Warm);
        assert_eq!(
            fresh
                .respond_to_probe(SimTime::from_secs(2), &direct("G"), 40)
                .len(),
            1
        );
    }
}
