//! Layer 2 — the windowed behavioral detector.
//!
//! A [`Detector`] watches the same management-frame stream the clients in
//! the sim hear. Per observed AP it accumulates an [`ApProfile`] of cheap
//! observables, evaluates the declarative [`SignatureDb`] over that profile
//! (layer 1), and layers windowed behavioral evidence on top:
//!
//! * **broadcast bait** — an AP answering *broadcast* probes with many
//!   distinct directed SSIDs the prober never asked for, the City-Hunter
//!   tell (§III of the paper);
//! * **PNL replay** — an AP advertising an SSID some *other* client just
//!   probed for, the MANA harvest-and-replay tell;
//! * **implausible co-location** — one BSSID claiming to be dozens of
//!   distinct networks;
//! * **security downgrade** — an SSID on the database's protected list
//!   offered open, the classic evil-twin tell;
//! * **deauth flood** — one source deauthenticating
//!   [`DEAUTH_FLOOD_VICTIMS`] distinct clients inside one evidence window,
//!   the §V-B forced-rescan attack. A real AP drops an occasional client;
//!   the attack sprays the room.
//!
//! Either of the last two alone crosses the [`Strictness::Standard`]
//! threshold.
//!
//! When an AP's combined score crosses the active [`Strictness`] threshold
//! the detector emits a scored [`DetectionVerdict`] (at most one per AP per
//! evidence window, so the verdict stream stays compact). Strictness is
//! the one setting; the behavioral tuning (the 60 s evidence window, the
//! reply and correlation windows, the point caps and minimums) is fixed in
//! this module's private constants. The detector
//! consumes no randomness: the verdict stream is a pure function of the
//! observed frame sequence, which is what makes the `arms_race` experiment
//! byte-identical across `--jobs` widths.

use ch_sim::{det_hash_map, DetHashMap, SimDuration, SimTime};
use ch_wifi::mac::MacAddr;
use ch_wifi::mgmt::{Beacon, Deauthentication, MgmtFrame, ProbeRequest, ProbeResponse};
use ch_wifi::ssid::Ssid;

use crate::signature::{SignatureDb, ROGUE_MINIMAL_IE};
use crate::verdict::{DetectionVerdict, Reason};

/// Points an open offer of a protected SSID scores: alone it crosses the
/// [`Strictness::Standard`] threshold.
const DOWNGRADE_POINTS: u32 = 7;

/// Distinct clients one source must deauthenticate inside one evidence
/// window before the deauth-flood tell fires.
pub const DEAUTH_FLOOD_VICTIMS: usize = 5;

/// Points a deauth flood scores: alone it crosses the
/// [`Strictness::Standard`] threshold.
const DEAUTH_FLOOD_POINTS: u32 = 7;

/// How aggressively the detector flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strictness {
    /// Detection disabled; the detector observes nothing.
    Off,
    /// High threshold: only overwhelming evidence flags.
    Lenient,
    /// The default operating point.
    #[default]
    Standard,
    /// Low threshold: flags early, at the cost of false positives.
    Paranoid,
}

impl Strictness {
    /// Score an AP must reach to be flagged; `None` when detection is off.
    pub fn threshold(self) -> Option<u32> {
        match self {
            Strictness::Off => None,
            Strictness::Lenient => Some(10),
            Strictness::Standard => Some(7),
            Strictness::Paranoid => Some(4),
        }
    }

    /// Stable slug (experiment keys, rendered tables).
    pub fn slug(self) -> &'static str {
        match self {
            Strictness::Off => "off",
            Strictness::Lenient => "lenient",
            Strictness::Standard => "standard",
            Strictness::Paranoid => "paranoid",
        }
    }

    /// Parses a slug produced by [`Strictness::slug`].
    pub fn from_slug(slug: &str) -> Option<Strictness> {
        match slug {
            "off" => Some(Strictness::Off),
            "lenient" => Some(Strictness::Lenient),
            "standard" => Some(Strictness::Standard),
            "paranoid" => Some(Strictness::Paranoid),
            _ => None,
        }
    }
}

/// The behavioral evidence window: windowed evidence resets at each
/// boundary.
const WINDOW: SimDuration = SimDuration::from_secs(60);

/// A directed response this soon after a client's *broadcast* probe is
/// treated as an answer to it.
const BROADCAST_REPLY_WINDOW: SimDuration = SimDuration::from_secs(2);

/// How long a directed probe keeps an SSID "recently probed" for the
/// PNL-replay correlation.
const CORRELATION_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Distinct bait SSIDs in one window before the broadcast-bait signal
/// fires.
const BAIT_MIN: usize = 2;

/// Cap on broadcast-bait points per window.
const BAIT_POINTS_CAP: u32 = 10;

/// Cap on PNL-replay points per window.
const REPLAY_POINTS_CAP: u32 = 4;

/// Distinct advertised SSIDs before co-location fires.
const COLOCATION_MIN: usize = 10;

/// Points co-location contributes.
const COLOCATION_POINTS: u32 = 4;

/// Configuration for a [`Detector`]; threaded through
/// `ch_scenarios::RunConfig` so detection runs concurrently with an attack.
/// The behavioral tuning and the 60 s evidence window are fixed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DetectorSpec {
    /// Flagging threshold regime.
    pub strictness: Strictness,
}

impl DetectorSpec {
    /// The default operating point (standard strictness).
    pub fn standard() -> Self {
        DetectorSpec::default()
    }

    /// A spec at the given strictness.
    pub fn with_strictness(strictness: Strictness) -> Self {
        DetectorSpec { strictness }
    }

    /// A present-but-disabled spec; behaves exactly like `None`.
    pub fn disabled() -> Self {
        DetectorSpec::with_strictness(Strictness::Off)
    }

    /// `true` if this spec disables detection entirely.
    pub fn is_disabled(&self) -> bool {
        self.strictness == Strictness::Off
    }
}

/// Per-BSSID observables the signature rules and behavioral heuristics
/// read. Fields are public for [`SignatureRule`](crate::SignatureRule)
/// evaluation.
#[derive(Debug, Clone)]
pub struct ApProfile {
    /// First time this BSSID transmitted.
    pub first_seen: SimTime,
    /// OUI is on the signature denylist (computed once at creation).
    pub denylisted_oui: bool,
    /// BSSID carries the locally-administered bit.
    pub locally_administered: bool,
    /// Some advertised SSID matched bait wording.
    pub bait_ssid: bool,
    /// A frame carried the karma-style minimal IE set.
    pub rogue_ie: bool,
    /// Probe responses transmitted.
    pub responses: u64,
    /// Beacons transmitted.
    pub beacons: u64,
    /// Lowest and highest beacon interval observed, in TU.
    pub beacon_interval_range: Option<(u16, u16)>,
    /// Offered a protected SSID open (sticky, like `bait_ssid`).
    downgrade: bool,
    /// Every distinct SSID this BSSID has advertised.
    advertised: ch_sim::DetHashSet<Ssid>,
    /// Current evidence window index.
    window: u64,
    /// Distinct unsolicited SSIDs answered to broadcast probes this window.
    window_bait: ch_sim::DetHashSet<Ssid>,
    /// PNL-replay observations this window.
    window_replays: u32,
    /// Distinct clients this source deauthenticated this window; the
    /// first `window_victim_count` slots are live. Fixed-size: counting
    /// stops at the flood threshold, so a deauth allocates nothing.
    window_victims: [MacAddr; DEAUTH_FLOOD_VICTIMS],
    window_victim_count: usize,
    /// A verdict was already emitted this window.
    window_flagged: bool,
}

impl ApProfile {
    fn new(at: SimTime, denylisted_oui: bool, locally_administered: bool) -> Self {
        ApProfile {
            first_seen: at,
            denylisted_oui,
            locally_administered,
            bait_ssid: false,
            rogue_ie: false,
            responses: 0,
            beacons: 0,
            beacon_interval_range: None,
            downgrade: false,
            advertised: ch_sim::det_hash_set(),
            window: 0,
            window_bait: ch_sim::det_hash_set(),
            window_replays: 0,
            window_victims: [MacAddr::default(); DEAUTH_FLOOD_VICTIMS],
            window_victim_count: 0,
            window_flagged: false,
        }
    }

    /// Distinct SSIDs this BSSID has ever advertised.
    pub fn advertised_ssids(&self) -> usize {
        self.advertised.len()
    }

    fn roll_window(&mut self, window: u64) {
        if self.window != window {
            self.window = window;
            self.window_bait.clear();
            self.window_replays = 0;
            self.window_victim_count = 0;
            self.window_flagged = false;
        }
    }

    fn note_victim(&mut self, victim: MacAddr) {
        let count = self.window_victim_count;
        if self.window_victims.iter().take(count).any(|&v| v == victim) {
            return;
        }
        if let Some(slot) = self.window_victims.get_mut(count) {
            *slot = victim;
            self.window_victim_count = count + 1;
        }
    }

    fn note_advertised(&mut self, ssid: &Ssid, bait: bool) {
        if !self.advertised.contains(ssid) {
            // A fixed-size inline copy of the Ssid (no heap) into the
            // detector's bookkeeping set; the scan kernel reaches it only
            // with a detector armed.
            // ch-lint: allow(ssid-clone, hot-path-alloc)
            self.advertised.insert(ssid.clone());
            if bait {
                self.bait_ssid = true;
            }
        }
    }

    fn note_interval(&mut self, interval_tu: u16) {
        self.beacon_interval_range = Some(match self.beacon_interval_range {
            Some((lo, hi)) => (lo.min(interval_tu), hi.max(interval_tu)),
            None => (interval_tu, interval_tu),
        });
    }
}

struct DirectProbe {
    client: MacAddr,
    at: SimTime,
}

/// The rogue-AP detector: signature DB + behavioral heuristics over an
/// observed frame stream.
pub struct Detector {
    spec: DetectorSpec,
    db: SignatureDb,
    profiles: DetHashMap<MacAddr, ApProfile>,
    broadcasters: DetHashMap<MacAddr, SimTime>,
    direct_probes: DetHashMap<Ssid, DirectProbe>,
    first_flags: DetHashMap<MacAddr, SimTime>,
    verdicts: Vec<DetectionVerdict>,
    frames: u64,
}

impl Detector {
    /// A detector with the stock signature database.
    pub fn new(spec: DetectorSpec) -> Self {
        Detector::with_db(spec, SignatureDb::standard())
    }

    /// A detector with a custom signature database.
    pub fn with_db(spec: DetectorSpec, db: SignatureDb) -> Self {
        Detector {
            spec,
            db,
            profiles: det_hash_map(),
            broadcasters: det_hash_map(),
            direct_probes: det_hash_map(),
            first_flags: det_hash_map(),
            verdicts: Vec::new(),
            frames: 0,
        }
    }

    /// The active spec.
    pub fn spec(&self) -> &DetectorSpec {
        &self.spec
    }

    /// Feeds one observed frame.
    pub fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        if self.spec.is_disabled() {
            return;
        }
        self.frames += 1;
        match frame {
            MgmtFrame::ProbeRequest(probe) => self.observe_probe(at, probe),
            MgmtFrame::ProbeResponse(response) => self.observe_response(at, response),
            MgmtFrame::Beacon(beacon) => self.observe_beacon(at, beacon),
            MgmtFrame::Deauthentication(deauth) => self.observe_deauth(at, deauth),
            // The auth/assoc legs carry no AP-fingerprinting signal this
            // detector models; they still count as observed traffic.
            _ => {}
        }
    }

    fn observe_probe(&mut self, at: SimTime, probe: &ProbeRequest) {
        if probe.is_broadcast() {
            self.broadcasters.insert(probe.source, at);
        } else {
            match self.direct_probes.get_mut(&probe.ssid) {
                Some(entry) => {
                    entry.client = probe.source;
                    entry.at = at;
                }
                None => {
                    self.direct_probes.insert(
                        // Fixed-size inline Ssid copy (no heap) keying the
                        // recently-probed pool.
                        // ch-lint: allow(ssid-clone, hot-path-alloc)
                        probe.ssid.clone(),
                        DirectProbe {
                            client: probe.source,
                            at,
                        },
                    );
                }
            }
        }
    }

    /// `true` if `ssid` was directly probed within the correlation window
    /// by a client other than `client`.
    fn is_replay(&self, at: SimTime, ssid: &Ssid, client: MacAddr) -> bool {
        matches!(
            self.direct_probes.get(ssid),
            Some(dp) if dp.client != client
                && at.saturating_since(dp.at) <= CORRELATION_WINDOW
        )
    }

    /// `true` if `ssid` was directly probed by this very client recently —
    /// in which case a directed answer is what a legitimate AP would send.
    fn is_own_request(&self, at: SimTime, ssid: &Ssid, client: MacAddr) -> bool {
        matches!(
            self.direct_probes.get(ssid),
            Some(dp) if dp.client == client
                && at.saturating_since(dp.at) <= CORRELATION_WINDOW
        )
    }

    /// The profile of `bssid` (created on its first frame), rolled to the
    /// evidence window holding `at`.
    fn profile_at(&mut self, at: SimTime, bssid: MacAddr) -> &mut ApProfile {
        let denylisted = self.db.oui_denylisted(bssid.oui());
        let profile = self
            .profiles
            .entry(bssid)
            .or_insert_with(|| ApProfile::new(at, denylisted, bssid.is_locally_administered()));
        profile.roll_window(at.bucket(WINDOW));
        profile
    }

    fn observe_response(&mut self, at: SimTime, response: &ProbeResponse) {
        let replay = self.is_replay(at, &response.ssid, response.destination);
        let bait = matches!(
            self.broadcasters.get(&response.destination),
            Some(&t) if at.saturating_since(t) <= BROADCAST_REPLY_WINDOW
        ) && !self.is_own_request(at, &response.ssid, response.destination);
        let bait_wording = self.db.matches_bait(&response.ssid);
        let downgrade = !response.capabilities.privacy && self.db.is_protected(&response.ssid);

        let profile = self.profile_at(at, response.bssid);
        profile.responses += 1;
        profile.downgrade |= downgrade;
        profile.note_advertised(&response.ssid, bait_wording);
        if response.ie_fingerprint() == ROGUE_MINIMAL_IE {
            profile.rogue_ie = true;
        }
        if bait && !profile.window_bait.contains(&response.ssid) {
            // Fixed-size inline Ssid copy (no heap) into the per-window
            // bait evidence set.
            // ch-lint: allow(ssid-clone, hot-path-alloc)
            profile.window_bait.insert(response.ssid.clone());
        }
        if replay {
            profile.window_replays = profile.window_replays.saturating_add(1);
        }
        self.evaluate(at, response.bssid);
    }

    fn observe_beacon(&mut self, at: SimTime, beacon: &Beacon) {
        let replay = self.is_replay(at, &beacon.ssid, beacon.bssid);
        let bait_wording = self.db.matches_bait(&beacon.ssid);
        let downgrade = !beacon.capabilities.privacy && self.db.is_protected(&beacon.ssid);

        let profile = self.profile_at(at, beacon.bssid);
        profile.beacons += 1;
        profile.downgrade |= downgrade;
        profile.note_interval(beacon.interval_tu);
        profile.note_advertised(&beacon.ssid, bait_wording);
        if replay {
            profile.window_replays = profile.window_replays.saturating_add(1);
        }
        self.evaluate(at, beacon.bssid);
    }

    fn observe_deauth(&mut self, at: SimTime, deauth: &Deauthentication) {
        self.profile_at(at, deauth.source)
            .note_victim(deauth.destination);
        self.evaluate(at, deauth.source);
    }

    fn evaluate(&mut self, at: SimTime, bssid: MacAddr) {
        let Some(threshold) = self.spec.strictness.threshold() else {
            return;
        };
        let Some(profile) = self.profiles.get_mut(&bssid) else {
            return;
        };
        if profile.window_flagged {
            return;
        }
        let (mut score, mut reasons) = self.db.score(profile);
        let bait = profile.window_bait.len();
        if bait >= BAIT_MIN {
            score += (bait as u32).min(BAIT_POINTS_CAP);
            reasons.insert(Reason::BroadcastBait);
        }
        if profile.window_replays > 0 {
            score += profile.window_replays.min(REPLAY_POINTS_CAP);
            reasons.insert(Reason::PnlReplay);
        }
        if profile.advertised.len() >= COLOCATION_MIN {
            score += COLOCATION_POINTS;
            reasons.insert(Reason::ImplausibleCoLocation);
        }
        if profile.downgrade {
            score += DOWNGRADE_POINTS;
            reasons.insert(Reason::SecurityDowngrade);
        }
        if profile.window_victim_count >= DEAUTH_FLOOD_VICTIMS {
            score += DEAUTH_FLOOD_POINTS;
            reasons.insert(Reason::DeauthFlood);
        }
        if score >= threshold {
            profile.window_flagged = true;
            self.first_flags.entry(bssid).or_insert(at);
            self.verdicts.push(DetectionVerdict {
                at,
                bssid,
                score,
                reasons,
            });
        }
    }

    /// Every verdict emitted so far, in observation order.
    pub fn verdicts(&self) -> &[DetectionVerdict] {
        &self.verdicts
    }

    /// When `bssid` was first flagged, if ever.
    pub fn first_flag(&self, bssid: MacAddr) -> Option<SimTime> {
        self.first_flags.get(&bssid).copied()
    }

    /// `true` if `bssid` has ever been flagged.
    pub fn is_flagged(&self, bssid: MacAddr) -> bool {
        self.first_flags.contains_key(&bssid)
    }

    /// Distinct flagged APs.
    pub fn flagged_count(&self) -> usize {
        self.first_flags.len()
    }

    /// Iterates over flagged APs and their first-flag times
    /// (deterministic-hasher map order — stable for identical streams).
    pub fn flagged(&self) -> impl Iterator<Item = (MacAddr, SimTime)> + '_ {
        self.first_flags.iter().map(|(b, t)| (*b, *t))
    }

    /// Frames observed so far.
    pub fn frames_observed(&self) -> u64 {
        self.frames
    }

    /// Distinct APs profiled so far.
    pub fn profiled_count(&self) -> usize {
        self.profiles.len()
    }

    /// The profile accumulated for `bssid`, if it ever transmitted.
    pub fn profile(&self, bssid: MacAddr) -> Option<&ApProfile> {
        self.profiles.get(&bssid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_wifi::channel::Channel;

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    fn client(i: u8) -> MacAddr {
        MacAddr::from_index([0xac, 0x37, 0x43], u32::from(i))
    }

    fn rogue() -> MacAddr {
        MacAddr::from_index([0x0a, 0xbc, 0xde], 1)
    }

    fn legit() -> MacAddr {
        MacAddr::from_index([0x00, 0x90, 0x4c], 9)
    }

    fn response(bssid: MacAddr, dest: MacAddr, name: &str) -> MgmtFrame {
        MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
            bssid,
            dest,
            ssid(name),
            Channel::default(),
        ))
    }

    fn beacon(bssid: MacAddr, name: &str) -> MgmtFrame {
        MgmtFrame::Beacon(Beacon::open(bssid, ssid(name), Channel::default()))
    }

    fn broadcast(source: MacAddr) -> MgmtFrame {
        MgmtFrame::ProbeRequest(ProbeRequest::broadcast(source))
    }

    fn direct(source: MacAddr, name: &str) -> MgmtFrame {
        MgmtFrame::ProbeRequest(ProbeRequest::direct(source, ssid(name)))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The City-Hunter shape: broadcast probe answered with a burst of
    /// distinct unsolicited SSIDs.
    fn drive_cityhunter_burst(detector: &mut Detector, at: SimTime, n: usize) {
        detector.observe(at, &broadcast(client(1)));
        for i in 0..n {
            detector.observe(at, &response(rogue(), client(1), &format!("net-{i}")));
        }
    }

    #[test]
    fn broadcast_bait_heuristic_fires() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        assert!(detector.is_flagged(rogue()));
        let v = detector.verdicts()[0];
        assert!(v.reasons.contains(Reason::BroadcastBait));
        assert!(v.reasons.contains(Reason::DenylistedOui));
        assert_eq!(detector.first_flag(rogue()), Some(t(10)));
    }

    #[test]
    fn pnl_replay_heuristic_fires() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        // Client 1 probes for its PNL entry; the rogue replays it to
        // client 2 (MANA aggregation).
        detector.observe(t(5), &direct(client(1), "HomeNet"));
        for i in 0..4 {
            detector.observe(t(6 + i), &response(rogue(), client(2), "HomeNet"));
        }
        assert!(detector.is_flagged(rogue()));
        assert!(detector.verdicts()[0].reasons.contains(Reason::PnlReplay));
    }

    #[test]
    fn answering_the_probing_client_is_not_bait_or_replay() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        // A legit AP answering a client's own directed probe.
        detector.observe(t(5), &direct(client(1), "CSL"));
        detector.observe(t(5), &response(legit(), client(1), "CSL"));
        assert!(!detector.is_flagged(legit()));
        let profile = detector.profile(legit()).unwrap();
        assert_eq!(profile.window_bait.len(), 0);
        assert_eq!(profile.window_replays, 0);
    }

    #[test]
    fn silent_responder_signature_fires() {
        let mut detector = Detector::new(DetectorSpec::standard());
        // A *clean-looking* BSSID (vendor OUI, plain SSIDs) that answers
        // directed probes forever without ever beaconing.
        for i in 0..25u64 {
            detector.observe(t(i), &direct(client(1), "Corp"));
            detector.observe(t(i), &response(legit(), client(1), "Corp"));
        }
        let profile = detector.profile(legit()).unwrap();
        assert_eq!(profile.beacons, 0);
        assert!(profile.responses >= 20);
        // Silent responder (3) + rogue IE (1) alone stay under the standard
        // threshold; a paranoid detector flags it.
        assert!(!detector.is_flagged(legit()));
        let mut paranoid = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 0..25u64 {
            paranoid.observe(t(i), &direct(client(1), "Corp"));
            paranoid.observe(t(i), &response(legit(), client(1), "Corp"));
        }
        assert!(paranoid.is_flagged(legit()));
        assert!(paranoid.verdicts()[0]
            .reasons
            .contains(Reason::SilentResponder));
    }

    #[test]
    fn odd_beacon_interval_signature_fires() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        let mut b = Beacon::open(legit(), ssid("Weird"), Channel::default());
        b.interval_tu = 400;
        // Odd interval (2) alone is under even the paranoid threshold;
        // pair it with bait wording (2) to cross it.
        let mut bait = Beacon::open(legit(), ssid("Free WiFi by Weird"), Channel::default());
        bait.interval_tu = 400;
        detector.observe(t(1), &MgmtFrame::Beacon(b));
        assert!(!detector.is_flagged(legit()));
        detector.observe(t(2), &MgmtFrame::Beacon(bait));
        assert!(detector.is_flagged(legit()));
        let reasons = detector.verdicts()[0].reasons;
        assert!(reasons.contains(Reason::OddBeaconInterval));
        assert!(reasons.contains(Reason::BaitSsid));
    }

    #[test]
    fn colocation_heuristic_fires_via_beacons() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 0..10 {
            detector.observe(t(i), &beacon(legit(), &format!("venue-net-{i}")));
        }
        assert!(detector.is_flagged(legit()));
        assert!(detector.verdicts()[0]
            .reasons
            .contains(Reason::ImplausibleCoLocation));
    }

    #[test]
    fn legit_ap_baseline_never_flagged_at_standard() {
        // False-positive pin: a vendor-OUI AP beaconing one SSID at 100 TU
        // and answering only its own directed probes stays clean at
        // standard strictness, even with heavy client probing around it.
        let mut detector = Detector::new(DetectorSpec::standard());
        for i in 0..600u64 {
            detector.observe(t(i), &beacon(legit(), "CSL"));
            detector.observe(t(i), &broadcast(client((i % 7) as u8)));
            detector.observe(t(i), &direct(client((i % 7) as u8), "CSL"));
            detector.observe(t(i), &response(legit(), client((i % 7) as u8), "CSL"));
        }
        assert!(!detector.is_flagged(legit()));
        assert!(detector.verdicts().is_empty());
    }

    #[test]
    fn lenient_flags_less_than_paranoid() {
        let mut counts = Vec::new();
        for strictness in [
            Strictness::Lenient,
            Strictness::Standard,
            Strictness::Paranoid,
        ] {
            let mut detector = Detector::new(DetectorSpec::with_strictness(strictness));
            detector.observe(t(5), &direct(client(1), "HomeNet"));
            for i in 0..3 {
                detector.observe(t(6 + i), &response(legit(), client(2), "HomeNet"));
            }
            drive_cityhunter_burst(&mut detector, t(20), 12);
            counts.push(detector.flagged_count());
        }
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2]);
        // The rogue burst is caught everywhere; the replaying legit AP only
        // at paranoid.
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 2);
    }

    #[test]
    fn at_most_one_verdict_per_window() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        drive_cityhunter_burst(&mut detector, t(20), 12);
        assert_eq!(detector.verdicts().len(), 1);
        // A new window re-arms the verdict.
        drive_cityhunter_burst(&mut detector, t(70), 12);
        assert_eq!(detector.verdicts().len(), 2);
    }

    #[test]
    fn first_flag_time_sticks() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        // A later window re-flags the rogue; a flood flags a second AP.
        drive_cityhunter_burst(&mut detector, t(70), 12);
        for victim in 1..=DEAUTH_FLOOD_VICTIMS as u8 {
            let (at, frame) = deauth(80, legit(), victim);
            detector.observe(at, &frame);
        }
        assert_eq!(detector.verdicts().len(), 3);
        assert_eq!(detector.first_flag(rogue()), Some(t(10)));
        assert_eq!(detector.flagged_count(), 2);
        let mut flagged: Vec<_> = detector.flagged().collect();
        flagged.sort_by_key(|&(_, at)| at);
        assert_eq!(flagged, vec![(rogue(), t(10)), (legit(), t(80))]);
    }

    #[test]
    fn windowed_evidence_resets() {
        let mut detector = Detector::new(DetectorSpec::standard());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        let before = detector.profile(rogue()).unwrap().window_bait.len();
        assert!(before > 0);
        // One lone response in a later window: bait evidence starts over.
        detector.observe(t(130), &broadcast(client(1)));
        detector.observe(t(130), &response(rogue(), client(1), "net-0"));
        assert_eq!(detector.profile(rogue()).unwrap().window_bait.len(), 1);
    }

    #[test]
    fn disabled_detector_observes_nothing() {
        let mut detector = Detector::new(DetectorSpec::disabled());
        drive_cityhunter_burst(&mut detector, t(10), 12);
        assert_eq!(detector.frames_observed(), 0);
        assert_eq!(detector.flagged_count(), 0);
        assert!(DetectorSpec::disabled().is_disabled());
        assert!(!DetectorSpec::standard().is_disabled());
    }

    #[test]
    fn verdict_stream_is_deterministic() {
        let run = || {
            let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
            detector.observe(t(5), &direct(client(1), "HomeNet"));
            for i in 0..4 {
                detector.observe(t(6 + i), &response(rogue(), client(2), "HomeNet"));
            }
            drive_cityhunter_burst(&mut detector, t(30), 15);
            for i in 0..5 {
                detector.observe(t(40 + i), &beacon(legit(), "CSL"));
            }
            detector.verdicts().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    fn protecting(names: &[&str]) -> Detector {
        let db = SignatureDb {
            protected_ssids: names.iter().map(|n| ssid(n)).collect(),
            ..SignatureDb::standard()
        };
        Detector::with_db(DetectorSpec::standard(), db)
    }

    fn deauth(secs: u64, source: MacAddr, victim: u8) -> (SimTime, MgmtFrame) {
        (
            t(secs),
            MgmtFrame::Deauthentication(Deauthentication {
                source,
                destination: client(victim),
                reason: ch_wifi::mgmt::ReasonCode::PrevAuthExpired,
            }),
        )
    }

    fn flood_verdicts(detector: &Detector) -> Vec<DetectionVerdict> {
        detector
            .verdicts()
            .iter()
            .filter(|v| v.reasons.contains(Reason::DeauthFlood))
            .copied()
            .collect()
    }

    #[test]
    fn downgrade_fires_only_for_a_listed_ssid_offered_open() {
        // A clean vendor AP beaconing the listed SSID open: the downgrade
        // alone crosses the standard threshold.
        let mut detector = protecting(&["Corp"]);
        detector.observe(t(1), &beacon(legit(), "Open-Cafe"));
        assert!(detector.verdicts().is_empty());
        detector.observe(t(2), &beacon(legit(), "Corp"));
        let v = detector.verdicts()[0];
        assert_eq!(v.bssid, legit());
        assert_eq!(v.score, DOWNGRADE_POINTS);
        assert!(v.reasons.contains(Reason::SecurityDowngrade));
        // An open probe response of a listed SSID is the same tell.
        let mut responder = protecting(&["Corp"]);
        responder.observe(t(1), &response(legit(), client(1), "Corp"));
        assert!(responder.verdicts()[0]
            .reasons
            .contains(Reason::SecurityDowngrade));
        // The stock database lists nothing, so the same frames are clean.
        let mut stock = Detector::new(DetectorSpec::standard());
        stock.observe(t(2), &beacon(legit(), "Corp"));
        stock.observe(t(2), &response(legit(), client(1), "Corp"));
        assert!(stock.verdicts().is_empty());
    }

    #[test]
    fn protected_beacon_of_a_listed_ssid_is_no_downgrade() {
        let mut detector = protecting(&["Corp"]);
        let mut wpa2 = Beacon::open(legit(), ssid("Corp"), Channel::default());
        wpa2.capabilities = ch_wifi::mgmt::CapabilityInfo::protected_ap();
        for i in 0..30 {
            detector.observe(t(i), &MgmtFrame::Beacon(wpa2.clone()));
        }
        assert!(detector.verdicts().is_empty());
        assert!(!detector.profile(legit()).unwrap().downgrade);
    }

    #[test]
    fn deauth_flood_fires_once_per_source_at_n_victims() {
        let mut detector = Detector::new(DetectorSpec::standard());
        for victim in 1..DEAUTH_FLOOD_VICTIMS as u8 {
            let (at, frame) = deauth(u64::from(victim), legit(), victim);
            detector.observe(at, &frame);
        }
        assert!(detector.verdicts().is_empty(), "one victim short");
        let (at, frame) = deauth(10, legit(), DEAUTH_FLOOD_VICTIMS as u8);
        detector.observe(at, &frame);
        // The flood alone crosses the standard threshold and names the
        // deauthenticating source.
        let floods = flood_verdicts(&detector);
        assert_eq!(floods.len(), 1);
        assert_eq!(floods[0].bssid, legit());
        assert_eq!(floods[0].score, DEAUTH_FLOOD_POINTS);
        assert_eq!(floods[0].at, t(10));
        // Flooding on inside the window raises nothing new.
        for victim in 20..30 {
            let (at, frame) = deauth(20, legit(), victim);
            detector.observe(at, &frame);
        }
        assert_eq!(detector.verdicts().len(), 1);
    }

    #[test]
    fn deauth_flood_ignores_repeat_and_spread_out_victims() {
        // One victim deauthenticated over and over is an AP dropping a
        // client, not a flood.
        let mut repeats = Detector::new(DetectorSpec::standard());
        for i in 0..40 {
            let (at, frame) = deauth(i, legit(), 1);
            repeats.observe(at, &frame);
        }
        assert!(repeats.verdicts().is_empty());
        // N distinct victims, one per window: the count restarts each
        // window and never reaches N.
        let mut spread = Detector::new(DetectorSpec::standard());
        for victim in 0..3 * DEAUTH_FLOOD_VICTIMS as u8 {
            let (at, frame) = deauth(61 * u64::from(victim), legit(), victim);
            spread.observe(at, &frame);
        }
        assert!(spread.verdicts().is_empty());
    }

    #[test]
    fn deauth_flood_sources_count_independently() {
        let other = MacAddr::from_index([0x00, 0x90, 0x4c], 10);
        let mut detector = Detector::new(DetectorSpec::standard());
        // Both sources hit the same N − 1 victims: neither alone reached N.
        for victim in 1..DEAUTH_FLOOD_VICTIMS as u8 {
            for source in [legit(), other] {
                let (at, frame) = deauth(u64::from(victim), source, victim);
                detector.observe(at, &frame);
            }
        }
        assert!(detector.verdicts().is_empty());
        let (at, frame) = deauth(9, other, 99);
        detector.observe(at, &frame);
        let floods = flood_verdicts(&detector);
        assert_eq!(floods.len(), 1);
        assert_eq!(floods[0].bssid, other);
        assert!(!detector.is_flagged(legit()));
    }

    #[test]
    fn beaconing_responder_is_never_silent_but_still_co_located() {
        // A beaconing rogue answers 30 directed probes with 30 SSIDs over
        // three windows: the silent-responder tell stays quiet, the
        // co-location tell does not.
        let run = |beacons: bool| {
            let mut detector = Detector::new(DetectorSpec::standard());
            if beacons {
                detector.observe(t(0), &beacon(rogue(), "venue"));
            }
            for i in 0..30u64 {
                let name = format!("net-{i}");
                detector.observe(t(5 * i), &direct(client(1), &name));
                detector.observe(t(5 * i), &response(rogue(), client(1), &name));
            }
            detector.verdicts().to_vec()
        };
        let beaconing = run(true);
        assert!(beaconing
            .iter()
            .any(|v| v.reasons.contains(Reason::ImplausibleCoLocation)));
        assert!(beaconing
            .iter()
            .all(|v| !v.reasons.contains(Reason::SilentResponder)));
        // The same responder without a beacon does earn it.
        assert!(run(false)
            .iter()
            .any(|v| v.reasons.contains(Reason::SilentResponder)));
    }

    #[test]
    fn colocation_fires_once_at_threshold() {
        // A clean vendor AP beaconing ever more SSIDs: co-location is its
        // only tell, and alone it reaches the paranoid threshold.
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 1..COLOCATION_MIN as u64 {
            detector.observe(t(i), &beacon(legit(), &format!("venue-net-{i}")));
        }
        assert!(detector.verdicts().is_empty(), "one SSID short");
        let at = t(COLOCATION_MIN as u64);
        detector.observe(at, &beacon(legit(), "venue-net-last"));
        let v = detector.verdicts()[0];
        assert_eq!(v.at, at);
        assert_eq!(v.score, COLOCATION_POINTS);
        assert!(v.reasons.contains(Reason::ImplausibleCoLocation));
        assert_eq!(
            detector.profile(legit()).unwrap().advertised_ssids(),
            COLOCATION_MIN
        );
        // More SSIDs inside the window raise nothing new.
        detector.observe(at, &beacon(legit(), "venue-net-extra"));
        assert_eq!(detector.verdicts().len(), 1);
        assert_eq!(detector.first_flag(legit()), Some(at));
    }

    #[test]
    fn silent_responder_fires_at_min_responses_without_beacons() {
        // Answering its own client's directed probes, a clean vendor AP
        // scores silent responder (3) + rogue IE (1): the paranoid
        // threshold, reached on the 20th beaconless response.
        let answer = |detector: &mut Detector, i: u64| {
            detector.observe(t(i), &direct(client(1), "X"));
            detector.observe(t(i), &response(legit(), client(1), "X"));
        };
        let mut silent = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 1..20 {
            answer(&mut silent, i);
        }
        assert!(silent.verdicts().is_empty(), "one response short");
        answer(&mut silent, 20);
        assert_eq!(silent.verdicts().len(), 1);
        assert!(silent.verdicts()[0]
            .reasons
            .contains(Reason::SilentResponder));
        // The same AP beaconing once is never flagged, however long it
        // answers.
        let mut beaconing = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        beaconing.observe(t(0), &beacon(legit(), "X"));
        for i in 1..=50 {
            answer(&mut beaconing, i);
        }
        assert!(beaconing.verdicts().is_empty());
    }

    #[test]
    fn colocation_ignores_repeats_of_one_ssid() {
        let mut detector = Detector::new(DetectorSpec::with_strictness(Strictness::Paranoid));
        for i in 0..50 {
            detector.observe(t(i), &beacon(legit(), "SameNet"));
        }
        assert_eq!(detector.profile(legit()).unwrap().advertised_ssids(), 1);
        assert!(detector.verdicts().is_empty());
    }

    #[test]
    fn strictness_slugs_roundtrip() {
        for s in [
            Strictness::Off,
            Strictness::Lenient,
            Strictness::Standard,
            Strictness::Paranoid,
        ] {
            assert_eq!(Strictness::from_slug(s.slug()), Some(s));
        }
        assert_eq!(Strictness::from_slug("bogus"), None);
        assert!(Strictness::Off.threshold().is_none());
        assert!(Strictness::Paranoid.threshold() < Strictness::Lenient.threshold());
    }
}
