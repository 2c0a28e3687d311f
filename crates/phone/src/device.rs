//! The phone itself: identity, probing, and join decisions.

use ch_wifi::mgmt::{ProbeRequest, ProbeResponse};
use ch_wifi::{MacAddr, Ssid};

use crate::os::{OsKind, ProbePolicy};
use crate::pnl::Pnl;
use crate::scanner::ScanConfig;

/// How the phone manages its radio MAC across scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacMode {
    /// One stable MAC for the phone's lifetime (2017-era behaviour).
    Stable,
    /// A fresh locally-administered MAC for every scan round — the
    /// randomization modern OSes adopted *after* the paper, which breaks
    /// any per-client bookkeeping keyed on MAC (failure injection).
    PerScan,
}

/// What a phone does with an offered network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinDecision {
    /// Auto-join: the SSID is an open PNL entry and the offer is open.
    Join,
    /// Ignore: unknown SSID, protected entry, or already connected.
    Ignore,
}

/// A simulated smartphone.
#[derive(Debug, Clone, PartialEq)]
pub struct Phone {
    /// Stable simulation identity.
    pub id: u32,
    /// Current radio MAC address (stable, or rotating per scan).
    pub mac: MacAddr,
    /// MAC management policy.
    pub mac_mode: MacMode,
    /// Operating system family.
    pub os: OsKind,
    /// Preferred Network List.
    pub pnl: Pnl,
    /// Scan cadence.
    pub scan: ScanConfig,
    /// Group (companions) this phone's owner arrived with.
    pub group_id: u32,
    /// `true` if the radio is on and probing (phones with Wi-Fi off are
    /// invisible to every attacker and never appear in the counts).
    pub wifi_active: bool,
    /// `true` if the phone is already associated to a legitimate local AP —
    /// such clients "barely send out probe request frames" (§V-B) until
    /// deauthenticated.
    pub connected_locally: bool,
    /// The SSID the phone is currently associated to, if any.
    connected_ssid: Option<Ssid>,
    /// Cursor into the PNL for legacy direct-probe cycling.
    direct_cursor: usize,
    /// Scan counter (drives per-scan MAC derivation).
    scan_counter: u64,
}

impl Phone {
    /// Creates a phone; see [`crate::popgen::PopulationBuilder`] for the
    /// population-level constructor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        mac: MacAddr,
        os: OsKind,
        pnl: Pnl,
        scan: ScanConfig,
        group_id: u32,
        wifi_active: bool,
        connected_locally: bool,
    ) -> Self {
        Phone {
            id,
            mac,
            mac_mode: MacMode::Stable,
            os,
            pnl,
            scan,
            group_id,
            wifi_active,
            connected_locally,
            connected_ssid: None,
            direct_cursor: 0,
            scan_counter: 0,
        }
    }

    /// Switches the phone to per-scan MAC randomization.
    pub fn with_per_scan_mac(mut self) -> Self {
        self.mac_mode = MacMode::PerScan;
        self
    }

    /// `true` if the phone will emit probes when its scan timer fires.
    pub fn is_probing(&self) -> bool {
        self.wifi_active && !self.connected_locally && self.connected_ssid.is_none()
    }

    /// `true` if the phone is associated (locally or to an attacker).
    pub fn is_connected(&self) -> bool {
        self.connected_locally || self.connected_ssid.is_some()
    }

    /// The SSID the phone associated to (after a successful lure).
    pub fn connected_ssid(&self) -> Option<&Ssid> {
        self.connected_ssid.as_ref()
    }

    /// The probe requests emitted in one scan round: a broadcast probe,
    /// plus (for legacy devices) direct probes for the next few PNL
    /// entries, cycling through the list round by round.
    pub fn probes_for_scan(&mut self) -> Vec<ProbeRequest> {
        let mut probes = Vec::new();
        self.probes_for_scan_into(&mut probes);
        probes
    }

    /// [`probes_for_scan`](Self::probes_for_scan) into a caller-owned
    /// buffer — the zero-alloc variant hot loops use with a reused scratch
    /// vec. Clears `out` first; emits exactly the probes (and advances
    /// exactly the state) the allocating wrapper would.
    pub fn probes_for_scan_into(&mut self, out: &mut Vec<ProbeRequest>) {
        out.clear();
        if !self.is_probing() {
            return;
        }
        self.scan_counter += 1;
        if self.mac_mode == MacMode::PerScan {
            // Derive a fresh locally-administered MAC for this round.
            self.mac = MacAddr::randomized_from(
                (self.id as u64) << 24 ^ self.scan_counter.wrapping_mul(0x9e37_79b9),
            );
        }
        out.push(ProbeRequest::broadcast(self.mac));
        if let ProbePolicy::Direct { entries_per_scan } = self.os.probe_policy() {
            let n = self.pnl.len();
            for k in 0..entries_per_scan.min(n) {
                let entry = &self.pnl.entries()[(self.direct_cursor + k) % n];
                // A fixed-size inline Ssid copy, not a heap allocation.
                out.push(ProbeRequest::direct(self.mac, entry.ssid.clone())); // ch-lint: allow(hot-path-alloc)
            }
            if n > 0 {
                self.direct_cursor = (self.direct_cursor + entries_per_scan) % n;
            }
        }
    }

    /// Evaluates one offered network (a probe response): join iff the offer
    /// is open and the SSID is remembered as open.
    pub fn evaluate_offer(&self, response: &ProbeResponse) -> JoinDecision {
        if self.is_connected() || !self.wifi_active {
            return JoinDecision::Ignore;
        }
        if response.capabilities.privacy {
            // A protected twin would demand credentials; no auto-join.
            return JoinDecision::Ignore;
        }
        if self.pnl.would_autojoin_open(&response.ssid) {
            JoinDecision::Join
        } else {
            JoinDecision::Ignore
        }
    }

    /// Completes an association (after the auth/assoc handshake succeeds).
    pub fn connect_to(&mut self, ssid: Ssid) {
        self.connected_ssid = Some(ssid);
    }

    /// Handles a deauthentication aimed at this phone (§V-B): the phone
    /// drops its association and will scan again.
    pub fn handle_deauth(&mut self) {
        self.connected_ssid = None;
        self.connected_locally = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pnl::{PnlEntry, PnlOrigin};
    use ch_wifi::mgmt::CapabilityInfo;
    use ch_wifi::Channel;

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    fn phone(os: OsKind, pnl: Pnl) -> Phone {
        Phone::new(
            1,
            MacAddr::from_index([0xac, 0x12, 0x34], 1),
            os,
            pnl,
            ScanConfig::default_2017(),
            0,
            true,
            false,
        )
    }

    fn lure(name: &str) -> ProbeResponse {
        ProbeResponse::open_lure(
            MacAddr::from_index([0, 0, 9], 9),
            MacAddr::from_index([0xac, 0x12, 0x34], 1),
            ssid(name),
            Channel::default(),
        )
    }

    #[test]
    fn modern_phone_sends_single_broadcast() {
        let pnl = Pnl::from_entries([PnlEntry::open(ssid("A"), PnlOrigin::Public)]);
        let mut p = phone(OsKind::ModernAndroid, pnl);
        let probes = p.probes_for_scan();
        assert_eq!(probes.len(), 1);
        assert!(probes[0].is_broadcast());
    }

    #[test]
    fn legacy_phone_cycles_direct_probes() {
        let pnl = Pnl::from_entries([
            PnlEntry::open(ssid("A"), PnlOrigin::Public),
            PnlEntry::open(ssid("B"), PnlOrigin::Public),
            PnlEntry::protected(ssid("C"), PnlOrigin::Home),
            PnlEntry::open(ssid("D"), PnlOrigin::Public),
        ]);
        let mut p = phone(OsKind::LegacyDirect, pnl);
        let round1 = p.probes_for_scan();
        assert_eq!(round1.len(), 4); // broadcast + 3 direct
        let names1: Vec<_> = round1[1..]
            .iter()
            .map(|pr| pr.ssid.as_str().to_owned())
            .collect();
        assert_eq!(names1, ["A", "B", "C"]);
        let round2 = p.probes_for_scan();
        let names2: Vec<_> = round2[1..]
            .iter()
            .map(|pr| pr.ssid.as_str().to_owned())
            .collect();
        // Cursor advanced by 3, wraps over the 4-entry list.
        assert_eq!(names2, ["D", "A", "B"]);
    }

    #[test]
    fn join_only_open_remembered_networks() {
        let pnl = Pnl::from_entries([
            PnlEntry::open(ssid("FreeCafe"), PnlOrigin::Public),
            PnlEntry::protected(ssid("HomeNet"), PnlOrigin::Home),
        ]);
        let p = phone(OsKind::ModernIos, pnl);
        assert_eq!(p.evaluate_offer(&lure("FreeCafe")), JoinDecision::Join);
        assert_eq!(p.evaluate_offer(&lure("HomeNet")), JoinDecision::Ignore);
        assert_eq!(p.evaluate_offer(&lure("Stranger")), JoinDecision::Ignore);
    }

    #[test]
    fn protected_twin_not_joined() {
        let pnl = Pnl::from_entries([PnlEntry::open(ssid("X"), PnlOrigin::Public)]);
        let p = phone(OsKind::ModernIos, pnl);
        let mut offer = lure("X");
        offer.capabilities = CapabilityInfo::protected_ap();
        assert_eq!(p.evaluate_offer(&offer), JoinDecision::Ignore);
    }

    #[test]
    fn connected_phone_neither_probes_nor_joins() {
        let pnl = Pnl::from_entries([PnlEntry::open(ssid("X"), PnlOrigin::Public)]);
        let mut p = phone(OsKind::ModernAndroid, pnl);
        p.connect_to(ssid("X"));
        assert!(p.is_connected());
        assert!(!p.is_probing());
        assert!(p.probes_for_scan().is_empty());
        assert_eq!(p.evaluate_offer(&lure("X")), JoinDecision::Ignore);
    }

    #[test]
    fn locally_connected_silent_until_deauth() {
        let pnl = Pnl::from_entries([PnlEntry::open(ssid("X"), PnlOrigin::Public)]);
        let mut p = Phone::new(
            2,
            MacAddr::from_index([0xac, 0, 0], 2),
            OsKind::ModernAndroid,
            pnl,
            ScanConfig::default_2017(),
            0,
            true,
            true,
        );
        assert!(!p.is_probing());
        assert!(p.probes_for_scan().is_empty());
        p.handle_deauth();
        assert!(p.is_probing());
        assert_eq!(p.probes_for_scan().len(), 1);
    }

    #[test]
    fn wifi_off_phone_is_silent() {
        let pnl = Pnl::from_entries([PnlEntry::open(ssid("X"), PnlOrigin::Public)]);
        let mut p = Phone::new(
            3,
            MacAddr::from_index([0xac, 0, 0], 3),
            OsKind::ModernAndroid,
            pnl,
            ScanConfig::default_2017(),
            0,
            false,
            false,
        );
        assert!(!p.is_probing());
        assert!(p.probes_for_scan().is_empty());
        assert_eq!(p.evaluate_offer(&lure("X")), JoinDecision::Ignore);
    }

    #[test]
    fn probes_into_matches_the_allocating_wrapper() {
        let pnl = Pnl::from_entries([
            PnlEntry::open(ssid("A"), PnlOrigin::Public),
            PnlEntry::open(ssid("B"), PnlOrigin::Public),
            PnlEntry::open(ssid("C"), PnlOrigin::Public),
            PnlEntry::open(ssid("D"), PnlOrigin::Public),
        ]);
        let mut a = phone(OsKind::LegacyDirect, pnl.clone());
        let mut b = phone(OsKind::LegacyDirect, pnl);
        let mut buf = Vec::new();
        // Several rounds: the cursor state must advance identically, and
        // the buffer must be cleared (not appended) every round.
        for _ in 0..5 {
            a.probes_for_scan_into(&mut buf);
            assert_eq!(buf, b.probes_for_scan());
        }
        let cap = buf.capacity();
        a.probes_for_scan_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "steady state must not reallocate");
    }

    #[test]
    fn legacy_with_empty_pnl_sends_only_broadcast() {
        let mut p = phone(OsKind::LegacyDirect, Pnl::new());
        let probes = p.probes_for_scan();
        assert_eq!(probes.len(), 1);
        assert!(probes[0].is_broadcast());
    }
}

#[cfg(test)]
mod mac_mode_tests {
    use super::*;
    use crate::pnl::{Pnl, PnlEntry, PnlOrigin};

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    fn randomizing_phone() -> Phone {
        Phone::new(
            42,
            MacAddr::randomized_from(42),
            OsKind::ModernAndroid,
            Pnl::from_entries([PnlEntry::open(ssid("X"), PnlOrigin::Public)]),
            ScanConfig::default_2017(),
            0,
            true,
            false,
        )
        .with_per_scan_mac()
    }

    #[test]
    fn per_scan_mac_rotates_every_round() {
        let mut p = randomizing_phone();
        let m1 = p.probes_for_scan()[0].source;
        let m2 = p.probes_for_scan()[0].source;
        let m3 = p.probes_for_scan()[0].source;
        assert_ne!(m1, m2);
        assert_ne!(m2, m3);
        assert_ne!(m1, m3);
        for m in [m1, m2, m3] {
            assert!(m.is_locally_administered(), "{m}");
            assert!(!m.is_multicast(), "{m}");
        }
        // The phone's own notion of its MAC tracks the latest rotation.
        assert_eq!(p.mac, m3);
    }

    #[test]
    fn stable_mac_never_rotates() {
        let mut p = randomizing_phone();
        p.mac_mode = MacMode::Stable;
        let before = p.mac;
        let _ = p.probes_for_scan();
        let _ = p.probes_for_scan();
        assert_eq!(p.mac, before);
    }

    #[test]
    fn rotation_is_deterministic_per_phone_and_round() {
        let mut a = randomizing_phone();
        let mut b = randomizing_phone();
        assert_eq!(a.probes_for_scan()[0].source, b.probes_for_scan()[0].source);
    }
}
