//! The KARMA attacker (Dai Zovi & Macaulay 2005).

use ch_sim::{CrashMode, SimTime};
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::{MacAddr, Ssid};

use crate::api::{direct_reply_into, Attacker, Lure};

/// KARMA: mimic whatever SSID a *direct* probe asks for; stay silent on
/// broadcast probes. Against a modern, broadcast-only population its
/// broadcast hit rate is zero by construction (Table I).
#[derive(Debug, Clone)]
pub struct KarmaAttacker {
    bssid: MacAddr,
    /// The mimic log, in first-seen order — all KARMA keeps between
    /// probes ([`crate::AttackerState::Karma`]).
    pub(crate) mimicked: Vec<Ssid>,
}

impl KarmaAttacker {
    /// Creates a KARMA attacker transmitting as `bssid`.
    pub fn new(bssid: MacAddr) -> Self {
        KarmaAttacker {
            bssid,
            mimicked: Vec::new(),
        }
    }

    /// Distinct SSIDs mimicked so far (diagnostics).
    pub fn mimic_count(&self) -> usize {
        self.mimicked.len()
    }
}

impl Attacker for KarmaAttacker {
    fn name(&self) -> &'static str {
        "KARMA"
    }

    fn bssid(&self) -> MacAddr {
        self.bssid
    }

    fn respond_to_probe_into(
        &mut self,
        _now: SimTime,
        probe: &ProbeRequest,
        _budget: usize,
        out: &mut Vec<Lure>,
    ) {
        if probe.is_broadcast() {
            // KARMA has nothing to say to a broadcast probe.
            out.clear();
        } else {
            if !self.mimicked.contains(&probe.ssid) {
                // Inline Ssid copy (no heap) into the mimic log, off the
                // hot path.
                // ch-lint: allow(ssid-clone, hot-path-alloc)
                self.mimicked.push(probe.ssid.clone());
            }
            direct_reply_into(probe, out);
        }
    }

    fn on_hit(&mut self, _now: SimTime, _client: MacAddr, _lure: &Lure) {}

    fn database_len(&self) -> usize {
        // KARMA keeps no database; report the mimic log for the curve.
        self.mimicked.len()
    }

    fn on_crash_restart(&mut self, _now: SimTime, _mode: CrashMode) {
        // KARMA is stateless as an attacker; only the diagnostic mimic
        // log dies with the process.
        self.mimicked.clear();
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

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    #[test]
    fn silent_on_broadcast() {
        let mut karma = KarmaAttacker::new(mac(9));
        let probe = ProbeRequest::broadcast(mac(1));
        assert!(karma.respond_to_probe(SimTime::ZERO, &probe, 40).is_empty());
        assert_eq!(karma.database_len(), 0);
    }

    #[test]
    fn mimics_direct_probes() {
        let mut karma = KarmaAttacker::new(mac(9));
        let probe = ProbeRequest::direct(mac(1), Ssid::new("AP123").unwrap());
        let lures = karma.respond_to_probe(SimTime::ZERO, &probe, 40);
        assert_eq!(lures.len(), 1);
        assert_eq!(lures[0].ssid.as_str(), "AP123");
        // Repeats don't double-count the mimic log.
        karma.respond_to_probe(SimTime::ZERO, &probe, 40);
        assert_eq!(karma.mimic_count(), 1);
        assert_eq!(karma.name(), "KARMA");
        assert_eq!(karma.bssid(), mac(9));
        assert!(!karma.deauth_enabled());
    }
}
