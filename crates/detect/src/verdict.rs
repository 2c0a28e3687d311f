//! Scored detection verdicts and their reason codes.

use std::fmt;

use ch_sim::SimTime;
use ch_wifi::mac::MacAddr;

/// Why an AP was flagged. Each variant is one bit of a [`ReasonSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Reason {
    /// BSSID OUI on the rogue-tooling denylist.
    DenylistedOui = 1 << 0,
    /// BSSID carries the locally-administered bit.
    LocallyAdministeredBssid = 1 << 1,
    /// Advertised an SSID matching bait wording.
    BaitSsid = 1 << 2,
    /// Beaconed at an interval stock firmware does not use.
    OddBeaconInterval = 1 << 3,
    /// Answers probes but never beacons.
    SilentResponder = 1 << 4,
    /// Probe responses carry the karma-style minimal IE set.
    RogueIeFingerprint = 1 << 5,
    /// Answered broadcast probes with many distinct directed SSIDs — the
    /// City-Hunter tell.
    BroadcastBait = 1 << 6,
    /// Advertised an SSID another client had just probed for — replaying a
    /// harvested PNL.
    PnlReplay = 1 << 7,
    /// One BSSID advertising implausibly many distinct SSIDs.
    ImplausibleCoLocation = 1 << 8,
    /// Offered an SSID on the protected list as an open network — the
    /// evil-twin downgrade.
    SecurityDowngrade = 1 << 9,
    /// Deauthenticated many distinct clients in one evidence window — the
    /// §V-B forced-rescan flood (Bellardo & Savage 2003).
    DeauthFlood = 1 << 10,
}

/// All reasons, in bit order (stable for rendering).
pub const ALL_REASONS: [Reason; 11] = [
    Reason::DenylistedOui,
    Reason::LocallyAdministeredBssid,
    Reason::BaitSsid,
    Reason::OddBeaconInterval,
    Reason::SilentResponder,
    Reason::RogueIeFingerprint,
    Reason::BroadcastBait,
    Reason::PnlReplay,
    Reason::ImplausibleCoLocation,
    Reason::SecurityDowngrade,
    Reason::DeauthFlood,
];

impl Reason {
    /// Short stable slug used in rendered verdicts.
    pub fn slug(self) -> &'static str {
        match self {
            Reason::DenylistedOui => "denylisted-oui",
            Reason::LocallyAdministeredBssid => "local-admin-bssid",
            Reason::BaitSsid => "bait-ssid",
            Reason::OddBeaconInterval => "odd-beacon-interval",
            Reason::SilentResponder => "silent-responder",
            Reason::RogueIeFingerprint => "rogue-ie-fingerprint",
            Reason::BroadcastBait => "broadcast-bait",
            Reason::PnlReplay => "pnl-replay",
            Reason::ImplausibleCoLocation => "implausible-co-location",
            Reason::SecurityDowngrade => "security-downgrade",
            Reason::DeauthFlood => "deauth-flood",
        }
    }
}

/// A set of [`Reason`]s, packed into one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ReasonSet(u16);

impl ReasonSet {
    /// The empty set.
    pub fn empty() -> Self {
        ReasonSet(0)
    }

    /// Adds a reason.
    pub fn insert(&mut self, reason: Reason) {
        self.0 |= reason as u16;
    }

    /// `true` if `reason` is in the set.
    pub fn contains(self, reason: Reason) -> bool {
        self.0 & reason as u16 != 0
    }

    /// `true` if no reason is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of reasons set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Reasons in stable bit order.
    pub fn iter(self) -> impl Iterator<Item = Reason> {
        ALL_REASONS.into_iter().filter(move |r| self.contains(*r))
    }

    /// The raw bits (for compact serialization).
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Reconstructs a set from raw bits (unknown bits are dropped).
    pub fn from_bits(bits: u16) -> Self {
        let mut set = ReasonSet::empty();
        for r in ALL_REASONS {
            if bits & r as u16 != 0 {
                set.insert(r);
            }
        }
        set
    }
}

impl fmt::Display for ReasonSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        for reason in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{}", reason.slug())?;
            first = false;
        }
        Ok(())
    }
}

/// One scored detection event: at `at`, the AP `bssid` crossed the active
/// strictness threshold with `score` suspicion points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectionVerdict {
    /// When the threshold was crossed.
    pub at: SimTime,
    /// The flagged AP.
    pub bssid: MacAddr,
    /// Total suspicion score at the crossing.
    pub score: u32,
    /// Contributing signals.
    pub reasons: ReasonSet,
}

impl fmt::Display for DetectionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={}s rogue-ap {} score {} [{}]",
            self.at.as_secs(),
            self.bssid,
            self.score,
            self.reasons
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_set_roundtrips_bits() {
        let mut set = ReasonSet::empty();
        set.insert(Reason::DenylistedOui);
        set.insert(Reason::BroadcastBait);
        assert_eq!(ReasonSet::from_bits(set.bits()), set);
        assert_eq!(set.len(), 2);
        assert!(set.contains(Reason::BroadcastBait));
        assert!(!set.contains(Reason::PnlReplay));
        assert_eq!(set.to_string(), "denylisted-oui+broadcast-bait");
        assert_eq!(ReasonSet::empty().to_string(), "-");
        // Unknown bits (11–15) are dropped.
        assert!(ReasonSet::from_bits(0b1111_1000_0000_0000).is_empty());
        let mut new = ReasonSet::empty();
        new.insert(Reason::SecurityDowngrade);
        new.insert(Reason::DeauthFlood);
        assert_eq!(ReasonSet::from_bits(new.bits()), new);
        assert_eq!(new.to_string(), "security-downgrade+deauth-flood");
    }

    #[test]
    fn verdict_renders_compactly() {
        let v = DetectionVerdict {
            at: SimTime::from_secs(90),
            bssid: MacAddr::new([8, 0xbc, 0xde, 0, 0, 1]),
            score: 14,
            reasons: ReasonSet::from_bits(Reason::BroadcastBait as u16),
        };
        let text = v.to_string();
        assert!(text.contains("t=90s"));
        assert!(text.contains("score 14"));
        assert!(text.contains("broadcast-bait"));
    }
}
