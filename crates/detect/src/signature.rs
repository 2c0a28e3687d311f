//! Layer 1 — the declarative signature database.
//!
//! Real rogue-AP monitors ship a list of *static* tells: vendor OUIs used
//! by attack tooling, bait SSID wording, beacon intervals no stock firmware
//! uses, and the minimal information-element set karma-style responders
//! emit. Each [`SignatureRule`] scores one such tell against the running
//! [`ApProfile`] an observer accumulates per
//! BSSID; the detector sums rule scores into the signature half of an AP's
//! suspicion score.

use ch_wifi::mac::MacAddr;
use ch_wifi::ssid::Ssid;

use crate::detector::ApProfile;
use crate::verdict::{Reason, ReasonSet};

/// IE fingerprint (see [`ch_wifi::ie::fingerprint`]) of the classic
/// karma-style minimal probe response: SSID + rates + DS parameter, open
/// (no RSN), no vendor elements.
pub const ROGUE_MINIMAL_IE: u8 = ch_wifi::ie::FP_SSID | ch_wifi::ie::FP_RATES | ch_wifi::ie::FP_DS;

/// A case-insensitive SSID text matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsidPattern {
    /// SSID contains the needle anywhere (ASCII case-insensitive).
    Contains(&'static str),
    /// SSID starts with the needle (ASCII case-insensitive).
    Prefix(&'static str),
}

impl SsidPattern {
    /// `true` if `ssid` matches this pattern.
    pub fn matches(&self, ssid: &Ssid) -> bool {
        let hay = ssid.as_bytes();
        match self {
            SsidPattern::Contains(needle) => contains_ignore_case(hay, needle.as_bytes()),
            SsidPattern::Prefix(needle) => starts_ignore_case(hay, needle.as_bytes()),
        }
    }
}

fn starts_ignore_case(hay: &[u8], needle: &[u8]) -> bool {
    hay.len() >= needle.len() && hay[..needle.len()].eq_ignore_ascii_case(needle)
}

fn contains_ignore_case(hay: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if hay.len() < needle.len() {
        return false;
    }
    hay.windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

/// One declarative detection signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureRule {
    /// The BSSID's OUI appears on a known-rogue-tooling denylist.
    OuiDenylist {
        /// Weight added to the suspicion score when the rule fires.
        weight: u32,
    },
    /// The BSSID has the locally-administered bit set — no vendor assigned
    /// it, which no infrastructure AP does.
    LocallyAdministeredBssid {
        /// Weight added when the rule fires.
        weight: u32,
    },
    /// The AP advertised an SSID matching known bait wording.
    BaitSsid {
        /// Weight added when the rule fires.
        weight: u32,
    },
    /// A beacon interval outside the `[min_tu, max_tu]` range stock
    /// firmware uses (standard is 100 TU).
    BeaconIntervalOutside {
        /// Lowest plausible interval, in time units.
        min_tu: u16,
        /// Highest plausible interval, in time units.
        max_tu: u16,
        /// Weight added when the rule fires.
        weight: u32,
    },
    /// The AP has answered at least `min_responses` probes without ever
    /// beaconing — a responder hiding from passive scans.
    SilentResponder {
        /// Responses required before the rule fires.
        min_responses: u64,
        /// Weight added when the rule fires.
        weight: u32,
    },
    /// A probe response carried exactly the karma-style minimal IE set
    /// ([`ROGUE_MINIMAL_IE`]).
    RogueIeFingerprint {
        /// Weight added when the rule fires.
        weight: u32,
    },
}

impl SignatureRule {
    /// The verdict reason this rule contributes when it fires.
    pub fn reason(&self) -> Reason {
        match self {
            SignatureRule::OuiDenylist { .. } => Reason::DenylistedOui,
            SignatureRule::LocallyAdministeredBssid { .. } => Reason::LocallyAdministeredBssid,
            SignatureRule::BaitSsid { .. } => Reason::BaitSsid,
            SignatureRule::BeaconIntervalOutside { .. } => Reason::OddBeaconInterval,
            SignatureRule::SilentResponder { .. } => Reason::SilentResponder,
            SignatureRule::RogueIeFingerprint { .. } => Reason::RogueIeFingerprint,
        }
    }

    /// The score this rule contributes for `profile` (0 when it does not
    /// fire).
    pub fn score(&self, profile: &ApProfile) -> u32 {
        match *self {
            SignatureRule::OuiDenylist { weight } => {
                if profile.denylisted_oui {
                    weight
                } else {
                    0
                }
            }
            SignatureRule::LocallyAdministeredBssid { weight } => {
                if profile.locally_administered {
                    weight
                } else {
                    0
                }
            }
            SignatureRule::BaitSsid { weight } => {
                if profile.bait_ssid {
                    weight
                } else {
                    0
                }
            }
            SignatureRule::BeaconIntervalOutside {
                min_tu,
                max_tu,
                weight,
            } => match profile.beacon_interval_range {
                Some((lo, hi)) if lo < min_tu || hi > max_tu => weight,
                _ => 0,
            },
            SignatureRule::SilentResponder {
                min_responses,
                weight,
            } => {
                if profile.beacons == 0 && profile.responses >= min_responses {
                    weight
                } else {
                    0
                }
            }
            SignatureRule::RogueIeFingerprint { weight } => {
                if profile.rogue_ie {
                    weight
                } else {
                    0
                }
            }
        }
    }
}

/// The declarative signature database the detector evaluates per AP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureDb {
    /// OUIs attributed to rogue tooling (after the vendor-bit masking
    /// [`MacAddr::from_index`] applies).
    pub oui_denylist: Vec<[u8; 3]>,
    /// Bait SSID wording.
    pub bait_patterns: Vec<SsidPattern>,
    /// SSIDs the defended clients know as protected (WPA2): an AP offering
    /// one open is an evil twin downgrading the network. Empty in the
    /// stock database, which knows no client's networks.
    pub protected_ssids: Vec<Ssid>,
    /// Active rules.
    pub rules: Vec<SignatureRule>,
}

impl SignatureDb {
    /// The stock database: the denylisted attack-tool OUI this workspace's
    /// attackers mint their BSSIDs from, common free-WiFi bait wording, and
    /// one rule per signature class.
    pub fn standard() -> Self {
        SignatureDb {
            // 0x0a is masked to 0x08 on the wire by `MacAddr::from_index`.
            oui_denylist: vec![[0x08, 0xbc, 0xde], [0x02, 0x1a, 0x11]],
            bait_patterns: vec![
                SsidPattern::Contains("free wifi"),
                SsidPattern::Contains("free public"),
                SsidPattern::Contains("open wifi"),
                SsidPattern::Prefix("freewifi"),
            ],
            protected_ssids: Vec::new(),
            rules: vec![
                SignatureRule::OuiDenylist { weight: 4 },
                SignatureRule::LocallyAdministeredBssid { weight: 3 },
                SignatureRule::BaitSsid { weight: 2 },
                SignatureRule::BeaconIntervalOutside {
                    min_tu: 90,
                    max_tu: 110,
                    weight: 2,
                },
                SignatureRule::SilentResponder {
                    min_responses: 20,
                    weight: 3,
                },
                SignatureRule::RogueIeFingerprint { weight: 1 },
            ],
        }
    }

    /// `true` if `oui` is denylisted.
    pub fn oui_denylisted(&self, oui: [u8; 3]) -> bool {
        self.oui_denylist.contains(&oui)
    }

    /// `true` if `ssid` matches any bait pattern.
    pub fn matches_bait(&self, ssid: &Ssid) -> bool {
        self.bait_patterns.iter().any(|p| p.matches(ssid))
    }

    /// `true` if `ssid` is on the protected list.
    pub fn is_protected(&self, ssid: &Ssid) -> bool {
        self.protected_ssids.contains(ssid)
    }

    /// `true` if `bssid` trips either MAC-level signature.
    pub fn suspicious_bssid(&self, bssid: MacAddr) -> bool {
        bssid.is_locally_administered() || self.oui_denylisted(bssid.oui())
    }

    /// Total signature score and contributing reasons for `profile`.
    pub fn score(&self, profile: &ApProfile) -> (u32, ReasonSet) {
        let mut score = 0;
        let mut reasons = ReasonSet::empty();
        for rule in &self.rules {
            let s = rule.score(profile);
            if s > 0 {
                score += s;
                reasons.insert(rule.reason());
            }
        }
        (score, reasons)
    }
}

impl Default for SignatureDb {
    fn default() -> Self {
        SignatureDb::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    #[test]
    fn patterns_match_case_insensitively() {
        assert!(SsidPattern::Contains("free wifi").matches(&ssid("#HKAirport Free WiFi")));
        assert!(SsidPattern::Contains("free wifi").matches(&ssid("FREE WIFI")));
        assert!(!SsidPattern::Contains("free wifi").matches(&ssid("CSL")));
        assert!(SsidPattern::Prefix("freewifi").matches(&ssid("FreeWifi-HK")));
        assert!(!SsidPattern::Prefix("freewifi").matches(&ssid("HK FreeWifi")));
        assert!(SsidPattern::Contains("").matches(&ssid("anything")));
        assert!(!SsidPattern::Contains("longer than hay").matches(&ssid("hay")));
    }

    #[test]
    fn standard_db_denylists_the_attack_oui() {
        let db = SignatureDb::standard();
        // The canonical attacker BSSID as minted by the workspace.
        let rogue = MacAddr::from_index([0x0a, 0xbc, 0xde], 1);
        assert!(db.oui_denylisted(rogue.oui()));
        assert!(db.suspicious_bssid(rogue));
        let legit = MacAddr::from_index([0x00, 0x90, 0x4c], 77);
        assert!(!db.suspicious_bssid(legit));
    }

    #[test]
    fn bait_wording_matches() {
        let db = SignatureDb::standard();
        assert!(db.matches_bait(&ssid("Free Public WiFi")));
        assert!(db.matches_bait(&ssid("#HKAirport Free WiFi")));
        assert!(!db.matches_bait(&ssid("CSL")));
    }
}
