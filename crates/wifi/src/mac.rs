//! 48-bit IEEE 802 MAC addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit MAC address.
///
/// The simulation uses MAC addresses the same way the paper's attacker does:
/// as the client identity key for the per-client "untried SSID" bookkeeping
/// (§III-A) and for the connected-client counts in every table.
///
/// ```
/// use ch_wifi::MacAddr;
/// let mac: MacAddr = "02:00:5e:10:00:01".parse()?;
/// assert!(mac.is_locally_administered());
/// assert!(!mac.is_broadcast());
/// # Ok::<(), ch_wifi::mac::ParseMacError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// The raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Deterministically derives a *globally unique* (OUI-style) address
    /// from an index; used to mint stable phone and AP identities.
    pub fn from_index(oui: [u8; 3], index: u32) -> Self {
        let [_, b1, b2, b3] = index.to_be_bytes();
        // Clear the multicast and locally-administered bits so the result
        // reads as a vendor-assigned address.
        MacAddr([oui[0] & 0b1111_1100, oui[1], oui[2], b1, b2, b3])
    }

    /// Derives a *locally administered* randomized address from an index,
    /// mimicking MAC-randomizing clients (set bit 1 of the first octet,
    /// clear the multicast bit).
    pub fn randomized_from(seed: u64) -> Self {
        let bytes = seed.to_be_bytes();
        let mut o = [bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7]];
        o[0] = (o[0] | 0b0000_0010) & !0b0000_0001;
        MacAddr(o)
    }

    /// `true` for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }

    /// `true` if the multicast (group) bit is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0b0000_0001 != 0
    }

    /// `true` if the locally-administered bit is set — the signature of a
    /// randomized client MAC.
    pub fn is_locally_administered(self) -> bool {
        self.0[0] & 0b0000_0010 != 0
    }

    /// The first three octets (organizationally unique identifier).
    pub fn oui(self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing a textual MAC address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError {
    input: String,
}

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMacError {
            input: s.to_owned(),
        };
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            if part.len() != 2 {
                return Err(err());
            }
            *slot = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        let text = mac.to_string();
        assert_eq!(text, "de:ad:be:ef:00:42");
        assert_eq!(text.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn parse_rejects_bad_inputs() {
        for bad in [
            "",
            "de:ad:be:ef:00",
            "de:ad:be:ef:00:42:11",
            "de:ad:be:ef:00:4",
            "zz:ad:be:ef:00:42",
            "dead:beef:0042",
        ] {
            assert!(bad.parse::<MacAddr>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::new([0; 6]).is_broadcast());
    }

    #[test]
    fn from_index_is_unicast_global_and_distinct() {
        let oui = [0xa4, 0x77, 0x33];
        let a = MacAddr::from_index(oui, 1);
        let b = MacAddr::from_index(oui, 2);
        assert_ne!(a, b);
        assert!(!a.is_multicast());
        assert!(!a.is_locally_administered());
        assert_eq!(a.oui()[1..], oui[1..]);
    }

    #[test]
    fn randomized_flags_set() {
        let mac = MacAddr::randomized_from(0xdead_beef_cafe);
        assert!(mac.is_locally_administered());
        assert!(!mac.is_multicast());
        assert_ne!(MacAddr::randomized_from(1), MacAddr::randomized_from(2));
    }

    /// Distinct values of `bits(finish)` over `keys`, and the count that
    /// uniformly random hashes reach in expectation: `m (1 - (1 - 1/m)^n)`
    /// for `m` possible values and `n` keys.
    fn spread(keys: &[MacAddr], bits: impl Fn(u64) -> u64, m: u32) -> (usize, f64) {
        use std::hash::{Hash, Hasher};
        let distinct: std::collections::BTreeSet<u64> = keys
            .iter()
            .map(|mac| {
                let mut h = ch_sim::collections::FxHasher::default();
                mac.hash(&mut h);
                bits(h.finish())
            })
            .collect();
        let m = f64::from(m);
        let random = m * (1.0 - (1.0 - 1.0 / m).powf(keys.len() as f64));
        (distinct.len(), random)
    }

    /// hashbrown buckets by the low bits and tags by the top 7: both must
    /// spread MACs that share an OUI about as well as random hashes do,
    /// so one vendor's clients never share a probe chain.
    #[test]
    fn same_oui_macs_spread_over_buckets_and_tags() {
        let oui = [0xac, 0x37, 0x43];
        let salt = 0x5a_3c_e1;
        let key_sets: [(&str, Vec<MacAddr>); 3] = [
            (
                "1,000 salted ids",
                (0..1_000)
                    .map(|i| MacAddr::from_index(oui, i ^ salt))
                    .collect(),
            ),
            (
                "4,096 sequential ids",
                (0..4_096).map(|i| MacAddr::from_index(oui, i)).collect(),
            ),
            (
                "256 last octets",
                (0..=255u8)
                    .map(|b| MacAddr::new([0xd1, 0x5c, 0x07, 0x00, 0x00, b]))
                    .collect(),
            ),
        ];
        for (name, keys) in &key_sets {
            let (buckets, random_buckets) = spread(keys, |h| h & 0xfff, 4_096);
            let (tags, random_tags) = spread(keys, |h| h >> 57, 128);
            assert!(
                buckets as f64 >= 0.9 * random_buckets,
                "{name}: {buckets} buckets of {random_buckets:.0} for random hashes"
            );
            assert!(
                tags as f64 >= 0.9 * random_tags,
                "{name}: {tags} tags of {random_tags:.0} for random hashes"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(octets in proptest::array::uniform6(0u8..)) {
            let mac = MacAddr::new(octets);
            prop_assert_eq!(mac.to_string().parse::<MacAddr>().unwrap(), mac);
        }

        #[test]
        fn prop_from_index_injective(a in 0u32..1_000_000, b in 0u32..1_000_000) {
            prop_assume!(a != b);
            let oui = [0x00, 0x11, 0x22];
            prop_assert_ne!(MacAddr::from_index(oui, a), MacAddr::from_index(oui, b));
        }
    }
}
