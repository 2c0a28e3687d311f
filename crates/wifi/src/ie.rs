//! 802.11 information elements (IEs).
//!
//! Management-frame bodies are mostly a sequence of tagged elements:
//! `| id (1) | len (1) | payload (len) |`. This module models the elements
//! the City-Hunter ecosystem touches: the SSID element (the payload of the
//! whole attack), supported rates, the DS parameter set (channel), the RSN
//! element (whose *presence* marks a protected network — a lure SSID only
//! works if the victim's PNL entry is open), and the vendor escape hatch.

use std::fmt;

use crate::channel::Channel;
use crate::ssid::{Ssid, MAX_SSID_LEN};

/// Element IDs used on the wire.
pub mod element_id {
    /// SSID element.
    pub const SSID: u8 = 0;
    /// Supported rates element.
    pub const SUPPORTED_RATES: u8 = 1;
    /// DS parameter set (current channel).
    pub const DS_PARAMETER: u8 = 3;
    /// RSN (WPA2) element.
    pub const RSN: u8 = 48;
    /// Vendor-specific element.
    pub const VENDOR: u8 = 221;
}

/// The basic-rate set every 2.4 GHz AP advertises (values in 500 kb/s
/// units; high bit marks a basic rate). 1, 2, 5.5 and 11 Mb/s.
pub const DEFAULT_RATES: [u8; 4] = [0x82, 0x84, 0x8b, 0x96];

/// Fingerprint bit: an SSID element is present.
pub const FP_SSID: u8 = 1 << 0;
/// Fingerprint bit: a supported-rates element is present.
pub const FP_RATES: u8 = 1 << 1;
/// Fingerprint bit: a DS parameter element is present.
pub const FP_DS: u8 = 1 << 2;
/// Fingerprint bit: an RSN element is present.
pub const FP_RSN: u8 = 1 << 3;
/// Fingerprint bit: a vendor element is present.
pub const FP_VENDOR: u8 = 1 << 4;
/// Fingerprint bit: an uninterpreted element is present.
pub const FP_UNKNOWN: u8 = 1 << 5;

/// Compact IE-set fingerprint of an element list — which element classes
/// are present, as a bitmask of the `FP_*` bits. Rogue-AP detectors use
/// this as a cheap firmware fingerprint: karma-style responders emit
/// exactly `FP_SSID | FP_RATES | FP_DS`, while stock APs add vendor
/// elements and (when protected) RSN.
pub fn fingerprint(elements: &[InformationElement]) -> u8 {
    let mut mask = 0;
    for element in elements {
        mask |= match element {
            InformationElement::Ssid(_) => FP_SSID,
            InformationElement::SupportedRates(_) => FP_RATES,
            InformationElement::DsParameter(_) => FP_DS,
            InformationElement::Rsn(_) => FP_RSN,
            InformationElement::Vendor { .. } => FP_VENDOR,
            InformationElement::Unknown { .. } => FP_UNKNOWN,
        };
    }
    mask
}

/// Simplified RSN (WPA2-Personal) parameters.
///
/// Only the cipher/AKM identities matter to the simulation: a protected
/// network in a PNL cannot be auto-joined by offering an open twin, which
/// is why the attacker pre-filters WiGLE SSIDs down to *free* APs (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RsnInfo {
    /// Pairwise cipher is CCMP (vs TKIP).
    pub ccmp: bool,
    /// AKM is PSK (vs 802.1X).
    pub psk: bool,
}

/// One parsed information element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InformationElement {
    /// SSID element; wildcard (empty) in broadcast probe requests.
    Ssid(Ssid),
    /// Supported-rates element (1–8 rate bytes).
    SupportedRates(Vec<u8>),
    /// DS parameter set: the current channel.
    DsParameter(Channel),
    /// RSN element — present iff the network is WPA2-protected.
    Rsn(RsnInfo),
    /// Vendor-specific element (OUI + opaque body).
    Vendor {
        /// Organizationally unique identifier of the vendor.
        oui: [u8; 3],
        /// Opaque vendor payload.
        data: Vec<u8>,
    },
    /// Any element this model does not interpret; preserved verbatim so
    /// parse/encode round-trips.
    Unknown {
        /// Raw element ID.
        id: u8,
        /// Raw payload.
        data: Vec<u8>,
    },
}

/// One information element as parsed from a buffer: validated exactly as
/// [`InformationElement::parse_all`] validates it, but every
/// variable-length payload borrows the buffer instead of copying it, and
/// the SSID is an inline [`Ssid`] — so parsing one allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementRef<'a> {
    /// SSID element; wildcard (empty) in broadcast probe requests.
    Ssid(Ssid),
    /// Supported-rates element (the raw rate bytes).
    SupportedRates(&'a [u8]),
    /// DS parameter set: the current channel.
    DsParameter(Channel),
    /// RSN element.
    Rsn(RsnInfo),
    /// Vendor-specific element (OUI + opaque body).
    Vendor {
        /// Organizationally unique identifier of the vendor.
        oui: [u8; 3],
        /// Opaque vendor payload.
        data: &'a [u8],
    },
    /// Any element this model does not interpret.
    Unknown {
        /// Raw element ID.
        id: u8,
        /// Raw payload.
        data: &'a [u8],
    },
}

impl<'a> ElementRef<'a> {
    /// Parses and validates one element's payload.
    fn parse(id: u8, payload: &'a [u8]) -> Result<Self, IeError> {
        Ok(match id {
            element_id::SSID => {
                if payload.len() > MAX_SSID_LEN {
                    return Err(IeError::OversizedSsid { len: payload.len() });
                }
                let text = std::str::from_utf8(payload).map_err(|_| IeError::NonUtf8Ssid)?;
                ElementRef::Ssid(
                    Ssid::new(text).map_err(|_| IeError::OversizedSsid { len: payload.len() })?,
                )
            }
            element_id::SUPPORTED_RATES => ElementRef::SupportedRates(payload),
            element_id::DS_PARAMETER => {
                let number = *payload.first().ok_or(IeError::BadChannel { number: 0 })?;
                ElementRef::DsParameter(
                    Channel::new(number).map_err(|_| IeError::BadChannel { number })?,
                )
            }
            element_id::RSN => {
                let flags = payload.get(2).copied().unwrap_or(0);
                ElementRef::Rsn(RsnInfo {
                    ccmp: flags & 1 != 0,
                    psk: flags & 2 != 0,
                })
            }
            element_id::VENDOR => match payload {
                [a, b, c, data @ ..] => ElementRef::Vendor {
                    oui: [*a, *b, *c],
                    data,
                },
                _ => return Err(IeError::ShortVendor),
            },
            other => ElementRef::Unknown {
                id: other,
                data: payload,
            },
        })
    }

    /// The owned element, payloads copied out of the buffer.
    fn into_owned(self) -> InformationElement {
        match self {
            ElementRef::Ssid(ssid) => InformationElement::Ssid(ssid),
            ElementRef::SupportedRates(rates) => InformationElement::SupportedRates(rates.to_vec()),
            ElementRef::DsParameter(channel) => InformationElement::DsParameter(channel),
            ElementRef::Rsn(rsn) => InformationElement::Rsn(rsn),
            ElementRef::Vendor { oui, data } => InformationElement::Vendor {
                oui,
                data: data.to_vec(),
            },
            ElementRef::Unknown { id, data } => InformationElement::Unknown {
                id,
                data: data.to_vec(),
            },
        }
    }
}

/// Error parsing an information element stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IeError {
    /// Element length field runs past the end of the buffer.
    Truncated {
        /// Element ID whose payload was cut short.
        id: u8,
        /// Length the element claimed.
        claimed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// An SSID element longer than 32 bytes.
    OversizedSsid {
        /// Claimed SSID length.
        len: usize,
    },
    /// An SSID element that is not valid UTF-8 (a model restriction; real
    /// 802.11 allows arbitrary octets, but every SSID in this study is
    /// textual).
    NonUtf8Ssid,
    /// A DS parameter element with a bad channel number.
    BadChannel {
        /// The invalid channel number.
        number: u8,
    },
    /// A vendor element too short to carry its OUI.
    ShortVendor,
}

impl fmt::Display for IeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IeError::Truncated {
                id,
                claimed,
                available,
            } => write!(
                f,
                "element {id} claims {claimed} bytes but only {available} remain"
            ),
            IeError::OversizedSsid { len } => {
                write!(f, "ssid element of {len} bytes exceeds {MAX_SSID_LEN}")
            }
            IeError::NonUtf8Ssid => write!(f, "ssid element is not valid utf-8"),
            IeError::BadChannel { number } => {
                write!(f, "ds parameter carries invalid channel {number}")
            }
            IeError::ShortVendor => write!(f, "vendor element shorter than its oui"),
        }
    }
}

impl std::error::Error for IeError {}

impl InformationElement {
    /// The wire element ID.
    pub fn id(&self) -> u8 {
        match self {
            InformationElement::Ssid(_) => element_id::SSID,
            InformationElement::SupportedRates(_) => element_id::SUPPORTED_RATES,
            InformationElement::DsParameter(_) => element_id::DS_PARAMETER,
            InformationElement::Rsn(_) => element_id::RSN,
            InformationElement::Vendor { .. } => element_id::VENDOR,
            InformationElement::Unknown { id, .. } => *id,
        }
    }

    /// Appends `| id | len | payload |` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.id());
        match self {
            InformationElement::Ssid(ssid) => {
                out.push(ssid.len() as u8);
                out.extend_from_slice(ssid.as_bytes());
            }
            InformationElement::SupportedRates(rates) => {
                out.push(rates.len() as u8);
                out.extend_from_slice(rates);
            }
            InformationElement::DsParameter(channel) => {
                out.push(1);
                out.push(channel.number());
            }
            InformationElement::Rsn(rsn) => {
                // Compact model encoding: version (2) + flags (1).
                out.push(3);
                out.extend_from_slice(&1u16.to_le_bytes());
                out.push(u8::from(rsn.ccmp) | (u8::from(rsn.psk) << 1));
            }
            InformationElement::Vendor { oui, data } => {
                out.push((3 + data.len()) as u8);
                out.extend_from_slice(oui);
                out.extend_from_slice(data);
            }
            InformationElement::Unknown { data, .. } => {
                out.push(data.len() as u8);
                out.extend_from_slice(data);
            }
        }
    }

    /// Parses every element in `bytes`.
    ///
    /// # Errors
    ///
    /// Any [`IeError`] on malformed input.
    pub fn parse_all(bytes: &[u8]) -> Result<Vec<InformationElement>, IeError> {
        let mut elements = Vec::new();
        Self::parse_each(bytes, |element| elements.push(element.into_owned()))?;
        Ok(elements)
    }

    /// Parses and validates every element in `bytes` like
    /// [`parse_all`](Self::parse_all), handing each to `visit` in wire
    /// order as a borrowed [`ElementRef`] instead of collecting owned
    /// elements: nothing is allocated.
    ///
    /// # Errors
    ///
    /// Any [`IeError`] on malformed input; the elements before it have
    /// been visited.
    pub fn parse_each<'a>(
        mut bytes: &'a [u8],
        mut visit: impl FnMut(ElementRef<'a>),
    ) -> Result<(), IeError> {
        while !bytes.is_empty() {
            if bytes.len() < 2 {
                return Err(IeError::Truncated {
                    id: bytes[0],
                    claimed: 1,
                    available: 0,
                });
            }
            let id = bytes[0];
            let len = bytes[1] as usize;
            if bytes.len() < 2 + len {
                return Err(IeError::Truncated {
                    id,
                    claimed: len,
                    available: bytes.len() - 2,
                });
            }
            let payload = &bytes[2..2 + len];
            visit(ElementRef::parse(id, payload)?);
            bytes = &bytes[2 + len..];
        }
        Ok(())
    }

    /// Finds the first SSID element in a parsed list.
    pub fn find_ssid(elements: &[InformationElement]) -> Option<&Ssid> {
        elements.iter().find_map(|e| match e {
            InformationElement::Ssid(ssid) => Some(ssid),
            _ => None,
        })
    }

    /// `true` if the list carries an RSN element (protected network).
    pub fn has_rsn(elements: &[InformationElement]) -> bool {
        elements
            .iter()
            .any(|e| matches!(e, InformationElement::Rsn(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(elements: &[InformationElement]) -> Vec<InformationElement> {
        let mut buf = Vec::new();
        for e in elements {
            e.encode_into(&mut buf);
        }
        InformationElement::parse_all(&buf).unwrap()
    }

    #[test]
    fn ssid_element_roundtrip() {
        let e = vec![InformationElement::Ssid(
            Ssid::new("#HKAirport Free WiFi").unwrap(),
        )];
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn wildcard_ssid_is_zero_length() {
        let mut buf = Vec::new();
        InformationElement::Ssid(Ssid::wildcard()).encode_into(&mut buf);
        assert_eq!(buf, vec![element_id::SSID, 0]);
    }

    #[test]
    fn mixed_elements_roundtrip() {
        let e = vec![
            InformationElement::Ssid(Ssid::new("CSL").unwrap()),
            InformationElement::SupportedRates(DEFAULT_RATES.to_vec()),
            InformationElement::DsParameter(Channel::new(6).unwrap()),
            InformationElement::Rsn(RsnInfo {
                ccmp: true,
                psk: true,
            }),
            InformationElement::Vendor {
                oui: [0x00, 0x50, 0xf2],
                data: vec![1, 2, 3],
            },
            InformationElement::Unknown {
                id: 7,
                data: vec![b'H', b'K'],
            },
        ];
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn truncated_stream_rejected() {
        let buf = vec![element_id::SSID, 5, b'a', b'b'];
        let err = InformationElement::parse_all(&buf).unwrap_err();
        assert_eq!(
            err,
            IeError::Truncated {
                id: 0,
                claimed: 5,
                available: 2
            }
        );
        assert!(InformationElement::parse_all(&[element_id::SSID]).is_err());
    }

    #[test]
    fn oversized_ssid_rejected() {
        let mut buf = vec![element_id::SSID, 33];
        buf.extend(std::iter::repeat_n(b'x', 33));
        assert_eq!(
            InformationElement::parse_all(&buf).unwrap_err(),
            IeError::OversizedSsid { len: 33 }
        );
    }

    #[test]
    fn non_utf8_ssid_rejected() {
        let buf = vec![element_id::SSID, 2, 0xff, 0xfe];
        assert_eq!(
            InformationElement::parse_all(&buf).unwrap_err(),
            IeError::NonUtf8Ssid
        );
    }

    #[test]
    fn bad_channel_rejected() {
        let buf = vec![element_id::DS_PARAMETER, 1, 0];
        assert_eq!(
            InformationElement::parse_all(&buf).unwrap_err(),
            IeError::BadChannel { number: 0 }
        );
        let empty = vec![element_id::DS_PARAMETER, 0];
        assert!(InformationElement::parse_all(&empty).is_err());
    }

    #[test]
    fn short_vendor_rejected() {
        let buf = vec![element_id::VENDOR, 2, 0x00, 0x50];
        assert_eq!(
            InformationElement::parse_all(&buf).unwrap_err(),
            IeError::ShortVendor
        );
    }

    #[test]
    fn fingerprint_reflects_element_classes() {
        assert_eq!(fingerprint(&[]), 0);
        let minimal = vec![
            InformationElement::Ssid(Ssid::new("X").unwrap()),
            InformationElement::SupportedRates(DEFAULT_RATES.to_vec()),
            InformationElement::DsParameter(Channel::new(6).unwrap()),
        ];
        assert_eq!(fingerprint(&minimal), FP_SSID | FP_RATES | FP_DS);
        let rich = vec![
            InformationElement::Rsn(RsnInfo::default()),
            InformationElement::Vendor {
                oui: [0, 0x50, 0xf2],
                data: vec![],
            },
            InformationElement::Unknown {
                id: 7,
                data: vec![],
            },
        ];
        assert_eq!(fingerprint(&rich), FP_RSN | FP_VENDOR | FP_UNKNOWN);
    }

    #[test]
    fn helpers_find_things() {
        let elements = vec![
            InformationElement::SupportedRates(DEFAULT_RATES.to_vec()),
            InformationElement::Ssid(Ssid::new("Free Public WiFi").unwrap()),
        ];
        assert_eq!(
            InformationElement::find_ssid(&elements).unwrap().as_str(),
            "Free Public WiFi"
        );
        assert!(!InformationElement::has_rsn(&elements));
    }

    #[test]
    fn error_messages_nonempty() {
        for err in [
            IeError::Truncated {
                id: 1,
                claimed: 9,
                available: 2,
            },
            IeError::OversizedSsid { len: 40 },
            IeError::NonUtf8Ssid,
            IeError::BadChannel { number: 77 },
            IeError::ShortVendor,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    proptest! {
        #[test]
        fn prop_unknown_elements_roundtrip(
            id in 4u8..47,
            data in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let e = vec![InformationElement::Unknown { id, data }];
            prop_assert_eq!(roundtrip(&e), e);
        }

        #[test]
        fn prop_ascii_ssid_roundtrip(name in "[ -~]{0,32}") {
            let e = vec![InformationElement::Ssid(Ssid::new(name).unwrap())];
            prop_assert_eq!(roundtrip(&e), e);
        }

        #[test]
        fn prop_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = InformationElement::parse_all(&bytes);
        }
    }
}
