//! Byte-level encoding and parsing of management frames.
//!
//! The wire format follows IEEE 802.11: a little-endian frame-control word,
//! duration, three addresses, sequence control, then the subtype-specific
//! fixed fields and information elements. The attacker and phone state
//! machines exchange encoded frames through this codec in the integration
//! tests, so frame-construction bugs would surface as handshake failures —
//! the same place they would surface against real hardware.

use crate::channel::Channel;
use crate::frame::{FrameControl, MgmtHeader, MgmtSubtype};
use crate::ie::{element_id, ElementRef, IeError, InformationElement, DEFAULT_RATES};
use crate::mac::MacAddr;
use crate::mgmt::{
    AssocRequest, AssocResponse, Authentication, Beacon, CapabilityInfo, Deauthentication,
    MgmtFrame, ProbeRequest, ProbeResponse, ReasonCode, StatusCode,
};
use crate::ssid::Ssid;

/// Error parsing a byte buffer into a [`MgmtFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the 24-byte management header plus the subtype's
    /// fixed fields.
    Truncated {
        /// Bytes required by the point of failure.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// The frame-control word is not a recognized management frame.
    NotManagement {
        /// Raw frame-control word.
        word: u16,
    },
    /// A malformed information element.
    Ie(IeError),
    /// The body lacks a required element (e.g. a probe response without an
    /// SSID).
    MissingSsid,
    /// Authentication algorithm other than open-system.
    UnsupportedAuthAlgorithm {
        /// The offending algorithm number.
        algorithm: u16,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "frame truncated: needed {needed} bytes, had {available}")
            }
            CodecError::NotManagement { word } => {
                write!(f, "frame control word {word:#06x} is not management")
            }
            CodecError::Ie(e) => write!(f, "bad information element: {e}"),
            CodecError::MissingSsid => write!(f, "frame body lacks an ssid element"),
            CodecError::UnsupportedAuthAlgorithm { algorithm } => {
                write!(f, "unsupported authentication algorithm {algorithm}")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Ie(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IeError> for CodecError {
    fn from(e: IeError) -> Self {
        CodecError::Ie(e)
    }
}

const HEADER_LEN: usize = 24;

/// Little-endian reader helpers that advance a `&[u8]` cursor. Reads past
/// the end zero-fill instead of panicking; every call site bounds-checks
/// first (`HEADER_LEN` guard or [`need`]), so zero-filling is never
/// observable — it only keeps the library free of panic paths (ch-lint R3).
trait ByteSource {
    fn get_u16_le(&mut self) -> u16;
    fn get_u64_le(&mut self) -> u64;
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl ByteSource for &[u8] {
    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        self.copy_to_slice(&mut raw);
        u16::from_le_bytes(raw)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_le_bytes(raw)
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let take = dst.len().min(self.len());
        dst[..take].copy_from_slice(&self[..take]);
        dst[take..].fill(0);
        *self = &self[take..];
    }
}

/// Encodes a frame to wire bytes.
///
/// ```
/// use ch_wifi::{codec, mgmt::{MgmtFrame, ProbeRequest}, MacAddr};
/// let frame = MgmtFrame::ProbeRequest(ProbeRequest::broadcast(
///     MacAddr::new([2, 0, 0, 0, 0, 7]),
/// ));
/// let bytes = codec::encode(&frame);
/// assert!(bytes.len() >= 24);
/// ```
pub fn encode(frame: &MgmtFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(frame, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer (cleared first).
///
/// The hot loops reuse one frame buffer per runner step: once the buffer has
/// grown to the largest frame it ever carries, encoding stops touching the
/// heap entirely — every write lands in already-reserved capacity.
///
/// ```
/// use ch_wifi::{codec, mgmt::{MgmtFrame, ProbeRequest}, MacAddr};
/// let frame = MgmtFrame::ProbeRequest(ProbeRequest::broadcast(
///     MacAddr::new([2, 0, 0, 0, 0, 7]),
/// ));
/// let mut buf = Vec::new();
/// codec::encode_into(&frame, &mut buf);
/// assert_eq!(buf, codec::encode(&frame));
/// ```
pub fn encode_into(frame: &MgmtFrame, out: &mut Vec<u8>) {
    out.clear();
    encode_frame(frame, out);
}

fn encode_frame(frame: &MgmtFrame, out: &mut Vec<u8>) {
    let fc = FrameControl::mgmt(frame.subtype());
    out.extend_from_slice(&fc.to_word().to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // duration
    let header = frame.header();
    out.extend_from_slice(&header.addr1.octets());
    out.extend_from_slice(&header.addr2.octets());
    out.extend_from_slice(&header.addr3.octets());
    out.extend_from_slice(&(header.sequence << 4).to_le_bytes());
    encode_body(frame, out);
}

/// `| id | len | ssid bytes |` — [`InformationElement::Ssid`] on the wire.
fn put_ssid_ie(out: &mut Vec<u8>, ssid: &Ssid) {
    out.push(element_id::SSID);
    out.push(ssid.len() as u8);
    out.extend_from_slice(ssid.as_bytes());
}

/// The canonical [`DEFAULT_RATES`] supported-rates element.
fn put_rates_ie(out: &mut Vec<u8>) {
    out.push(element_id::SUPPORTED_RATES);
    out.push(DEFAULT_RATES.len() as u8);
    out.extend_from_slice(&DEFAULT_RATES);
}

/// DS parameter set: the current channel.
fn put_ds_ie(out: &mut Vec<u8>, channel: Channel) {
    out.push(element_id::DS_PARAMETER);
    out.push(1);
    out.push(channel.number());
}

/// Compact RSN element, CCMP+PSK (matches `ProbeResponse::elements`).
fn put_rsn_ie(out: &mut Vec<u8>) {
    out.push(element_id::RSN);
    out.push(3);
    out.extend_from_slice(&1u16.to_le_bytes()); // version
    out.push(0b11); // ccmp | psk << 1
}

fn encode_body(frame: &MgmtFrame, out: &mut Vec<u8>) {
    match frame {
        MgmtFrame::ProbeRequest(p) => {
            put_ssid_ie(out, &p.ssid);
            put_rates_ie(out);
        }
        MgmtFrame::ProbeResponse(p) => {
            out.extend_from_slice(&0u64.to_le_bytes()); // timestamp (filled by hardware in reality)
            out.extend_from_slice(&100u16.to_le_bytes()); // beacon interval
            out.extend_from_slice(&p.capabilities.to_word().to_le_bytes());
            // Byte-for-byte what `p.elements()` would encode, minus the
            // per-frame element allocations.
            put_ssid_ie(out, &p.ssid);
            put_rates_ie(out);
            put_ds_ie(out, p.channel);
            if p.capabilities.privacy {
                put_rsn_ie(out);
            }
        }
        MgmtFrame::Beacon(b) => {
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&b.interval_tu.to_le_bytes());
            out.extend_from_slice(&b.capabilities.to_word().to_le_bytes());
            put_ssid_ie(out, &b.ssid);
            put_rates_ie(out);
            put_ds_ie(out, b.channel);
        }
        MgmtFrame::Authentication(a) => {
            out.extend_from_slice(&0u16.to_le_bytes()); // open system
            out.extend_from_slice(&a.transaction.to_le_bytes());
            out.extend_from_slice(&(a.status as u16).to_le_bytes());
        }
        MgmtFrame::AssocRequest(a) => {
            out.extend_from_slice(&a.capabilities.to_word().to_le_bytes());
            out.extend_from_slice(&10u16.to_le_bytes()); // listen interval
            put_ssid_ie(out, &a.ssid);
            put_rates_ie(out);
        }
        MgmtFrame::AssocResponse(a) => {
            out.extend_from_slice(&CapabilityInfo::open_ap().to_word().to_le_bytes());
            out.extend_from_slice(&(a.status as u16).to_le_bytes());
            out.extend_from_slice(&(a.association_id | 0xc000).to_le_bytes());
        }
        MgmtFrame::Deauthentication(d) => {
            out.extend_from_slice(&(d.reason as u16).to_le_bytes());
        }
    }
}

/// Parses wire bytes into a frame.
///
/// # Errors
///
/// Any [`CodecError`] on truncated or malformed input.
pub fn parse(bytes: &[u8]) -> Result<MgmtFrame, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let mut buf = bytes;
    let fc_word = buf.get_u16_le();
    let fc = FrameControl::from_word(fc_word).ok_or(CodecError::NotManagement { word: fc_word })?;
    let _duration = buf.get_u16_le();
    let addr1 = read_mac(&mut buf);
    let addr2 = read_mac(&mut buf);
    let addr3 = read_mac(&mut buf);
    let seq_ctl = buf.get_u16_le();
    let header = MgmtHeader::new(addr1, addr2, addr3, seq_ctl >> 4);
    parse_body(fc.subtype, header, buf)
}

fn read_mac(buf: &mut &[u8]) -> MacAddr {
    let mut octets = [0u8; 6];
    buf.copy_to_slice(&mut octets);
    MacAddr::new(octets)
}

fn need(buf: &[u8], needed: usize) -> Result<(), CodecError> {
    if buf.len() < needed {
        Err(CodecError::Truncated {
            needed: HEADER_LEN + needed,
            available: HEADER_LEN + buf.len(),
        })
    } else {
        Ok(())
    }
}

/// The first SSID and the first DS-parameter channel of an element list.
/// Every element is validated, but none is kept and no payload is copied:
/// parsing a frame allocates nothing.
fn ssid_and_channel(buf: &[u8]) -> Result<(Option<Ssid>, Channel), CodecError> {
    let mut ssid = None;
    let mut channel = None;
    InformationElement::parse_each(buf, |element| match element {
        ElementRef::Ssid(found) if ssid.is_none() => ssid = Some(found),
        ElementRef::DsParameter(found) if channel.is_none() => channel = Some(found),
        _ => {}
    })?;
    Ok((ssid, channel.unwrap_or_default()))
}

fn parse_body(
    subtype: MgmtSubtype,
    header: MgmtHeader,
    mut buf: &[u8],
) -> Result<MgmtFrame, CodecError> {
    match subtype {
        MgmtSubtype::ProbeRequest => {
            let (ssid, _) = ssid_and_channel(buf)?;
            let ssid = ssid.unwrap_or_else(Ssid::wildcard);
            Ok(MgmtFrame::ProbeRequest(ProbeRequest {
                source: header.addr2,
                ssid,
            }))
        }
        MgmtSubtype::ProbeResponse => {
            need(buf, 12)?;
            let _timestamp = buf.get_u64_le();
            let _interval = buf.get_u16_le();
            let capabilities = CapabilityInfo::from_word(buf.get_u16_le());
            let (ssid, channel) = ssid_and_channel(buf)?;
            let ssid = ssid.ok_or(CodecError::MissingSsid)?;
            Ok(MgmtFrame::ProbeResponse(ProbeResponse {
                bssid: header.addr2,
                destination: header.addr1,
                ssid,
                capabilities,
                channel,
            }))
        }
        MgmtSubtype::Beacon => {
            need(buf, 12)?;
            let _timestamp = buf.get_u64_le();
            let interval_tu = buf.get_u16_le();
            let capabilities = CapabilityInfo::from_word(buf.get_u16_le());
            let (ssid, channel) = ssid_and_channel(buf)?;
            let ssid = ssid.ok_or(CodecError::MissingSsid)?;
            Ok(MgmtFrame::Beacon(Beacon {
                bssid: header.addr2,
                ssid,
                capabilities,
                channel,
                interval_tu,
            }))
        }
        MgmtSubtype::Authentication => {
            need(buf, 6)?;
            let algorithm = buf.get_u16_le();
            if algorithm != 0 {
                return Err(CodecError::UnsupportedAuthAlgorithm { algorithm });
            }
            let transaction = buf.get_u16_le();
            let status = StatusCode::from_word(buf.get_u16_le());
            Ok(MgmtFrame::Authentication(Authentication {
                source: header.addr2,
                destination: header.addr1,
                transaction,
                status,
            }))
        }
        MgmtSubtype::AssocRequest => {
            need(buf, 4)?;
            let capabilities = CapabilityInfo::from_word(buf.get_u16_le());
            let _listen = buf.get_u16_le();
            let (ssid, _) = ssid_and_channel(buf)?;
            let ssid = ssid.ok_or(CodecError::MissingSsid)?;
            Ok(MgmtFrame::AssocRequest(AssocRequest {
                source: header.addr2,
                bssid: header.addr1,
                ssid,
                capabilities,
            }))
        }
        MgmtSubtype::AssocResponse => {
            need(buf, 6)?;
            let _caps = buf.get_u16_le();
            let status = StatusCode::from_word(buf.get_u16_le());
            let association_id = buf.get_u16_le() & 0x3fff;
            Ok(MgmtFrame::AssocResponse(AssocResponse {
                bssid: header.addr2,
                destination: header.addr1,
                status,
                association_id,
            }))
        }
        MgmtSubtype::Deauthentication | MgmtSubtype::Disassoc => {
            need(buf, 2)?;
            let reason = ReasonCode::from_word(buf.get_u16_le());
            Ok(MgmtFrame::Deauthentication(Deauthentication {
                source: header.addr2,
                destination: header.addr1,
                reason,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use proptest::prelude::*;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn sample_frames() -> Vec<MgmtFrame> {
        vec![
            MgmtFrame::ProbeRequest(ProbeRequest::broadcast(mac(1))),
            MgmtFrame::ProbeRequest(ProbeRequest::direct(
                mac(1),
                Ssid::new("7-Eleven Free WiFi").unwrap(),
            )),
            MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                mac(9),
                mac(1),
                Ssid::new("#HKAirport Free WiFi").unwrap(),
                Channel::new(6).unwrap(),
            )),
            MgmtFrame::Beacon(Beacon::open(
                mac(9),
                Ssid::new("Free Public WiFi").unwrap(),
                Channel::new(11).unwrap(),
            )),
            MgmtFrame::Authentication(Authentication::request(mac(1), mac(9))),
            MgmtFrame::Authentication(Authentication::response(
                mac(9),
                mac(1),
                StatusCode::Success,
            )),
            MgmtFrame::AssocRequest(AssocRequest {
                source: mac(1),
                bssid: mac(9),
                ssid: Ssid::new("CSL").unwrap(),
                capabilities: CapabilityInfo::open_ap(),
            }),
            MgmtFrame::AssocResponse(AssocResponse {
                bssid: mac(9),
                destination: mac(1),
                status: StatusCode::Success,
                association_id: 1,
            }),
            MgmtFrame::Deauthentication(Deauthentication {
                source: mac(9),
                destination: mac(1),
                reason: ReasonCode::PrevAuthExpired,
            }),
        ]
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            let parsed = parse(&bytes).unwrap_or_else(|e| panic!("{frame}: {e}"));
            assert_eq!(parsed, frame, "roundtrip failed for {frame}");
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let err = parse(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn truncated_body_rejected() {
        let frame = MgmtFrame::Authentication(Authentication::request(mac(1), mac(9)));
        let bytes = encode(&frame);
        let err = parse(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn data_frames_rejected() {
        let mut bytes = encode(&MgmtFrame::ProbeRequest(ProbeRequest::broadcast(mac(1))));
        bytes[0] = 0b0000_1000; // type = data
        let err = parse(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::NotManagement { .. }));
    }

    #[test]
    fn probe_response_without_ssid_rejected() {
        // Hand-build a probe response whose body has only fixed fields.
        let mut bytes = Vec::new();
        let fc = FrameControl::mgmt(MgmtSubtype::ProbeResponse).to_word();
        bytes.extend_from_slice(&fc.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        for m in [mac(1), mac(9), mac(9)] {
            bytes.extend_from_slice(&m.octets());
        }
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&100u16.to_le_bytes());
        bytes.extend_from_slice(&CapabilityInfo::open_ap().to_word().to_le_bytes());
        assert_eq!(parse(&bytes).unwrap_err(), CodecError::MissingSsid);
    }

    #[test]
    fn shared_key_auth_rejected() {
        let frame = MgmtFrame::Authentication(Authentication::request(mac(1), mac(9)));
        let mut bytes = encode(&frame);
        bytes[HEADER_LEN] = 1; // shared-key algorithm
        assert_eq!(
            parse(&bytes).unwrap_err(),
            CodecError::UnsupportedAuthAlgorithm { algorithm: 1 }
        );
    }

    #[test]
    fn privacy_bit_survives_roundtrip() {
        let mut resp = ProbeResponse::open_lure(
            mac(9),
            mac(1),
            Ssid::new("Secured").unwrap(),
            Channel::default(),
        );
        resp.capabilities = CapabilityInfo::protected_ap();
        let parsed = parse(&encode(&MgmtFrame::ProbeResponse(resp.clone()))).unwrap();
        match parsed {
            MgmtFrame::ProbeResponse(p) => assert!(p.capabilities.privacy),
            other => panic!("wrong kind {other}"),
        }
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        // One buffer across all frame kinds: each encode_into must clear
        // the previous frame and produce exactly what `encode` would.
        let mut buf = Vec::new();
        for frame in sample_frames() {
            encode_into(&frame, &mut buf);
            assert_eq!(buf, encode(&frame), "encode_into mismatch for {frame}");
        }
    }

    #[test]
    fn put_ie_helpers_match_element_encoding() {
        // The direct IE writers must stay byte-identical to the
        // InformationElement encoding they replaced on the hot path.
        let ssid = Ssid::new("CSL").unwrap();
        let ch = Channel::new(6).unwrap();
        let mut direct = Vec::new();
        put_ssid_ie(&mut direct, &ssid);
        put_rates_ie(&mut direct);
        put_ds_ie(&mut direct, ch);
        put_rsn_ie(&mut direct);
        let mut via_elements = Vec::new();
        for e in [
            InformationElement::Ssid(ssid.clone()),
            InformationElement::SupportedRates(DEFAULT_RATES.to_vec()),
            InformationElement::DsParameter(ch),
            InformationElement::Rsn(crate::ie::RsnInfo {
                ccmp: true,
                psk: true,
            }),
        ] {
            e.encode_into(&mut via_elements);
        }
        assert_eq!(direct, via_elements);
    }

    #[test]
    fn parse_garbage_never_panics() {
        // Deterministic pseudo-garbage sweep.
        let mut state = 0x12345u64;
        for len in 0..128usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let _ = parse(&bytes);
        }
    }

    proptest! {
        #[test]
        fn prop_probe_request_roundtrip(
            octets in proptest::array::uniform6(0u8..),
            ssid in "[ -~]{0,32}",
        ) {
            let frame = MgmtFrame::ProbeRequest(ProbeRequest {
                source: MacAddr::new(octets),
                ssid: Ssid::new(ssid).unwrap(),
            });
            prop_assert_eq!(parse(&encode(&frame)).unwrap(), frame);
        }

        #[test]
        fn prop_parse_arbitrary_bytes_no_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let _ = parse(&bytes);
        }

        #[test]
        fn prop_lure_roundtrip(
            ssid in "[ -~]{1,32}",
            ch in 1u8..=14,
        ) {
            let frame = MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                mac(9),
                mac(1),
                Ssid::new(ssid).unwrap(),
                Channel::new(ch).unwrap(),
            ));
            prop_assert_eq!(parse(&encode(&frame)).unwrap(), frame);
        }
    }
}
