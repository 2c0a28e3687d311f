//! Seeded mutation fuzzing of the management-frame codec.
//!
//! The fault-injection subsystem (`ch_sim::fault`) mutates encoded
//! frames on the wire — bit flips and truncations — and the decode side
//! must survive anything it produces: reject with a `CodecError`, never
//! panic, never accept bytes that aren't a faithful frame. This test
//! drives every valid frame shape through thousands of seeded mutations
//! mirroring `FaultPlan::mutate` (plus a pure-garbage sweep) and pins
//! those properties.

use ch_sim::SimRng;
use ch_wifi::channel::Channel;
use ch_wifi::codec::{encode, parse};
use ch_wifi::ie::{element_id, InformationElement};
use ch_wifi::mgmt::{
    AssocRequest, AssocResponse, Authentication, Beacon, CapabilityInfo, Deauthentication,
    ProbeRequest, ProbeResponse, ReasonCode, StatusCode,
};
use ch_wifi::{CodecError, FrameControl, MacAddr, MgmtFrame, MgmtSubtype, Ssid};

fn mac(i: u8) -> MacAddr {
    MacAddr::new([2, 0, 0, 0, 0, i])
}

/// One instance of every frame shape the codec can carry.
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

/// The same mutation kinds `ch_sim::fault::FaultPlan::mutate` injects:
/// ~30% truncations, otherwise 1–4 bit flips.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SimRng) {
    if bytes.is_empty() {
        return;
    }
    if rng.chance(0.3) {
        let keep = rng.range_usize(0, bytes.len());
        bytes.truncate(keep);
    } else {
        let flips = rng.range_usize(1, 5);
        for _ in 0..flips {
            let idx = rng.range_usize(0, bytes.len());
            let bit = rng.range_usize(0, 8);
            bytes[idx] ^= 1 << bit;
        }
    }
}

#[test]
fn unmutated_frames_round_trip() {
    for frame in sample_frames() {
        let bytes = encode(&frame);
        let parsed = parse(&bytes).unwrap_or_else(|e| panic!("{frame}: {e}"));
        assert_eq!(parsed, frame, "round trip failed for {frame}");
    }
}

#[test]
fn mutated_frames_never_panic_and_never_impersonate() {
    let mut rng = SimRng::seed_from(0xC0DE_CFA1_7000);
    for frame in sample_frames() {
        let original = encode(&frame);
        for case in 0..2_000 {
            let mut bytes = original.clone();
            mutate(&mut bytes, &mut rng);
            // Any result is fine except a panic. A mutant may still
            // parse — flips in don't-care bytes (duration, sequence
            // number, optional IEs) are semantically invisible — but
            // whatever parses must re-encode to a frame that parses
            // back to itself: corruption can never wedge the codec into
            // a non-canonical state.
            if let Ok(parsed) = parse(&bytes) {
                let reencoded = encode(&parsed);
                assert_eq!(
                    parse(&reencoded).as_ref(),
                    Ok(&parsed),
                    "{frame}: mutation case {case} produced a frame that no longer round-trips"
                );
            }
        }
    }
}

#[test]
fn every_strict_prefix_parses_cleanly_or_errs() {
    // Truncation is the single most common wire fault. Every strict
    // prefix of every valid frame must come back as a clean CodecError
    // or a well-formed frame — never a panic — and anything shorter
    // than the fixed header is always rejected.
    for frame in sample_frames() {
        let bytes = encode(&frame);
        for len in 0..bytes.len() {
            match parse(&bytes[..len]) {
                Err(_) => {}
                Ok(parsed) => {
                    // A prefix can drop only optional trailing IEs; the
                    // mandatory fields must still round-trip.
                    let reencoded = encode(&parsed);
                    assert_eq!(parse(&reencoded).as_ref(), Ok(&parsed));
                }
            }
            if len < 24 {
                assert!(
                    parse(&bytes[..len]).is_err(),
                    "{frame}: sub-header prefix of {len} bytes parsed"
                );
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    // Beyond mutants of valid frames: fully random buffers, including
    // ones starting with a plausible management frame-control word.
    let mut rng = SimRng::seed_from(0xBAD_BEEF);
    for _ in 0..5_000 {
        let len = rng.range_usize(0, 160);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
        let _ = parse(&bytes);
        if bytes.len() >= 2 {
            // Force the management type bits so the parser gets past the
            // frame-control gate and exercises the body paths too.
            bytes[0] &= 0b1111_0011;
            bytes[1] = 0;
            let _ = parse(&bytes);
        }
    }
}

/// Where a frame's element list starts: the 24-byte header plus the
/// subtype's fixed fields, for the subtypes that carry elements and are
/// long enough to reach them. `None` when no element list gets parsed.
fn elements_offset(bytes: &[u8]) -> Option<(MgmtSubtype, usize)> {
    let word = u16::from_le_bytes([*bytes.first()?, *bytes.get(1)?]);
    let subtype = FrameControl::from_word(word)?.subtype;
    let fixed = match subtype {
        MgmtSubtype::ProbeRequest => 0,
        MgmtSubtype::ProbeResponse | MgmtSubtype::Beacon => 12,
        MgmtSubtype::AssocRequest => 4,
        _ => return None,
    };
    (bytes.len() >= 24 + fixed).then_some((subtype, 24 + fixed))
}

/// `codec::parse` validates elements without collecting them; it must
/// agree with a decode built on the owned `InformationElement::parse_all`
/// list: the same `IeError` when that rejects, and otherwise the first SSID
/// (or `MissingSsid`) and the first DS channel of the list.
fn assert_parse_agrees_with_parse_all(bytes: &[u8], what: &str) {
    let Some((subtype, start)) = elements_offset(bytes) else {
        return;
    };
    let reference = InformationElement::parse_all(&bytes[start..]);
    let got = parse(bytes);
    let elements = match reference {
        Err(want) => {
            assert_eq!(got, Err(CodecError::Ie(want)), "{what}");
            return;
        }
        Ok(elements) => elements,
    };
    let first_ssid = InformationElement::find_ssid(&elements).cloned();
    let first_channel = elements
        .iter()
        .find_map(|e| match e {
            InformationElement::DsParameter(channel) => Some(*channel),
            _ => None,
        })
        .unwrap_or_default();
    match got {
        Ok(MgmtFrame::ProbeRequest(p)) => {
            assert_eq!(
                Some(p.ssid),
                first_ssid.or(Some(Ssid::wildcard())),
                "{what}"
            );
        }
        Ok(MgmtFrame::ProbeResponse(p)) => {
            assert_eq!(
                (Some(p.ssid), p.channel),
                (first_ssid, first_channel),
                "{what}"
            );
        }
        Ok(MgmtFrame::Beacon(b)) => {
            assert_eq!(
                (Some(b.ssid), b.channel),
                (first_ssid, first_channel),
                "{what}"
            );
        }
        Ok(MgmtFrame::AssocRequest(a)) => assert_eq!(Some(a.ssid), first_ssid, "{what}"),
        Err(CodecError::MissingSsid) => {
            assert!(first_ssid.is_none(), "{what}");
            assert_ne!(subtype, MgmtSubtype::ProbeRequest, "{what}");
        }
        other => panic!("{what}: elements parse, but codec::parse gave {other:?}"),
    }
}

#[test]
fn parse_agrees_with_parse_all_on_every_mutant() {
    // The corpus: every sample frame, plus a beacon that also carries a
    // vendor and an unknown element, so mutants reach the vendor-length
    // and unknown-element paths too.
    let mut corpus: Vec<Vec<u8>> = sample_frames().iter().map(encode).collect();
    let mut rich = encode(&sample_frames()[3]);
    rich.extend_from_slice(&[element_id::VENDOR, 5, 0x00, 0x50, 0xf2, 1, 2]);
    rich.extend_from_slice(&[7, 2, b'H', b'K']);
    corpus.push(rich);
    let mut rng = SimRng::seed_from(0xD1FF_C0DE);
    for (f, original) in corpus.iter().enumerate() {
        assert_parse_agrees_with_parse_all(original, &format!("frame {f}"));
        for len in 0..original.len() {
            assert_parse_agrees_with_parse_all(
                &original[..len],
                &format!("frame {f}, prefix {len}"),
            );
        }
        for case in 0..2_000 {
            let mut bytes = original.clone();
            mutate(&mut bytes, &mut rng);
            assert_parse_agrees_with_parse_all(&bytes, &format!("frame {f}, mutant {case}"));
        }
    }
}
