//! Frame-level integration: attacker and phone speak through the byte
//! codec, end to end, without the experiment runner in between.

use city_hunter::attack::{AttackSitePlan, Attacker, CityHunter, CityHunterConfig, KarmaAttacker};
use city_hunter::phone::pnl::{Pnl, PnlEntry, PnlOrigin};
use city_hunter::phone::scanner::ScanConfig;
use city_hunter::phone::OsKind;
use city_hunter::phone::{JoinDecision, Phone};
use city_hunter::prelude::*;
use city_hunter::wifi::codec;
use city_hunter::wifi::mgmt::{
    Authentication, CapabilityInfo, Deauthentication, MgmtFrame, ProbeRequest, ProbeResponse,
    ReasonCode, StatusCode,
};
use city_hunter::wifi::timing;
use city_hunter::wifi::Channel;

fn victim(pnl: Pnl) -> Phone {
    Phone::new(
        1,
        MacAddr::from_index([0xac, 0x37, 0x43], 1),
        OsKind::ModernAndroid,
        pnl,
        ScanConfig::default_2017(),
        0,
        true,
        false,
    )
}

fn hunter(data: &CityData) -> CityHunter {
    let plan = AttackSitePlan::build(&data.wigle, &data.heat, data.site_for(VenueKind::Canteen));
    CityHunter::from_plan(
        MacAddr::from_index([0x0a, 0xbc, 0xde], 1),
        &plan,
        CityHunterConfig::default(),
    )
}

#[test]
fn broadcast_probe_to_association_over_the_wire() {
    let data = CityData::standard(0x4A4D);
    let mut attacker = hunter(&data);

    // The victim remembers one open city SSID City-Hunter will try first:
    // the top of the heat ranking.
    let top = data.wigle.top_by_heat(&data.heat, 1)[0].0.clone();
    let mut phone = victim(Pnl::from_entries([PnlEntry::open(
        top.clone(),
        PnlOrigin::Public,
    )]));

    // 1. The phone's broadcast probe crosses the wire.
    let probe = phone.probes_for_scan().remove(0);
    let probe_bytes = codec::encode(&MgmtFrame::ProbeRequest(probe.clone()));
    let parsed = codec::parse(&probe_bytes).expect("probe parses");
    let MgmtFrame::ProbeRequest(parsed_probe) = parsed else {
        panic!("wrong frame kind");
    };
    assert!(parsed_probe.is_broadcast());

    // 2. The attacker answers with a lure burst within the scan budget.
    let lures =
        attacker.respond_to_probe(SimTime::ZERO, &parsed_probe, timing::responses_per_scan());
    assert!(lures.len() <= timing::responses_per_scan());
    assert!(
        lures.iter().any(|l| l.ssid == top),
        "top SSID offered first"
    );

    // 3. Each probe response crosses the wire; the phone joins on match.
    let mut joined = None;
    for lure in &lures {
        let frame = MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
            attacker.bssid(),
            phone.mac,
            lure.ssid.clone(),
            Channel::default_attack_channel(),
        ));
        let bytes = codec::encode(&frame);
        let MgmtFrame::ProbeResponse(response) = codec::parse(&bytes).expect("lure parses") else {
            panic!("wrong frame kind");
        };
        if phone.evaluate_offer(&response) == JoinDecision::Join {
            joined = Some(response);
            break;
        }
    }
    let offer = joined.expect("victim must recognize its PNL entry");
    assert_eq!(offer.ssid, top);

    // 4. Open-system authentication + association, over the wire.
    let legs = [
        MgmtFrame::Authentication(Authentication::request(phone.mac, attacker.bssid())),
        MgmtFrame::Authentication(Authentication::response(
            attacker.bssid(),
            phone.mac,
            StatusCode::Success,
        )),
    ];
    for frame in &legs {
        let bytes = codec::encode(frame);
        assert_eq!(&codec::parse(&bytes).expect("auth parses"), frame);
    }
    phone.connect_to(offer.ssid.clone());
    assert!(phone.is_connected());
    assert_eq!(phone.connected_ssid(), Some(&top));

    // 5. A connected victim goes quiet.
    assert!(phone.probes_for_scan().is_empty());
}

#[test]
fn direct_probe_karma_echo_over_the_wire() {
    let mut karma = KarmaAttacker::new(MacAddr::from_index([0x0a, 0xbc, 0xde], 2));
    let secret = Ssid::new("EstateNet-5F").expect("short ssid");
    let mut phone = victim(Pnl::from_entries([PnlEntry::open(
        secret.clone(),
        PnlOrigin::Home,
    )]));
    // A legacy phone would disclose the SSID; craft its direct probe.
    let probe = ProbeRequest::direct(phone.mac, secret.clone());
    let bytes = codec::encode(&MgmtFrame::ProbeRequest(probe.clone()));
    let MgmtFrame::ProbeRequest(parsed) = codec::parse(&bytes).expect("parses") else {
        panic!("wrong kind");
    };
    assert_eq!(parsed.ssid, secret);

    let lures = karma.respond_to_probe(SimTime::ZERO, &parsed, 40);
    assert_eq!(lures.len(), 1);
    let response = ProbeResponse::open_lure(
        karma.bssid(),
        phone.mac,
        lures[0].ssid.clone(),
        Channel::default_attack_channel(),
    );
    assert_eq!(phone.evaluate_offer(&response), JoinDecision::Join);
    phone.connect_to(response.ssid);
    assert!(phone.is_connected());
}

#[test]
fn protected_pnl_entry_rejects_open_twin_over_the_wire() {
    let data = CityData::standard(0x4A4E);
    let mut attacker = hunter(&data);
    let top = data.wigle.top_by_heat(&data.heat, 1)[0].0.clone();
    // Same SSID, but remembered as *protected*: the twin must fail.
    let phone = victim(Pnl::from_entries([PnlEntry::protected(
        top,
        PnlOrigin::Work,
    )]));
    let probe = ProbeRequest::broadcast(phone.mac);
    let lures = attacker.respond_to_probe(SimTime::ZERO, &probe, 40);
    for lure in &lures {
        let response = ProbeResponse::open_lure(
            attacker.bssid(),
            phone.mac,
            lure.ssid.clone(),
            Channel::default_attack_channel(),
        );
        assert_eq!(
            phone.evaluate_offer(&response),
            JoinDecision::Ignore,
            "{} must not be joined",
            lure.ssid
        );
    }
}

#[test]
fn deauth_frame_round_trips_and_reopens_the_victim() {
    let mut phone = Phone::new(
        9,
        MacAddr::from_index([0xac, 0x37, 0x43], 9),
        OsKind::ModernIos,
        Pnl::new(),
        ScanConfig::default_2017(),
        0,
        true,
        true, // camped on legitimate Wi-Fi
    );
    assert!(phone.probes_for_scan().is_empty());

    let frame = MgmtFrame::Deauthentication(Deauthentication {
        source: MacAddr::from_index([0x00, 0x90, 0x4c], 1), // spoofed AP
        destination: phone.mac,
        reason: ReasonCode::PrevAuthExpired,
    });
    let bytes = codec::encode(&frame);
    let parsed = codec::parse(&bytes).expect("deauth parses");
    assert_eq!(parsed, frame);
    phone.handle_deauth();
    assert_eq!(phone.probes_for_scan().len(), 1, "victim scans again");
}

#[test]
fn capability_privacy_bit_is_the_differentiator() {
    // The single bit the §III-B "free APs only" rule hangs on: a protected
    // twin is ignored even for an open PNL entry.
    let open_entry = Ssid::new("Free Public WiFi").expect("short ssid");
    let phone = victim(Pnl::from_entries([PnlEntry::open(
        open_entry.clone(),
        PnlOrigin::Public,
    )]));
    let mut offer = ProbeResponse::open_lure(
        MacAddr::from_index([0x0a, 0xbc, 0xde], 3),
        phone.mac,
        open_entry,
        Channel::default_attack_channel(),
    );
    assert_eq!(phone.evaluate_offer(&offer), JoinDecision::Join);
    offer.capabilities = CapabilityInfo::protected_ap();
    let bytes = codec::encode(&MgmtFrame::ProbeResponse(offer.clone()));
    let MgmtFrame::ProbeResponse(parsed) = codec::parse(&bytes).expect("parses") else {
        panic!("wrong kind");
    };
    assert!(parsed.capabilities.privacy, "privacy bit survives the wire");
    assert_eq!(phone.evaluate_offer(&parsed), JoinDecision::Ignore);
}
