//! The defender's view: the `ch-detect` rogue-AP monitor running against
//! City-Hunter's own frames.
//!
//! The paper's conclusion notes that existing evil-twin countermeasures
//! "can still work as effective countermeasures for the City-Hunter". This
//! example runs the workspace's real detection subsystem — the same
//! signature/behavior [`Detector`] the `arms_race` experiment arms — on
//! the actual byte-level frames our attacker emits. Two kinds of its
//! cheapest signals fire here:
//!
//! 1. **signature tells** — the rogue BSSID's OUI is denylisted, a lure
//!    carries free-WiFi bait wording, the responses carry the karma-style
//!    minimal IE set, and the BSSID answers probes but never beacons (a
//!    silent responder);
//! 2. **implausible SSID co-location** — one BSSID answering broadcast
//!    probes with dozens of unrelated SSIDs (the signature of KARMA-style
//!    mimicry).
//!
//! ```text
//! cargo run --release -p city-hunter --example defender_audit [seed]
//! ```

use city_hunter::attack::{AttackSitePlan, Attacker, CityHunter, CityHunterConfig};
use city_hunter::detect::{Detector, Strictness};
use city_hunter::prelude::*;
use city_hunter::wifi::codec;
use city_hunter::wifi::mgmt::{MgmtFrame, ProbeRequest, ProbeResponse};
use city_hunter::wifi::Channel;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let data = CityData::standard(seed);
    let plan = AttackSitePlan::build(&data.wigle, &data.heat, data.site_for(VenueKind::Canteen));
    let mut attacker = CityHunter::from_plan(
        MacAddr::from_index([0x0a, 0xbc, 0xde], 1),
        &plan,
        CityHunterConfig::default(),
    );

    // The auditing client runs the stock monitor at standard strictness —
    // no tuning, no knowledge of the attacker beyond the built-in
    // signature database.
    let mut detector = Detector::new(Strictness::Standard);

    // The client scans twice; every lure crosses the real codec, exactly
    // as it would cross the air, and the detector hears both sides.
    let client = MacAddr::from_index([0xac, 0x37, 0x43], 77);
    let mut frames_seen = 0usize;
    for round in 0..2u64 {
        let now = SimTime::from_secs(round * 60);
        let probe = ProbeRequest::broadcast(client);
        detector.observe(now, &MgmtFrame::ProbeRequest(probe.clone()));
        let lures = attacker.respond_to_probe(now, &probe, 40);
        for lure in &lures {
            let frame = MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
                attacker.bssid(),
                client,
                lure.ssid.clone(),
                Channel::default_attack_channel(),
            ));
            let bytes = codec::encode(&frame);
            let parsed = codec::parse(&bytes).expect("attacker frames are well-formed");
            if let MgmtFrame::ProbeResponse(_) = &parsed {
                frames_seen += 1;
            }
            detector.observe(now, &parsed);
        }
    }

    println!("audited {frames_seen} probe responses from one BSSID\n");
    if detector.verdicts().is_empty() {
        println!("no alarms — detector defeated (unexpected!)");
    } else {
        println!("alarms raised:");
        for verdict in detector.verdicts() {
            println!("  ! {verdict}");
        }
        println!(
            "\nthe ch-detect monitor flags City-Hunter within a single \
             scan round, confirming the paper's closing claim that \
             client-side evil-twin detection still applies."
        );
    }
}
