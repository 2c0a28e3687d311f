//! Countermeasures against live deployments: the `ch-detect` monitor rides
//! full experiments, armed through `RunConfig.detector` or tapping the
//! runner's frame observer.

use city_hunter::detect::{Detector, Reason, Strictness};
use city_hunter::prelude::*;
use city_hunter::scenarios::runner::{run_experiment_observed, FrameObserver};
use city_hunter::wifi::mgmt::MgmtFrame;

/// A monitor tapping every delivered frame, deauths included.
struct MonitorTap(Detector);

impl FrameObserver for MonitorTap {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        self.0.observe(at, frame);
    }
}

fn config(deauth: bool, seed: u64) -> RunConfig {
    RunConfig {
        venue: VenueKind::Canteen,
        start_hour: 12,
        duration: SimDuration::from_mins(10),
        attacker: AttackerKind::CityHunter(CityHunterConfig {
            deauth,
            ..CityHunterConfig::default()
        }),
        seed,
        lure_budget: None,
        loss: None,
        population: None,
        arrival_multiplier: None,
        fault: None,
        detector: None,
    }
}

/// The deauth-flood verdicts of a tapped run.
fn flood_verdicts(data: &CityData, deauth: bool, seed: u64) -> (u64, Vec<MacAddr>) {
    let mut tap = MonitorTap(Detector::new(Strictness::Standard));
    let metrics = run_experiment_observed(data, &config(deauth, seed), &mut tap);
    let floods = tap
        .0
        .verdicts()
        .iter()
        .filter(|v| v.reasons.contains(Reason::DeauthFlood))
        .map(|v| v.bssid)
        .collect();
    (metrics.deauth_frames, floods)
}

#[test]
fn live_city_hunter_detected_before_first_victim() {
    let data = CityData::standard(0xDEF1);
    let armed = RunConfig {
        detector: Some(Strictness::Standard),
        ..config(false, 1)
    };
    let metrics = run_experiment(&data, &armed);
    let report = metrics.detection.expect("the detector was armed");
    let first_verdict = report
        .time_to_detect()
        .expect("City-Hunter must be detected");
    // Detection precedes the first successful lure.
    let first_hit = metrics
        .clients()
        .filter_map(|(_, rec)| rec.hit.as_ref().map(|h| h.at))
        .min();
    if let Some(hit_at) = first_hit {
        assert!(
            first_verdict <= hit_at,
            "first verdict {first_verdict} after first victim {hit_at}"
        );
    }
    // Exactly one AP is flagged, the attacker; none of the legitimate
    // neighbourhood APs beaconing around it.
    assert!(report.legit_aps > 0);
    assert_eq!(report.flagged_legit, 0, "{report:?}");
    assert_eq!(report.flagged_rogue, 1, "{report:?}");
    assert_eq!(report.flagged, 1, "{report:?}");
}

#[test]
fn deauth_extension_trips_the_flood_detector() {
    let data = CityData::standard(0xDEF2);
    let (deauths, floods) = flood_verdicts(&data, true, 2);
    assert!(deauths >= 5, "{deauths}");
    assert!(!floods.is_empty(), "deauth flood must be flagged");
    // The flood verdict names the spoofed AP the deauths claim to come
    // from, not the rogue's own BSSID.
    for source in &floods {
        assert_eq!(source.oui(), [0x00, 0x90, 0x4c], "{source}");
    }
}

#[test]
fn no_deauth_no_flood_alarm() {
    let data = CityData::standard(0xDEF3);
    let (deauths, floods) = flood_verdicts(&data, false, 3);
    assert_eq!(deauths, 0);
    assert!(floods.is_empty(), "no deauth, no flood verdict: {floods:?}");
}

#[test]
fn spoofed_deauth_source_counts_as_rogue() {
    // The flood verdict names the spoofed AP; the attacker's radio sent
    // those frames, so ground truth counts that MAC as rogue and every
    // flag of the run points at the attacker.
    let data = CityData::standard(0xDEF2);
    let armed = RunConfig {
        detector: Some(Strictness::Standard),
        ..config(true, 2)
    };
    let metrics = run_experiment(&data, &armed);
    let report = metrics.detection.expect("the detector was armed");
    assert!(metrics.deauth_frames >= 5, "{}", metrics.deauth_frames);
    assert!(report.flagged >= 2, "rogue and spoofed source: {report:?}");
    assert_eq!(report.flagged_legit, 0, "{report:?}");
    assert_eq!(report.flagged_rogue, report.flagged, "{report:?}");
    assert_eq!(report.precision(), Some(1.0), "{report:?}");
}
