//! I/O round-trips through the full stack: pcap captures of live runs and
//! WiGLE-CSV snapshots driving experiments.

use city_hunter::geo::csv::{from_csv, to_csv};
use city_hunter::prelude::*;
use city_hunter::scenarios::runner::{run_experiment_observed, PcapObserver};
use city_hunter::sim::SimDuration;
use city_hunter::wifi::frame::MgmtSubtype;
use city_hunter::wifi::pcap::read_capture_lenient;

fn short_config(seed: u64) -> RunConfig {
    RunConfig {
        venue: VenueKind::Canteen,
        start_hour: 12,
        duration: SimDuration::from_mins(5),
        attacker: AttackerKind::CityHunter(CityHunterConfig::default()),
        seed,
        lure_budget: None,
        loss: None,
        population: None,
        arrival_multiplier: None,
        fault: None,
        detector: None,
    }
}

#[test]
fn live_run_pcap_roundtrip() {
    let data = CityData::standard(0x10A);
    let mut observer = PcapObserver::new(Vec::new()).expect("header writes");
    let metrics = run_experiment_observed(&data, &short_config(1), &mut observer);
    let frames_written = observer.frames_written();
    let bytes = observer.into_inner();

    let read = read_capture_lenient(&bytes[..]).expect("own capture re-reads");
    assert_eq!(read.skipped, 0);
    assert!(!read.truncated);
    let capture = read.frames;
    assert_eq!(capture.len() as u64, frames_written);
    assert!(
        capture.len() > 1_000,
        "capture too small: {}",
        capture.len()
    );

    // Timestamps are non-decreasing (air order).
    for pair in capture.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }

    // The frame census is coherent with the metrics: every hit produced
    // one auth request + response + assoc request + response.
    let count = |st: MgmtSubtype| capture.iter().filter(|c| c.frame.subtype() == st).count();
    let hits = metrics
        .clients()
        .filter(|(_, rec)| rec.hit.is_some())
        .count();
    assert_eq!(count(MgmtSubtype::Authentication), 2 * hits);
    assert_eq!(count(MgmtSubtype::AssocRequest), hits);
    assert_eq!(count(MgmtSubtype::AssocResponse), hits);
    assert!(count(MgmtSubtype::ProbeRequest) > 0);
    assert!(count(MgmtSubtype::ProbeResponse) > count(MgmtSubtype::ProbeRequest));
}

#[test]
fn observed_and_unobserved_runs_agree() {
    // Attaching the observer must not perturb the simulation.
    let data = CityData::standard(0x10B);
    let config = short_config(2);
    let mut observer = PcapObserver::new(Vec::new()).expect("header writes");
    let observed = run_experiment_observed(&data, &config, &mut observer);
    let plain = run_experiment(&data, &config);
    assert_eq!(observed.summary("x"), plain.summary("x"));
    assert_eq!(observed.db_series(), plain.db_series());
}

#[test]
fn csv_snapshot_drives_identical_experiments() {
    // Export the synthetic WiGLE snapshot to CSV, re-import it, and run
    // the same deployment on both: identity fields round-trip exactly and
    // locations round-trip to ~0.1 m, so the experiments must agree.
    let original = CityData::standard(0x10C);
    let restored_wigle = from_csv(&to_csv(&original.wigle)).expect("csv parses");
    assert_eq!(original.wigle.len(), restored_wigle.len());
    let restored = CityData {
        city: original.city.clone(),
        wigle: restored_wigle,
        heat: original.heat.clone(),
    };
    let config = short_config(3);
    let a = run_experiment(&original, &config).summary("x");
    let b = run_experiment(&restored, &config).summary("x");
    assert_eq!(a, b, "an imported snapshot must reproduce the experiment");
}
