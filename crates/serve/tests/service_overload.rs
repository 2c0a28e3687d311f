//! Backpressure, watchdog, and degenerate-input behavior of the service
//! core under synthetic open-loop load. No file I/O — these drive
//! `Service::process` directly.

use std::sync::OnceLock;

use ch_attack::{AttackerSpec, CityHunterConfig};
use ch_scenarios::{CityData, RunConfig};
use ch_serve::service::{ASSOC_COST_US, BASE_PROBE_COST_US, PER_LURE_COST_US};
use ch_serve::{EventSource, InputEvent, OutputEvent, ServeConfig, Service};
use ch_sim::SimDuration;
use ch_wifi::{MacAddr, Ssid};

const SEED: u64 = 0x10AD;

fn city() -> &'static CityData {
    static CITY: OnceLock<CityData> = OnceLock::new();
    CITY.get_or_init(|| CityData::standard(SEED))
}

fn service(ring: usize) -> Service {
    let mut config = ServeConfig::new(AttackerSpec::CityHunter(CityHunterConfig::default()), SEED);
    config.ring_capacity = ring;
    Service::new(city(), config)
}

fn mac(i: u32) -> MacAddr {
    let b = i.to_be_bytes();
    MacAddr::new([2, 0, b[1], b[2], b[3], 0])
}

/// An open-loop burst: `n` broadcast probes all arriving in the same
/// microsecond — far past any ring's capacity.
fn burst(n: u32) -> Vec<InputEvent> {
    (0..n)
        .map(|i| InputEvent::Probe {
            t_us: 1,
            client: mac(i),
            ssid: None,
        })
        .collect()
}

#[test]
fn burst_past_capacity_sheds_counted_and_never_panics() {
    let mut service = service(8);
    let mut emit = Vec::new();
    let events = burst(400);
    for event in &events {
        service.process(&event.clone(), &mut emit);
    }
    let stats = *service.stats();
    assert_eq!(stats.events, 400, "every arrival must be consumed");
    assert_eq!(stats.shed, 400 - 8, "overflow must shed, exactly counted");
    assert_eq!(stats.probes, 8, "only ring-capacity events are served");
    assert!(stats.lures > 0, "served events still produce lures");
}

#[test]
fn sim_stream_at_ten_times_capacity_sheds_and_consumes_every_event() {
    let spec = AttackerSpec::CityHunter(CityHunterConfig::default());
    let mut run = RunConfig::canteen_30min(spec, SEED);
    run.duration = SimDuration::from_mins(5);
    let source = EventSource::from_sim(city(), &run);
    let consume = |service: &mut Service, source: &EventSource| {
        let mut emit = Vec::new();
        for event in source.events() {
            service.process(event, &mut emit);
        }
    };
    // The stream's virtual busy time at its own pace, from the cost model,
    // sets the compression that offers ten times what the service can do.
    let mut paced = service(64);
    consume(&mut paced, &source);
    let stats = *paced.stats();
    let busy_us = stats.probes * BASE_PROBE_COST_US
        + stats.lures * PER_LURE_COST_US
        + stats.assocs * ASSOC_COST_US;
    let duration_us = source.events().last().map_or(0, InputEvent::t_us);
    let factor = (10 * duration_us / busy_us.max(1)).max(1);
    assert!(factor > 1, "a 5-minute stream must be compressible");

    let mut overloaded = service(64);
    consume(
        &mut overloaded,
        &source.clone().with_time_compressed(factor),
    );
    let stats = *overloaded.stats();
    assert!(
        stats.shed > 0,
        "10x overload must shed (counted backpressure)"
    );
    assert_eq!(
        stats.events,
        source.len() as u64,
        "every event must be consumed (processed or counted-shed)"
    );
}

#[test]
fn shedding_is_work_conserving_once_the_ring_drains() {
    let mut service = service(4);
    let mut emit = Vec::new();
    for event in burst(40) {
        service.process(&event, &mut emit);
    }
    assert_eq!(service.stats().shed, 36);
    // A later arrival, after the virtual ring has drained, is served.
    service.process(
        &InputEvent::Probe {
            t_us: service.clock_us() + 1,
            client: mac(999),
            ssid: None,
        },
        &mut emit,
    );
    assert_eq!(service.stats().shed, 36, "post-drain arrival must not shed");
    assert_eq!(service.stats().probes, 5);
    assert!(!emit.is_empty(), "post-drain arrival is served normally");
}

#[test]
fn queueing_latency_trips_the_deadline_watchdog() {
    let mut config = ServeConfig::new(AttackerSpec::CityHunter(CityHunterConfig::default()), SEED);
    config.ring_capacity = 64;
    config.deadline_us = 500; // tight: one lure burst costs ~1000 us
    let mut service = Service::new(city(), config);
    let mut emit = Vec::new();
    for event in burst(32) {
        service.process(&event, &mut emit);
    }
    let stats = *service.stats();
    assert!(
        stats.deadline_misses > 0,
        "queued bursts must blow a 500us deadline"
    );
    assert!(stats.deadline_misses <= stats.events);
    assert!(service.latency_percentile_us(99.0) >= service.latency_percentile_us(50.0));
}

#[test]
fn unmatched_associations_are_counted_not_fatal() {
    let mut service = service(64);
    let mut emit = Vec::new();
    // An association for an SSID never offered to this client.
    service.process(
        &InputEvent::Assoc {
            t_us: 10,
            client: mac(7),
            ssid: Ssid::new("never-offered").unwrap(),
        },
        &mut emit,
    );
    assert_eq!(service.stats().unmatched_assocs, 1);
    assert_eq!(service.stats().hits, 0);
    assert!(emit.is_empty());
}

#[test]
fn association_to_an_offered_lure_scores_a_hit() {
    let mut service = service(64);
    let mut emit = Vec::new();
    service.process(
        &InputEvent::Probe {
            t_us: 1,
            client: mac(1),
            ssid: None,
        },
        &mut emit,
    );
    let offered = emit
        .iter()
        .find_map(|e| match e {
            OutputEvent::Lure { ssid, .. } => Some(ssid.clone()),
            _ => None,
        })
        .expect("broadcast probe must draw lures");
    service.process(
        &InputEvent::Assoc {
            t_us: service.clock_us() + 1,
            client: mac(1),
            ssid: offered,
        },
        &mut emit,
    );
    assert_eq!(service.stats().hits, 1);
    assert_eq!(service.stats().unmatched_assocs, 0);
}

#[test]
fn identical_streams_produce_identical_counters_and_reports() {
    let events = burst(100);
    let run = || {
        let mut service = service(16);
        let mut emit = Vec::new();
        let mut lines = Vec::new();
        for event in &events {
            service.process(event, &mut emit);
            for out in &emit {
                lines.push(ch_serve::protocol::encode_output(out));
            }
        }
        (*service.stats(), service.report().render(), lines)
    };
    let (stats_a, report_a, lines_a) = run();
    let (stats_b, report_b, lines_b) = run();
    assert_eq!(stats_a, stats_b);
    assert_eq!(report_a, report_b);
    assert_eq!(lines_a, lines_b);
}
