//! Regression gate: steady-state probe handling performs **zero** heap
//! allocations.
//!
//! This is the perfbench claim as a plain `cargo test`, so the property is
//! checked on every test run, not only when the bench is regenerated. The
//! whole test binary runs under [`ch_sim::alloc::CountingAlloc`]; each case
//! warms the attacker (its client map, sent bitsets and scratch), then
//! asserts a median of zero allocations per call.

use ch_attack::buffers::{AdaptiveBuffers, SelectScratch};
use ch_attack::{Attacker, CityHunter, CityHunterConfig, Lure};
use ch_scenarios::experiments::CITY_SEED;
use ch_scenarios::CityData;
use ch_sim::alloc::count_allocations;
use ch_sim::{SimRng, SimTime};
use ch_wifi::mgmt::{MgmtFrame, ProbeRequest, ProbeResponse};
use ch_wifi::{codec, Channel, MacAddr, Ssid, SsidInterner};

#[global_allocator]
static ALLOC: ch_sim::alloc::CountingAlloc = ch_sim::alloc::CountingAlloc;

const ITERS: usize = 48;
const CLIENT_POOL: usize = 64;

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index([2, 0, 0], i)
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn warm_hunter(data: &CityData, tracking: bool) -> CityHunter {
    let site = data.site_for(ch_mobility::VenueKind::Canteen);
    let config = CityHunterConfig {
        untried_tracking: tracking,
        ..CityHunterConfig::default()
    };
    let mut hunter = CityHunter::new(mac(9_999), &data.wigle, &data.heat, site, config);
    // Deep database: the measured scans must never drain the untried list.
    for i in 0..1_700u32 {
        let probe = ProbeRequest::direct(mac(100_000 + i), Ssid::new_lossy(format!("D{i:04}")));
        hunter.respond_to_probe(SimTime::ZERO, &probe, 40);
    }
    hunter
}

fn broadcast_median(data: &CityData, tracking: bool) -> u64 {
    let mut hunter = warm_hunter(data, tracking);
    let probes: Vec<ProbeRequest> = (0..CLIENT_POOL as u32)
        .map(|i| ProbeRequest::broadcast(mac(i)))
        .collect();
    let mut out: Vec<Lure> = Vec::new();
    // Three warm scans per client enter every client in the tracker's map
    // and grow its sent bitset, which later extends only at amortized
    // doublings as deeper ids go out (same geometry as perfbench).
    for (w, probe) in probes.iter().cycle().take(3 * CLIENT_POOL).enumerate() {
        hunter.respond_to_probe_into(SimTime::from_secs(w as u64), probe, 40, &mut out);
    }
    let mut samples = Vec::with_capacity(ITERS);
    for (w, probe) in probes.iter().cycle().take(ITERS).enumerate() {
        let now = SimTime::from_secs(1_000 + w as u64);
        let (allocs, ()) =
            count_allocations(|| hunter.respond_to_probe_into(now, probe, 40, &mut out));
        samples.push(allocs);
    }
    median(&mut samples)
}

#[test]
fn broadcast_probe_handling_is_zero_alloc() {
    let data = CityData::standard(CITY_SEED);
    assert_eq!(broadcast_median(&data, true), 0, "tracking path allocates");
    assert_eq!(broadcast_median(&data, false), 0, "plain path allocates");
}

#[test]
fn known_direct_probe_handling_is_zero_alloc() {
    let data = CityData::standard(CITY_SEED);
    let mut hunter = warm_hunter(&data, true);
    let probes: Vec<ProbeRequest> = (0..32u32)
        .map(|i| ProbeRequest::direct(mac(i), Ssid::new_lossy(format!("K{i:02}"))))
        .collect();
    let mut out: Vec<Lure> = Vec::new();
    for probe in &probes {
        hunter.respond_to_probe_into(SimTime::ZERO, probe, 40, &mut out);
    }
    let mut samples = Vec::with_capacity(ITERS);
    for (w, probe) in probes.iter().cycle().take(ITERS).enumerate() {
        let now = SimTime::from_secs(1 + w as u64);
        let (allocs, ()) =
            count_allocations(|| hunter.respond_to_probe_into(now, probe, 40, &mut out));
        samples.push(allocs);
    }
    assert_eq!(median(&mut samples), 0, "direct-probe path allocates");
}

#[test]
fn warm_select_into_is_zero_alloc() {
    let buffers = AdaptiveBuffers::paper_default();
    let mut interner = SsidInterner::new();
    let by_weight: Vec<_> = (0..300)
        .map(|i| interner.intern(&Ssid::new_lossy(format!("w{i:03}"))))
        .collect();
    let by_fresh: Vec<_> = (0..60)
        .map(|i| interner.intern(&Ssid::new_lossy(format!("f{i:02}"))))
        .collect();
    let mut rng = SimRng::seed_from(7);
    let mut scratch = SelectScratch::new();
    let mut out = Vec::new();
    buffers.select_into(&by_weight, &by_fresh, 40, &mut rng, &mut scratch, &mut out);
    let mut samples = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let (allocs, ()) = count_allocations(|| {
            buffers.select_into(&by_weight, &by_fresh, 40, &mut rng, &mut scratch, &mut out);
        });
        samples.push(allocs);
    }
    assert_eq!(median(&mut samples), 0, "warm select_into allocates");
}

#[test]
fn warm_encode_into_is_zero_alloc() {
    let frame = MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
        mac(9),
        mac(1),
        Ssid::new_lossy("#HKAirport Free WiFi"),
        Channel::default_attack_channel(),
    ));
    let mut buf = Vec::new();
    codec::encode_into(&frame, &mut buf);
    let mut samples = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let (allocs, ()) = count_allocations(|| codec::encode_into(&frame, &mut buf));
        samples.push(allocs);
    }
    assert_eq!(median(&mut samples), 0, "warm encode_into allocates");
}
