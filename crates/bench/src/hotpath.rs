//! Hot-path allocation measurements: the one copy that `perfbench` (which
//! writes `results/BENCH_hotpath.json`) and `tests/zero_alloc.rs` (which
//! re-checks the zero-alloc gate under plain `cargo test`) both run.
//!
//! Each measurement warms its subject, then returns the median number of
//! heap allocations per call over `iters` calls. Allocations are read
//! through [`ch_sim::alloc`], whose counter always reads zero unless the
//! calling binary installed [`ch_sim::alloc::CountingAlloc`] as its
//! `#[global_allocator]`. So every measurement first checks that one
//! deliberate allocation is counted, and panics if it is not: a binary
//! without the allocator would otherwise pass every gate with a vacuous 0.

use std::hint::black_box;

use ch_attack::buffers::{AdaptiveBuffers, SelectScratch};
use ch_attack::{AttackSitePlan, Attacker, CityHunter, CityHunterConfig, Lure};
use ch_scenarios::CityData;
use ch_sim::alloc::count_allocations;
use ch_sim::{SimRng, SimTime};
use ch_wifi::mgmt::{MgmtFrame, ProbeRequest, ProbeResponse};
use ch_wifi::{codec, Channel, MacAddr, Ssid, SsidInterner};

/// Warm pool of broadcast clients, round-robined so per-client untried
/// lists never exhaust inside the measurement window.
const CLIENT_POOL: usize = 64;

/// Direct-probe SSIDs harvested before measuring, so the database is deep
/// enough to serve every measured scan (pool × scans × 40 lures).
const HARVEST: usize = 1_700;

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index([2, 0, 0], i)
}

/// Panics unless the calling binary counts allocations.
fn assert_counting_alloc() {
    let (allocs, ()) = count_allocations(|| drop(black_box(Box::new(0u8))));
    assert!(
        allocs >= 1,
        "a one-byte allocation was not counted: install \
         ch_sim::alloc::CountingAlloc as this binary's #[global_allocator]"
    );
}

/// Median allocations per call of `call` over `iters` calls; `call` gets
/// the call's index.
fn median_per_call(iters: usize, mut call: impl FnMut(usize)) -> u64 {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let (allocs, ()) = count_allocations(|| call(i));
        samples.push(allocs);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A City-Hunter deployed at the canteen site.
pub fn canteen_hunter(data: &CityData, config: CityHunterConfig) -> CityHunter {
    let site = data.site_for(ch_mobility::VenueKind::Canteen);
    let plan = AttackSitePlan::build(&data.wigle, &data.heat, site);
    CityHunter::from_plan(mac(9_999), &plan, config)
}

/// A canteen City-Hunter whose database is deepened past what any
/// measurement can drain.
fn harvested_hunter(data: &CityData, tracking: bool) -> CityHunter {
    let config = CityHunterConfig {
        untried_tracking: tracking,
        ..CityHunterConfig::default()
    };
    let mut hunter = canteen_hunter(data, config);
    for i in 0..HARVEST as u32 {
        let probe = ProbeRequest::direct(mac(100_000 + i), Ssid::new_lossy(format!("D{i:04}")));
        hunter.respond_to_probe(SimTime::ZERO, &probe, 40);
    }
    hunter
}

/// Allocations per broadcast probe on a warm City-Hunter, with or without
/// untried tracking.
pub fn respond_broadcast(data: &CityData, iters: usize, tracking: bool) -> u64 {
    assert_counting_alloc();
    let mut hunter = harvested_hunter(data, tracking);
    // Pre-built probes: probe construction is not the code under test.
    let probes: Vec<ProbeRequest> = (0..CLIENT_POOL as u32)
        .map(|i| ProbeRequest::broadcast(mac(i)))
        .collect();
    let mut out: Vec<Lure> = Vec::new();
    // Warmup: three scans per client, so every client is in the tracker's
    // map with 120 ids in its sent bitset, and all scratch reaches
    // capacity. A bitset extends only at amortized doublings as deeper
    // ids go out, so the median measured scan allocates nothing.
    for (w, probe) in probes.iter().cycle().take(3 * CLIENT_POOL).enumerate() {
        hunter.respond_to_probe_into(SimTime::from_secs(w as u64), probe, 40, &mut out);
    }
    median_per_call(iters, |w| {
        let now = SimTime::from_secs(1_000 + w as u64);
        hunter.respond_to_probe_into(now, &probes[w % CLIENT_POOL], 40, &mut out);
    })
}

/// Allocations per *direct* probe for an already-known SSID, on a
/// harvested, tracking City-Hunter.
pub fn respond_direct_known(data: &CityData, iters: usize) -> u64 {
    assert_counting_alloc();
    let mut hunter = harvested_hunter(data, true);
    let probes: Vec<ProbeRequest> = (0..32u32)
        .map(|i| ProbeRequest::direct(mac(i), Ssid::new_lossy(format!("K{i:02}"))))
        .collect();
    let mut out: Vec<Lure> = Vec::new();
    // First pass harvests the SSIDs; afterwards every probe is a known hit.
    for probe in &probes {
        hunter.respond_to_probe_into(SimTime::ZERO, probe, 40, &mut out);
    }
    median_per_call(iters, |w| {
        let now = SimTime::from_secs(1 + w as u64);
        hunter.respond_to_probe_into(now, &probes[w % probes.len()], 40, &mut out);
    })
}

/// Allocations per buffer selection into warm scratch.
pub fn select_into_warm(iters: usize) -> u64 {
    assert_counting_alloc();
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
    median_per_call(iters, |_| {
        buffers.select_into(&by_weight, &by_fresh, 40, &mut rng, &mut scratch, &mut out);
    })
}

/// Allocations per frame encode into a warm buffer.
pub fn encode_into_warm(iters: usize) -> u64 {
    assert_counting_alloc();
    let frame = MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
        mac(9),
        mac(1),
        Ssid::new_lossy("#HKAirport Free WiFi"),
        Channel::default_attack_channel(),
    ));
    let mut buf = Vec::new();
    codec::encode_into(&frame, &mut buf);
    median_per_call(iters, |_| codec::encode_into(&frame, &mut buf))
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use ch_scenarios::experiments::CITY_SEED;

    use super::*;

    #[test]
    fn measurements_refuse_to_run_without_the_counting_allocator() {
        // This test binary installs no `CountingAlloc`, so each measurement
        // below would otherwise report a vacuous 0.
        let data = CityData::standard(CITY_SEED);
        let cases: [(&str, &dyn Fn() -> u64); 4] = [
            ("respond_broadcast", &|| respond_broadcast(&data, 1, true)),
            ("respond_direct_known", &|| respond_direct_known(&data, 1)),
            ("select_into_warm", &|| select_into_warm(1)),
            ("encode_into_warm", &|| encode_into_warm(1)),
        ];
        for (name, measure) in cases {
            let panic = catch_unwind(AssertUnwindSafe(measure)).expect_err(name);
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(message.contains("CountingAlloc"), "{name}: {message}");
        }
    }
}
