//! perfbench — the deterministic hot-path performance gate.
//!
//! Unlike the criterion benches (wall-clock, noisy, advisory), this binary
//! measures only quantities that are *bit-identical across runs*:
//!
//! * **allocation medians** — with [`ch_sim::alloc::CountingAlloc`]
//!   installed as the global allocator, it counts heap allocations per
//!   probe on warm attacker state. The tentpole claim of the zero-alloc
//!   refactor is checked here: steady-state probe handling must report a
//!   median of **0** allocations.
//! * **event throughput** — probes handled per *simulated* minute in a
//!   fixed-seed canteen run, counted by wrapping the attacker. Sim-clock
//!   based, so no wall-clock enters the output.
//!
//! The JSON it writes (`results/BENCH_hotpath.json` by default) has a fixed
//! key order and integer-only metrics; `ci.sh` runs it twice in `--quick`
//! mode and requires the two outputs to be byte-identical.
//!
//! Usage: `perfbench [--quick] [--out PATH]`

use std::io::Write as _;

use ch_attack::buffers::{AdaptiveBuffers, SelectScratch};
use ch_attack::{Attacker, CityHunter, CityHunterConfig, Lure};
use ch_scenarios::experiments::CITY_SEED;
use ch_scenarios::runner::{run_experiment_with_attacker, RunConfig};
use ch_scenarios::{AttackerKind, CityData};
use ch_sim::alloc::count_allocations;
use ch_sim::{SimDuration, SimRng, SimTime};
use ch_wifi::mgmt::{MgmtFrame, ProbeRequest, ProbeResponse};
use ch_wifi::{codec, Channel, MacAddr, Ssid, SsidInterner};

#[global_allocator]
static ALLOC: ch_sim::alloc::CountingAlloc = ch_sim::alloc::CountingAlloc;

/// Probes measured per alloc metric (after warmup).
const FULL_ITERS: usize = 512;
const QUICK_ITERS: usize = 64;

/// Warm pool of broadcast clients, round-robined so per-client untried
/// lists never exhaust inside the measurement window.
const CLIENT_POOL: usize = 64;

/// Direct-probe SSIDs harvested before measuring, so the database is deep
/// enough to serve every measured scan (pool × scans × 40 lures).
const HARVEST: usize = 1_700;

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index([2, 0, 0], i)
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Measures allocations per broadcast probe on a warm City-Hunter.
fn respond_broadcast_median(data: &CityData, iters: usize, tracking: bool) -> u64 {
    let site = data.site_for(ch_mobility::VenueKind::Canteen);
    let config = CityHunterConfig {
        untried_tracking: tracking,
        ..CityHunterConfig::default()
    };
    let mut hunter = CityHunter::new(mac(9_999), &data.wigle, &data.heat, site, config);

    // Deepen the database past what the measurement can drain.
    for i in 0..HARVEST as u32 {
        let probe = ProbeRequest::direct(mac(100_000 + i), Ssid::new_lossy(format!("D{i:04}")));
        hunter.respond_to_probe(SimTime::ZERO, &probe, 40);
    }

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

    let mut samples = Vec::with_capacity(iters);
    for (w, probe) in probes.iter().cycle().take(iters).enumerate() {
        let now = SimTime::from_secs(1_000 + w as u64);
        let (allocs, ()) =
            count_allocations(|| hunter.respond_to_probe_into(now, probe, 40, &mut out));
        samples.push(allocs);
    }
    median(&mut samples)
}

/// Measures allocations per *direct* probe for already-known SSIDs.
fn respond_direct_median(data: &CityData, iters: usize) -> u64 {
    let site = data.site_for(ch_mobility::VenueKind::Canteen);
    let mut hunter = CityHunter::new(
        mac(9_999),
        &data.wigle,
        &data.heat,
        site,
        CityHunterConfig::default(),
    );
    let probes: Vec<ProbeRequest> = (0..32u32)
        .map(|i| ProbeRequest::direct(mac(i), Ssid::new_lossy(format!("K{i:02}"))))
        .collect();
    let mut out: Vec<Lure> = Vec::new();
    // First pass harvests the SSIDs; afterwards every probe is a known hit.
    for probe in &probes {
        hunter.respond_to_probe_into(SimTime::ZERO, probe, 40, &mut out);
    }
    let mut samples = Vec::with_capacity(iters);
    for (w, probe) in probes.iter().cycle().take(iters).enumerate() {
        let now = SimTime::from_secs(1 + w as u64);
        let (allocs, ()) =
            count_allocations(|| hunter.respond_to_probe_into(now, probe, 40, &mut out));
        samples.push(allocs);
    }
    median(&mut samples)
}

/// Measures allocations per warm-scratch buffer selection.
fn select_into_median(iters: usize) -> u64 {
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

    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (allocs, ()) = count_allocations(|| {
            buffers.select_into(&by_weight, &by_fresh, 40, &mut rng, &mut scratch, &mut out);
        });
        samples.push(allocs);
    }
    median(&mut samples)
}

/// Measures allocations per frame encode into a warm buffer.
fn encode_into_median(iters: usize) -> u64 {
    let frame = MgmtFrame::ProbeResponse(ProbeResponse::open_lure(
        mac(9),
        mac(1),
        Ssid::new_lossy("#HKAirport Free WiFi"),
        Channel::default_attack_channel(),
    ));
    let mut buf = Vec::new();
    codec::encode_into(&frame, &mut buf);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (allocs, ()) = count_allocations(|| codec::encode_into(&frame, &mut buf));
        samples.push(allocs);
    }
    median(&mut samples)
}

/// Wraps an attacker and counts how many probes it answers.
struct CountingAttacker<A> {
    inner: A,
    probes: u64,
}

impl<A: Attacker + 'static> Attacker for CountingAttacker<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bssid(&self) -> MacAddr {
        self.inner.bssid()
    }

    fn respond_to_probe_into(
        &mut self,
        now: SimTime,
        probe: &ProbeRequest,
        budget: usize,
        out: &mut Vec<Lure>,
    ) {
        self.probes += 1;
        self.inner.respond_to_probe_into(now, probe, budget, out);
    }

    fn on_hit(&mut self, now: SimTime, client: MacAddr, lure: &Lure) {
        self.inner.on_hit(now, client, lure);
    }

    fn database_len(&self) -> usize {
        self.inner.database_len()
    }

    fn deauth_enabled(&self) -> bool {
        self.inner.deauth_enabled()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One fixed-seed canteen run; throughput in probes per simulated minute.
fn throughput(data: &CityData, minutes: u64) -> (u64, u64, u64) {
    let config = RunConfig {
        duration: SimDuration::from_mins(minutes),
        ..RunConfig::canteen_30min(AttackerKind::CityHunter(CityHunterConfig::default()), 1)
    };
    let site = data.site_for(config.venue);
    let mut attacker = CountingAttacker {
        inner: CityHunter::new(
            mac(9_999),
            &data.wigle,
            &data.heat,
            site,
            CityHunterConfig::default(),
        ),
        probes: 0,
    };
    let metrics = run_experiment_with_attacker(data, &config, &mut attacker);
    let sim_seconds = config.duration.as_secs();
    let per_minute = attacker.probes * 60 / sim_seconds.max(1);
    // Keep the run honest: a throughput figure over an empty room would be
    // meaningless.
    assert!(metrics.client_count() > 0, "throughput run saw no clients");
    (sim_seconds, attacker.probes, per_minute)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("results/BENCH_hotpath.json", String::as_str);
    let iters = if quick { QUICK_ITERS } else { FULL_ITERS };
    let minutes = if quick { 5 } else { 30 };

    eprintln!("perfbench: building the standard city (seed {CITY_SEED:#x})...");
    let data = CityData::standard(CITY_SEED);

    eprintln!("perfbench: alloc medians over {iters} probes each...");
    let broadcast_tracking = respond_broadcast_median(&data, iters, true);
    let broadcast_no_tracking = respond_broadcast_median(&data, iters, false);
    let direct_known = respond_direct_median(&data, iters);
    let select_warm = select_into_median(iters);
    let encode_warm = encode_into_median(iters);

    eprintln!("perfbench: {minutes}-simulated-minute canteen throughput run...");
    let (sim_seconds, probes, per_minute) = throughput(&data, minutes);

    // Hand-rolled JSON with a fixed key order and integer-only values, so
    // two runs of the same build produce byte-identical files.
    let mode = if quick { "quick" } else { "full" };
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"mode\": \"{mode}\",\n  \"alloc_iters\": {iters},\n  \
         \"alloc_median_per_call\": {{\n    \
         \"respond_broadcast_tracking\": {broadcast_tracking},\n    \
         \"respond_broadcast_no_tracking\": {broadcast_no_tracking},\n    \
         \"respond_direct_known\": {direct_known},\n    \
         \"select_into_warm\": {select_warm},\n    \
         \"encode_into_warm\": {encode_warm}\n  }},\n  \
         \"throughput\": {{\n    \
         \"seed\": 1,\n    \
         \"sim_seconds\": {sim_seconds},\n    \
         \"probes_handled\": {probes},\n    \
         \"probes_per_sim_minute\": {per_minute}\n  }}\n}}\n"
    );

    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    let mut file = std::fs::File::create(out_path).expect("create output file");
    file.write_all(json.as_bytes()).expect("write bench json");
    print!("{json}");
    eprintln!("perfbench: wrote {out_path}");

    // The gate itself: steady-state probe handling must not allocate.
    for (name, value) in [
        ("respond_broadcast_tracking", broadcast_tracking),
        ("respond_broadcast_no_tracking", broadcast_no_tracking),
        ("respond_direct_known", direct_known),
        ("select_into_warm", select_warm),
        ("encode_into_warm", encode_warm),
    ] {
        assert_eq!(value, 0, "hot path `{name}` allocates at steady state");
    }
}
