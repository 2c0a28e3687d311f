//! perfbench — the deterministic hot-path performance gate.
//!
//! Unlike wall-clock timings (noisy; `benchmark/` reports those with
//! quartiles), this binary measures only quantities that are
//! *bit-identical across runs*:
//!
//! * **allocation medians** — with [`ch_sim::alloc::CountingAlloc`]
//!   installed as the global allocator, it runs the measurements in
//!   [`ch_bench::hotpath`] (the same ones `tests/zero_alloc.rs` asserts)
//!   and counts heap allocations per call on warm state. Steady-state
//!   probe handling must report a median of **0** allocations.
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

use ch_attack::{Attacker, CityHunterConfig, Lure};
use ch_bench::hotpath;
use ch_scenarios::experiments::CITY_SEED;
use ch_scenarios::runner::{run_experiment_with_attacker, RunConfig};
use ch_scenarios::{AttackerKind, CityData};
use ch_sim::{SimDuration, SimTime};
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::MacAddr;

#[global_allocator]
static ALLOC: ch_sim::alloc::CountingAlloc = ch_sim::alloc::CountingAlloc;

/// Probes measured per alloc metric (after warmup).
const FULL_ITERS: usize = 512;
const QUICK_ITERS: usize = 64;

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
    let mut attacker = CountingAttacker {
        inner: hotpath::canteen_hunter(data, CityHunterConfig::default()),
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
    let broadcast_tracking = hotpath::respond_broadcast(&data, iters, true);
    let broadcast_no_tracking = hotpath::respond_broadcast(&data, iters, false);
    let direct_known = hotpath::respond_direct_known(&data, iters);
    let select_warm = hotpath::select_into_warm(iters);
    let encode_warm = hotpath::encode_into_warm(iters);

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
