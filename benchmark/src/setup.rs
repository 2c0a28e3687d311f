//! The fixed set-up every workload pays: the standard city
//! (`CityData::standard` at `CITY_SEED`) and, for the simulation
//! workloads, the build-once campaign context.

use std::hint::black_box;
use std::time::Instant;

use ch_attack::AttackSitePlan;
use ch_geo::{CityModel, HeatMap, PhotoCollection, WigleSnapshot};
use ch_mobility::VenueKind;
use ch_phone::popgen::{PopulationParams, PublicSsidPool};
use ch_scenarios::experiments::CITY_SEED;
use ch_scenarios::{CampaignCtx, CityData};
use ch_sim::SimRng;

use crate::report::{same, Outcome};
use crate::stats::Summary;

/// Photo count and heat-cell size `CityData::standard` uses; the traced
/// replay checks it rebuilds the same city with them.
const PHOTO_COUNT: usize = 40_000;
const HEAT_CELL_M: f64 = 100.0;

/// Replays of the set-up breakdown in a traced run (median reported).
const TRACED_REPS: usize = 7;

/// The standard city and its campaign context.
pub fn standard() -> (CityData, CampaignCtx) {
    let data = CityData::standard(CITY_SEED);
    let ctx = CampaignCtx::build(&data);
    (data, ctx)
}

/// Seconds for one set-up: the city, plus the campaign context when
/// `with_ctx` (the serve workload needs only the city).
pub fn time_once(with_ctx: bool) -> f64 {
    let start = Instant::now();
    let data = CityData::standard(CITY_SEED);
    if with_ctx {
        black_box(CampaignCtx::build(&data));
    }
    black_box(&data);
    start.elapsed().as_secs_f64()
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The set-up per layer: each step of `CityData::standard` and
/// `CampaignCtx::build` replayed through the same public calls, with the
/// rebuilt city checked against `reference`.
///
/// # Errors
///
/// When the replay does not rebuild the reference city.
pub fn traced(reference: &CityData) -> Result<Outcome, String> {
    let names = [
        "geo.city_ms",
        "geo.wigle_ms",
        "geo.photos_ms",
        "geo.heat_ms",
        "attack.site_plans_ms",
        "phone.ssid_pool_ms",
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for _ in 0..TRACED_REPS {
        let mut rng = SimRng::seed_from(CITY_SEED);
        let t = Instant::now();
        let city = CityModel::synthesize(&mut rng);
        samples[0].push(ms_since(t));
        let t = Instant::now();
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        samples[1].push(ms_since(t));
        let t = Instant::now();
        let photos = PhotoCollection::synthesize(&city, PHOTO_COUNT, &mut rng);
        samples[2].push(ms_since(t));
        let t = Instant::now();
        let heat = HeatMap::from_photos(&city, &photos, HEAT_CELL_M);
        samples[3].push(ms_since(t));
        let data = CityData { city, wigle, heat };
        same(
            "set-up replay: WiGLE size",
            &reference.wigle.len(),
            &data.wigle.len(),
        )?;
        same(
            "set-up replay: heat mass",
            &reference.heat.total_mass(),
            &data.heat.total_mass(),
        )?;
        let sites: Vec<_> = VenueKind::ALL.iter().map(|&v| data.site_for(v)).collect();
        let t = Instant::now();
        for &site in &sites {
            black_box(AttackSitePlan::build(&data.wigle, &data.heat, site));
        }
        samples[4].push(ms_since(t));
        let t = Instant::now();
        black_box(PublicSsidPool::build(
            &data.wigle,
            &data.heat,
            PopulationParams::default().attractiveness_alpha,
        ));
        samples[5].push(ms_since(t));
    }
    let mut out = Outcome::default();
    for (name, values) in names.iter().zip(&samples) {
        if let Some(summary) = Summary::of(values) {
            out.line(format!("{name}: {}", summary.describe(1.0, "ms")));
            out.metric(name, "ms", summary.median);
        }
    }
    Ok(out)
}
