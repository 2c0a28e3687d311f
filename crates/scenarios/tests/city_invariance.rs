//! Shard-count and worker-width invariance for the sharded city.
//!
//! The city's determinism contract: the rendered artifact is
//! byte-identical at shard counts {1, 4, 16} and across `--jobs`
//! widths. Shards are an execution arrangement, never a semantic one —
//! exactly like the fleet pool, width must not leak into results.

use ch_scenarios::{run_city, CampaignCtx, CityConfig, CityData};

/// The CI-sized city the smoke leg runs, at a fixed width-independent
/// configuration (8 districts, 12 epochs).
fn base_config() -> CityConfig {
    CityConfig {
        epochs: 12,
        shards: 1,
        jobs: Some(1),
        ..CityConfig::quick(1)
    }
}

#[test]
fn city_quick_is_byte_identical_across_shard_counts_and_jobs() {
    let ctx = CampaignCtx::build(&CityData::standard(99));
    let reference = run_city(&ctx, &base_config());
    let text = reference.render();

    // The reference run is a real city, not a vacuous pass.
    assert!(
        reference.devices() > 500,
        "devices: {}",
        reference.devices()
    );
    assert!(reference.events() > 1000, "events: {}", reference.events());
    let (h_out, h_in) = reference.handoffs();
    assert!(h_out > 0 && h_in > 0, "mailbox never used: {h_out}/{h_in}");

    // Shard counts 1, 4, 16 (16 > districts exercises the clamp) and
    // several worker widths, in combination.
    for shards in [1usize, 4, 16] {
        for jobs in [1usize, 2, 8] {
            let outcome = run_city(
                &ctx,
                &CityConfig {
                    shards,
                    jobs: Some(jobs),
                    ..base_config()
                },
            );
            assert_eq!(
                outcome.render(),
                text,
                "shards={shards} jobs={jobs} diverged from the reference"
            );
        }
    }
}

/// The committed render of a 16-district city. Four blocks of four
/// districts put every attacker generation (City-Hunter, prelim, MANA,
/// KARMA) through the scan kernel. The test above compares runs of one
/// build with each other; this one pins the city's output across
/// commits, so a change to any layer the city runs shows up as a diff.
const GOLDEN_16_DISTRICTS: &str = include_str!("city_16_districts.golden");

#[test]
fn city_render_matches_the_committed_golden() {
    let ctx = CampaignCtx::build(&CityData::standard(99));
    let outcome = run_city(
        &ctx,
        &CityConfig {
            districts: 16,
            ..base_config()
        },
    );
    assert_eq!(
        outcome.render(),
        GOLDEN_16_DISTRICTS,
        "the 16-district city render moved"
    );
}

#[test]
fn city_seed_changes_the_city() {
    let ctx = CampaignCtx::build(&CityData::standard(99));
    let a = run_city(&ctx, &base_config());
    let b = run_city(
        &ctx,
        &CityConfig {
            seed: 2,
            ..base_config()
        },
    );
    assert_ne!(a.render(), b.render(), "seed must matter");
}
