//! Smoke tests for the table/figure drivers: every outcome renders, and
//! the paper's qualitative observations hold on the rendered artifacts.

use std::sync::OnceLock;

use ch_fleet::FleetOptions;
use city_hunter::scenarios::experiments as exp;
use city_hunter::scenarios::CampaignCtx;
use city_hunter::sim::SimDuration;

/// The standard city's campaign context, built once for the whole file.
fn ctx() -> &'static CampaignCtx {
    static CTX: OnceLock<CampaignCtx> = OnceLock::new();
    CTX.get_or_init(|| CampaignCtx::build(&exp::standard_city()))
}

#[test]
fn fig1_series_are_coherent() {
    let (outcome, _) = exp::fig1_fleet(ctx(), 9, &FleetOptions::in_memory("fig1", 0)).unwrap();
    // 30 one-minute samples (plus the t=0 sample).
    assert!(outcome.db_size.len() >= 30);
    // MANA's database only grows.
    for pair in outcome.db_size.windows(2) {
        assert!(pair[0].1 <= pair[1].1);
    }
    // Cumulative connections are monotone.
    for pair in outcome.connected.windows(2) {
        assert!(pair[0].1 <= pair[1].1);
    }
    // The §III-A point: the *last* windows are not systematically better
    // than the first, despite the database having grown severalfold.
    let rates: Vec<f64> = outcome
        .realtime_hb
        .iter()
        .map(|(_, hit, seen)| {
            if *seen == 0 {
                0.0
            } else {
                *hit as f64 / *seen as f64
            }
        })
        .collect();
    let first_half: f64 = rates[..rates.len() / 2].iter().sum::<f64>() / (rates.len() / 2) as f64;
    let second_half: f64 =
        rates[rates.len() / 2..].iter().sum::<f64>() / (rates.len() - rates.len() / 2) as f64;
    assert!(
        second_half < first_half + 0.08,
        "h_b^r should not climb with DB size: {first_half} -> {second_half}"
    );
    let rendered = outcome.render();
    assert!(rendered.contains("Fig. 1(a)"));
    assert!(rendered.contains("h_b^r"));
}

#[test]
fn fig2_depth_distributions() {
    let (outcome, _) = exp::fig2_fleet(ctx(), 9, &FleetOptions::in_memory("fig2", 0)).unwrap();
    // Canteen panel: deep (mean in the paper's 100-200 ballpark).
    let mean = outcome.canteen_mean();
    assert!((80.0..260.0).contains(&mean), "canteen mean {mean}");
    // Passage panel: shallow — nobody below 40 once observed, most at 40.
    assert!(!outcome.passage_offered_all.is_empty());
    let at_most_one_burst = outcome
        .passage_offered_all
        .iter()
        .filter(|&&c| c <= 40)
        .count() as f64
        / outcome.passage_offered_all.len() as f64;
    assert!(
        at_most_one_burst > 0.5,
        "single-burst share {at_most_one_burst}"
    );
    let rendered = outcome.render();
    assert!(rendered.contains("Fig. 2(a)"));
    assert!(rendered.contains("Fig. 2(b)"));
}

#[test]
fn table4_and_fig4_render() {
    let data = ctx().data();
    let t4 = exp::table4_with(data);
    assert!(t4.render().contains("heat value"));
    // Contrast: heat ranking differs from count ranking.
    let by_count: Vec<_> = t4.by_ap_count.iter().map(|(s, _)| s.clone()).collect();
    let by_heat: Vec<_> = t4.by_heat.iter().map(|(s, _)| s.clone()).collect();
    assert_ne!(by_count, by_heat, "the two rankings must differ");

    let f4 = exp::fig4_with(data);
    assert_eq!(f4.panels.len(), 2);
    assert!(f4.render().contains("Kowloon"));
}

#[test]
fn mini_campaign_preserves_venue_ordering() {
    // One representative hour per venue (noon) — the cheap version of the
    // Fig. 5 ordering check.
    let (outcome, _) = exp::campaign_fleet(
        ctx(),
        5,
        &[12],
        SimDuration::from_hours(1),
        &FleetOptions::in_memory("fig5", 0),
    )
    .unwrap();
    assert_eq!(outcome.venues.len(), 4);
    let hb = |venue: city_hunter::mobility::VenueKind| {
        outcome
            .venues
            .iter()
            .find(|v| v.venue == venue)
            .expect("venue present")
            .average_hb()
    };
    use city_hunter::mobility::VenueKind::*;
    assert!(
        hb(Canteen) > hb(SubwayPassage),
        "canteen {} vs passage {}",
        hb(Canteen),
        hb(SubwayPassage)
    );
    // Every hour row renders into both figures.
    assert!(outcome.render_fig5().contains("12:00"));
    assert!(outcome.render_fig6().contains("ratio"));
}
