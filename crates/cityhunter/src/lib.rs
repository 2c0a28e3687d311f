//! # city-hunter — SSID-luring evil-twin attacks in simulated urban areas
//!
//! A research reproduction of **"City-Hunter: Hunting Smartphones in Urban
//! Areas"** (Liu, Wen, Tang, Cao, Shen — ICDCS 2017), built as a pure-Rust
//! simulation study. The crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`wifi`] | `ch-wifi` | 802.11 management frames, SSIDs, MACs, codec, scan timing |
//! | [`sim`] | `ch-sim` | deterministic discrete-event kernel, RNG, radio medium |
//! | [`geo`] | `ch-geo` | synthetic city, WiGLE-like AP snapshot, photo heat map |
//! | [`mobility`] | `ch-mobility` | venues, arrival processes, trajectories |
//! | [`phone`] | `ch-phone` | PNL generation, probing policies, auto-join logic |
//! | [`arc`] | `ch-arc` | the ARC cache (the §IV-C design inspiration) + baselines |
//! | [`attack`] | `ch-attack` | KARMA, MANA, preliminary & full City-Hunter |
//! | [`defense`] | `ch-defense` | client/operator-side evil-twin detection |
//! | [`detect`] | `ch-detect` | signature/behavior rogue-AP monitor + arms-race scoring |
//! | [`scenarios`] | `ch-scenarios` | experiment runner, metrics, table/figure drivers |
//!
//! ## Quickstart
//!
//! Deploy the full City-Hunter in a canteen for 30 simulated minutes:
//!
//! ```
//! use city_hunter::prelude::*;
//!
//! let data = CityData::standard(7);
//! let config = RunConfig::canteen_30min(
//!     AttackerKind::CityHunter(CityHunterConfig::default()),
//!     42,
//! );
//! let metrics = run_experiment(&data, &config);
//! let row = metrics.summary("City-Hunter");
//! assert!(row.h() >= row.h_b());
//! println!("h = {:.1}%, h_b = {:.1}%", 100.0 * row.h(), 100.0 * row.h_b());
//! ```
//!
//! Regenerate any of the paper's tables/figures with the drivers in
//! [`scenarios::experiments`], or from the command line:
//!
//! ```text
//! cargo run --release -p ch-bench --bin experiment -- table1   # … table2 table3 table4
//! cargo run --release -p ch-bench --bin experiment -- fig1     # … fig2 fig4 fig5 fig6
//! cargo run --release -p ch-bench --bin experiment -- ablation
//! cargo run --release -p ch-bench --bin experiment -- --list   # every artifact id
//! ```

pub use ch_arc as arc;
pub use ch_attack as attack;
pub use ch_defense as defense;
pub use ch_detect as detect;
pub use ch_geo as geo;
pub use ch_mobility as mobility;
pub use ch_phone as phone;
pub use ch_scenarios as scenarios;
pub use ch_sim as sim;
pub use ch_wifi as wifi;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ch_attack::{
        Attacker, CityHunter, CityHunterConfig, KarmaAttacker, Lure, LureLane, LureSource,
        ManaAttacker, PrelimCityHunter,
    };
    pub use ch_geo::{CityModel, HeatMap, PhotoCollection, WigleSnapshot};
    pub use ch_mobility::{VenueKind, VenueTemplate};
    pub use ch_phone::{Phone, Pnl, PnlEntry, PopulationBuilder, PopulationParams};
    pub use ch_scenarios::{
        run_experiment, AttackerKind, CityData, ExperimentMetrics, RunConfig, SummaryRow,
    };
    pub use ch_sim::{SimDuration, SimRng, SimTime};
    pub use ch_wifi::{MacAddr, Ssid};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let ssid = Ssid::new("CSL").unwrap();
        assert_eq!(ssid.as_str(), "CSL");
        let _ = SimDuration::from_mins(30);
        let _ = VenueKind::ALL;
    }
}
