//! Golden acceptance for the registry refactor: the spec-driven driver
//! must reproduce the committed artifacts byte-for-byte at the default
//! seed, and a newly fleet-engined table-class experiment must render
//! bit-identically at any worker count.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use ch_fleet::FleetOptions;
use ch_scenarios::experiments::standard_city;
use ch_scenarios::registry::{self, RunParams};
use ch_scenarios::CampaignCtx;

static CITY: OnceLock<CampaignCtx> = OnceLock::new();

fn city() -> &'static CampaignCtx {
    CITY.get_or_init(|| CampaignCtx::build(&standard_city()))
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn registry_reproduces_the_committed_artifacts_at_the_default_seed() {
    for id in ["table1", "table2", "fig2", "defense", "defense_live"] {
        let spec = registry::find(id).expect("registered artifact");
        let params = RunParams::new(1);
        let opts = FleetOptions::in_memory(spec.campaign.unwrap_or(id), 0);
        let artifact = spec.run(city(), &params, &opts).expect("clean run");
        assert_eq!(
            artifact.text,
            golden(&format!("{id}.txt")),
            "registry `{id}` must match the committed results/{id}.txt"
        );
    }
}

#[test]
fn table2_renders_bit_identically_at_any_worker_count() {
    let spec = registry::find("table2").expect("registered artifact");
    let params = RunParams::new(1);
    let serial = spec
        .run(
            city(),
            &params,
            &FleetOptions::in_memory("table2", 0).with_jobs(Some(1)),
        )
        .expect("serial run");
    let wide = spec
        .run(
            city(),
            &params,
            &FleetOptions::in_memory("table2", 0).with_jobs(Some(4)),
        )
        .expect("parallel run");
    assert_eq!(
        serial.text, wide.text,
        "worker count must not leak into the table"
    );
    assert_eq!(serial.stats.expect("fleet stats").threads, 1);
    // Spawned width is the request capped at the machine's parallelism.
    assert_eq!(
        wide.stats.expect("fleet stats").threads,
        4.min(ch_fleet::worker_cap())
    );
}
