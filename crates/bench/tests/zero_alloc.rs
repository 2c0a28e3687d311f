//! Regression gate: steady-state probe handling performs **zero** heap
//! allocations.
//!
//! This is the perfbench claim as a plain `cargo test`, so the property is
//! checked on every test run, not only when the bench is regenerated. The
//! whole test binary runs under [`ch_sim::alloc::CountingAlloc`]; each case
//! runs the [`ch_bench::hotpath`] measurement perfbench reports and asserts
//! a median of zero allocations per call.

use ch_bench::hotpath;
use ch_scenarios::experiments::CITY_SEED;
use ch_scenarios::CityData;

#[global_allocator]
static ALLOC: ch_sim::alloc::CountingAlloc = ch_sim::alloc::CountingAlloc;

const ITERS: usize = 48;

#[test]
fn broadcast_probe_handling_is_zero_alloc() {
    let data = CityData::standard(CITY_SEED);
    assert_eq!(
        hotpath::respond_broadcast(&data, ITERS, true),
        0,
        "tracking path allocates"
    );
    assert_eq!(
        hotpath::respond_broadcast(&data, ITERS, false),
        0,
        "plain path allocates"
    );
}

#[test]
fn known_direct_probe_handling_is_zero_alloc() {
    let data = CityData::standard(CITY_SEED);
    assert_eq!(
        hotpath::respond_direct_known(&data, ITERS),
        0,
        "direct-probe path allocates"
    );
}

#[test]
fn warm_select_into_is_zero_alloc() {
    assert_eq!(
        hotpath::select_into_warm(ITERS),
        0,
        "warm select_into allocates"
    );
}

#[test]
fn warm_encode_into_is_zero_alloc() {
    assert_eq!(
        hotpath::encode_into_warm(ITERS),
        0,
        "warm encode_into allocates"
    );
}
