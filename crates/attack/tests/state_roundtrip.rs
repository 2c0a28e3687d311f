//! `AttackerState` round trips for every generation, plain and evasive.
//!
//! Drive an attacker through a seeded mix of broadcast and direct probes,
//! hits and beacon polls, one event a second. About halfway through, in
//! the middle of a throttle window and a rotation slot, save its state and
//! load it into a freshly built attacker of the same spec. From then on
//! both must answer every event alike: the same lures, BSSID, beacon and
//! database size. A state loaded into another generation or wrapper shape
//! must be refused.

use ch_attack::{
    AttackSitePlan, Attacker, AttackerSpec, AttackerState, CityHunterConfig, EvasionSpec, Lure,
    RotationSpec, ThrottleSpec,
};
use ch_geo::{CityModel, HeatMap, PhotoCollection, WigleSnapshot};
use ch_sim::{SimDuration, SimRng, SimTime};
use ch_wifi::mgmt::{Beacon, ProbeRequest};
use ch_wifi::{MacAddr, Ssid};

fn fixture() -> AttackSitePlan {
    let mut rng = SimRng::seed_from(41);
    let city = CityModel::synthesize(&mut rng);
    let wigle = WigleSnapshot::synthesize(&city, &mut rng);
    let photos = PhotoCollection::synthesize(&city, 5_000, &mut rng);
    let heat = HeatMap::from_photos(&city, &photos, 100.0);
    AttackSitePlan::build(&wigle, &heat, city.pois()[3].location)
}

/// The four generations, then each wrapped with every evasion knob on.
fn specs() -> Vec<AttackerSpec> {
    let plain = [
        AttackerSpec::Karma,
        AttackerSpec::Mana,
        AttackerSpec::Prelim,
        AttackerSpec::CityHunter(CityHunterConfig::default()),
    ];
    let evasion = EvasionSpec {
        rotation: Some(RotationSpec {
            period: SimDuration::from_secs(90),
        }),
        beacon_clone: true,
        throttle: Some(ThrottleSpec {
            max_responses: 50,
            window: SimDuration::from_secs(20),
        }),
    };
    let evasive = plain.clone().map(|spec| spec.with_evasion(evasion.clone()));
    plain.into_iter().chain(evasive).collect()
}

fn build(spec: &AttackerSpec, plan: &AttackSitePlan) -> Box<dyn Attacker> {
    spec.build_from_plan(AttackerSpec::default_bssid(), plan)
}

/// What an attacker showed for one event.
type Seen = (Vec<Lure>, MacAddr, Option<Beacon>, usize);

/// One event of the seeded mix, drawn from `mix`; hits name lures from
/// `offered`, the lures sent so far. Returns the probing client too.
fn event(
    attacker: &mut dyn Attacker,
    step: u64,
    mix: &mut SimRng,
    offered: &[(MacAddr, Lure)],
) -> (MacAddr, Seen) {
    let now = SimTime::from_secs(step);
    let client = MacAddr::from_index([2, 0, 0], mix.range_usize(0, 48) as u32);
    let mut lures = Vec::new();
    match mix.range_usize(0, 10) {
        0..=2 => {
            let name = format!("Harvest-{}", mix.range_usize(0, 120));
            let probe = ProbeRequest::direct(client, Ssid::new_lossy(name));
            attacker.respond_to_probe_into(now, &probe, 40, &mut lures);
        }
        3 | 4 if !offered.is_empty() => {
            let (client, lure) = &offered[mix.range_usize(0, offered.len())];
            attacker.on_hit(now, *client, lure);
        }
        _ => {
            let probe = ProbeRequest::broadcast(client);
            attacker.respond_to_probe_into(now, &probe, 40, &mut lures);
        }
    }
    let beacon = attacker.beacon(now);
    (
        client,
        (lures, attacker.bssid(), beacon, attacker.database_len()),
    )
}

#[test]
fn loaded_state_continues_the_run_exactly() {
    // Throttle windows are 20 s and rotation slots 90 s long, and a cloned
    // beacon falls due every 2 s: the save lands mid-window, mid-slot.
    const STEPS: u64 = 600;
    const SAVE_AT: u64 = 307;
    let f = fixture();
    for spec in specs() {
        let mut reference = build(&spec, &f);
        let mut mix = SimRng::seed_from(7);
        let mut offered = Vec::new();
        for step in 0..SAVE_AT {
            let (client, (lures, ..)) = event(reference.as_mut(), step, &mut mix, &offered);
            offered.extend(lures.into_iter().map(|lure| (client, lure)));
        }
        let saved = AttackerState::save(reference.as_ref()).expect("a ch-attack attacker");
        let mut restored = build(&spec, &f);
        saved
            .load(restored.as_mut())
            .expect("same spec, same shape");

        let (mut lures_seen, mut beacons_seen) = (0, 0);
        for step in SAVE_AT..STEPS {
            let mut replay = mix.clone();
            let (client, want) = event(reference.as_mut(), step, &mut mix, &offered);
            let (_, got) = event(restored.as_mut(), step, &mut replay, &offered);
            assert_eq!(got, want, "{spec:?} at step {step}");
            lures_seen += want.0.len();
            beacons_seen += usize::from(want.2.is_some());
            offered.extend(want.0.into_iter().map(|lure| (client, lure)));
        }
        // The run after the load exercised what the state carries.
        let wrapped = matches!(spec, AttackerSpec::Evasive { .. });
        assert!(lures_seen > 0, "{spec:?} offered nothing");
        assert_eq!(beacons_seen > 0, wrapped, "{spec:?} beacons");
    }
}

#[test]
fn state_refuses_another_generation_or_wrapper_shape() {
    let f = fixture();
    let specs = specs();
    let mut attackers: Vec<Box<dyn Attacker>> = specs.iter().map(|spec| build(spec, &f)).collect();
    let saved: Vec<AttackerState> = attackers
        .iter()
        .map(|attacker| AttackerState::save(attacker.as_ref()).expect("a ch-attack attacker"))
        .collect();
    for (i, state) in saved.iter().enumerate() {
        for (j, into) in attackers.iter_mut().enumerate() {
            let loaded = state.clone().load(into.as_mut());
            assert_eq!(loaded.is_ok(), i == j, "{:?} into {:?}", specs[i], specs[j]);
        }
    }
}

/// An attacker type ch-attack does not define.
struct Foreign;

impl Attacker for Foreign {
    fn name(&self) -> &'static str {
        "foreign"
    }

    fn bssid(&self) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 1])
    }

    fn respond_to_probe_into(
        &mut self,
        _: SimTime,
        _: &ProbeRequest,
        _: usize,
        out: &mut Vec<Lure>,
    ) {
        out.clear();
    }

    fn on_hit(&mut self, _: SimTime, _: MacAddr, _: &Lure) {}

    fn database_len(&self) -> usize {
        0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn foreign_attackers_have_no_state() {
    assert!(AttackerState::save(&Foreign).is_none());
    let f = fixture();
    let saved = AttackerState::save(build(&AttackerSpec::Karma, &f).as_ref()).unwrap();
    assert!(saved.load(&mut Foreign).is_err());
    // A wrapper around a foreign attacker has no saveable state either.
    let evasive =
        ch_attack::EvasiveAttacker::new(Box::new(Foreign), EvasionSpec::clone_beacons(), None);
    assert!(AttackerState::save(&evasive).is_none());
}
