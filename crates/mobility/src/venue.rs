//! The four evaluation venues.
//!
//! Each venue is a template: a footprint, the attacker's perch, how people
//! move through (transit vs dwell mix), how fast arrivals come at each hour
//! and in what group sizes. The concrete numbers are calibrated so that the
//! *client volumes* and *residence times* land in the ranges the paper
//! reports (e.g. ~2,500 clients through the passage in the 8–9 am test,
//! 30-minute canteen sittings vs ~45-second passage transits).

use ch_sim::{Position, Rect, SimDuration, SimRng};

use crate::profile::TimeOfDayProfile;

/// Which of the paper's venues to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VenueKind {
    /// §III/§V subway passage: a corridor of fast-moving commuters.
    SubwayPassage,
    /// §III/§V canteen: seated diners, long dwell.
    Canteen,
    /// §V shopping centre: hybrid browse/walk.
    ShoppingCenter,
    /// §V railway station: hybrid wait/transit.
    RailwayStation,
}

impl VenueKind {
    /// All four venues in Fig. 5 order.
    pub const ALL: [VenueKind; 4] = [
        VenueKind::SubwayPassage,
        VenueKind::Canteen,
        VenueKind::ShoppingCenter,
        VenueKind::RailwayStation,
    ];

    /// Human-readable name, as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            VenueKind::SubwayPassage => "subway passage",
            VenueKind::Canteen => "canteen",
            VenueKind::ShoppingCenter => "shopping center",
            VenueKind::RailwayStation => "railway station",
        }
    }

    /// The calibrated template for this venue.
    pub fn template(self) -> VenueTemplate {
        match self {
            VenueKind::SubwayPassage => VenueTemplate {
                kind: self,
                footprint: Rect::from_size(120.0, 10.0),
                attacker: Position::new(60.0, 5.0),
                profile: TimeOfDayProfile::commuter(),
                // ~2550 clients passed in the 8-9am test (Fig. 5a); the
                // commuter peak multiplier is 2.4.
                base_groups_per_hour: 800.0,
                movement: MovementMix {
                    transit_fraction: 1.0,
                    walk_speed_mps: (1.0, 1.7),
                    dwell: (SimDuration::from_secs(0), SimDuration::from_secs(0)),
                },
                group_sizes: GroupSizeDist::new([0.72, 0.20, 0.06, 0.02]),
                rush_group_sizes: GroupSizeDist::new([0.58, 0.28, 0.10, 0.04]),
            },
            VenueKind::Canteen => VenueTemplate {
                kind: self,
                footprint: Rect::from_size(45.0, 30.0),
                attacker: Position::new(22.5, 15.0),
                profile: TimeOfDayProfile::mealtime(),
                base_groups_per_hour: 330.0,
                movement: MovementMix {
                    transit_fraction: 0.05,
                    walk_speed_mps: (0.8, 1.3),
                    dwell: (SimDuration::from_mins(12), SimDuration::from_mins(40)),
                },
                group_sizes: GroupSizeDist::new([0.34, 0.36, 0.19, 0.11]),
                rush_group_sizes: GroupSizeDist::new([0.26, 0.38, 0.22, 0.14]),
            },
            VenueKind::ShoppingCenter => VenueTemplate {
                kind: self,
                footprint: Rect::from_size(80.0, 60.0),
                attacker: Position::new(40.0, 30.0),
                profile: TimeOfDayProfile::retail(),
                base_groups_per_hour: 420.0,
                movement: MovementMix {
                    transit_fraction: 0.55,
                    walk_speed_mps: (0.7, 1.4),
                    dwell: (SimDuration::from_mins(3), SimDuration::from_mins(18)),
                },
                group_sizes: GroupSizeDist::new([0.46, 0.32, 0.14, 0.08]),
                rush_group_sizes: GroupSizeDist::new([0.40, 0.34, 0.16, 0.10]),
            },
            VenueKind::RailwayStation => VenueTemplate {
                kind: self,
                footprint: Rect::from_size(100.0, 50.0),
                attacker: Position::new(50.0, 25.0),
                profile: TimeOfDayProfile::terminus(),
                base_groups_per_hour: 520.0,
                movement: MovementMix {
                    transit_fraction: 0.45,
                    walk_speed_mps: (0.9, 1.6),
                    dwell: (SimDuration::from_mins(4), SimDuration::from_mins(20)),
                },
                group_sizes: GroupSizeDist::new([0.52, 0.28, 0.13, 0.07]),
                rush_group_sizes: GroupSizeDist::new([0.44, 0.32, 0.15, 0.09]),
            },
        }
    }
}

/// How people move through a venue.
#[derive(Debug, Clone, PartialEq)]
pub struct MovementMix {
    /// Fraction of visitors who walk straight through (vs dwell).
    pub transit_fraction: f64,
    /// Walking-speed range in m/s.
    pub walk_speed_mps: (f64, f64),
    /// Dwell-duration range for non-transit visitors.
    pub dwell: (SimDuration, SimDuration),
}

/// Distribution over group sizes 1–4.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSizeDist {
    probs: [f64; 4],
}

impl GroupSizeDist {
    /// Creates a distribution from probabilities for sizes 1..=4.
    ///
    /// # Panics
    ///
    /// Panics unless the probabilities are non-negative and sum to ~1.
    pub fn new(probs: [f64; 4]) -> Self {
        let sum: f64 = probs.iter().sum();
        assert!(
            probs.iter().all(|p| *p >= 0.0) && (sum - 1.0).abs() < 1e-9,
            "group-size probabilities must sum to 1, got {probs:?}"
        );
        GroupSizeDist { probs }
    }

    /// Draws a group size in 1..=4.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        rng.weighted_index(&self.probs)
            .expect("probabilities sum to 1")
            + 1
    }

    /// Expected group size.
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Probability that a group has more than one member.
    pub fn companionship(&self) -> f64 {
        1.0 - self.probs[0]
    }
}

/// A fully instantiated venue description.
#[derive(Debug, Clone, PartialEq)]
pub struct VenueTemplate {
    /// Which venue this is.
    pub kind: VenueKind,
    /// Local footprint in metres.
    pub footprint: Rect,
    /// Attacker position (centre of the venue, per the deployments).
    pub attacker: Position,
    /// Hourly arrival-intensity curve.
    pub profile: TimeOfDayProfile,
    /// Group arrivals per hour at multiplier 1.0.
    pub base_groups_per_hour: f64,
    /// Movement behaviour.
    pub movement: MovementMix,
    /// Group sizes off-peak.
    pub group_sizes: GroupSizeDist,
    /// Group sizes during rush hours (more companions, §V-A).
    pub rush_group_sizes: GroupSizeDist,
}

impl VenueTemplate {
    /// Group arrival rate (groups/hour) at wall-clock `hour`.
    pub fn groups_per_hour(&self, hour: usize) -> f64 {
        self.base_groups_per_hour * self.profile.multiplier(hour)
    }

    /// The group-size distribution in force at `hour`.
    pub fn group_sizes_at(&self, hour: usize) -> &GroupSizeDist {
        if self.profile.is_rush_hour(hour) {
            &self.rush_group_sizes
        } else {
            &self.group_sizes
        }
    }

    /// Entry point for a new group (west end of corridors, a random edge
    /// elsewhere).
    pub fn entry_point(&self, rng: &mut SimRng) -> Position {
        match self.kind {
            VenueKind::SubwayPassage => Position::new(
                self.footprint.min.x,
                rng.range_f64(self.footprint.min.y, self.footprint.max.y),
            ),
            _ => {
                // A random point on the footprint boundary.
                let p = self.footprint.sample(rng);
                if rng.chance(0.5) {
                    Position::new(
                        if rng.chance(0.5) {
                            self.footprint.min.x
                        } else {
                            self.footprint.max.x
                        },
                        p.y,
                    )
                } else {
                    Position::new(
                        p.x,
                        if rng.chance(0.5) {
                            self.footprint.min.y
                        } else {
                            self.footprint.max.y
                        },
                    )
                }
            }
        }
    }

    /// Exit point for a group that entered at `entry`.
    pub fn exit_point(&self, entry: Position, rng: &mut SimRng) -> Position {
        match self.kind {
            VenueKind::SubwayPassage => Position::new(
                self.footprint.max.x,
                rng.range_f64(self.footprint.min.y, self.footprint.max.y),
            ),
            _ => {
                // Leave via a different random boundary point.
                let mut exit = self.entry_point(rng);
                if exit.distance_to(entry) < 1.0 {
                    exit =
                        Position::new(self.footprint.max.x - exit.x + self.footprint.min.x, exit.y);
                }
                exit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passage_is_pure_transit_canteen_is_not() {
        let passage = VenueKind::SubwayPassage.template();
        let canteen = VenueKind::Canteen.template();
        assert_eq!(passage.movement.transit_fraction, 1.0);
        assert!(canteen.movement.transit_fraction < 0.1);
        assert!(canteen.movement.dwell.1 >= SimDuration::from_mins(30));
    }

    #[test]
    fn hybrid_venues_mix() {
        for kind in [VenueKind::ShoppingCenter, VenueKind::RailwayStation] {
            let t = kind.template();
            assert!(
                (0.2..0.8).contains(&t.movement.transit_fraction),
                "{}: {}",
                kind.name(),
                t.movement.transit_fraction
            );
        }
    }

    #[test]
    fn passage_peak_volume_matches_paper_scale() {
        let t = VenueKind::SubwayPassage.template();
        let peak_groups = t.groups_per_hour(8);
        let mean_size = t.group_sizes_at(8).mean();
        let people = peak_groups * mean_size;
        // Fig. 5(a): 2562 clients in the 8-9am test.
        assert!(
            (2_000.0..3_500.0).contains(&people),
            "peak passage flow {people}"
        );
    }

    #[test]
    fn rush_hours_have_more_companionship() {
        for kind in VenueKind::ALL {
            let t = kind.template();
            assert!(
                t.rush_group_sizes.companionship() > t.group_sizes.companionship(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn group_size_sampling_in_range() {
        let dist = GroupSizeDist::new([0.25, 0.25, 0.25, 0.25]);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1_000 {
            let s = dist.sample(&mut rng);
            assert!((1..=4).contains(&s));
        }
        assert!((dist.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_group_dist_rejected() {
        let _ = GroupSizeDist::new([0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn passage_entries_west_exits_east() {
        let t = VenueKind::SubwayPassage.template();
        let mut rng = SimRng::seed_from(7);
        for _ in 0..50 {
            let entry = t.entry_point(&mut rng);
            assert_eq!(entry.x, t.footprint.min.x);
            let exit = t.exit_point(entry, &mut rng);
            assert_eq!(exit.x, t.footprint.max.x);
        }
    }

    #[test]
    fn entries_on_boundary_for_open_venues() {
        let t = VenueKind::ShoppingCenter.template();
        let mut rng = SimRng::seed_from(8);
        for _ in 0..100 {
            let e = t.entry_point(&mut rng);
            let on_x = e.x == t.footprint.min.x || e.x == t.footprint.max.x;
            let on_y = e.y == t.footprint.min.y || e.y == t.footprint.max.y;
            assert!(on_x || on_y, "{e} not on boundary");
            assert!(t.footprint.contains(e));
        }
    }

    #[test]
    fn attacker_inside_footprint() {
        for kind in VenueKind::ALL {
            let t = kind.template();
            assert_eq!(t.kind, kind, "{}", kind.name());
            assert!(t.footprint.contains(t.attacker), "{}", kind.name());
        }
    }
}
