//! Planar geometry in metres.
//!
//! Venue-scale layout (attacker placement, phone movement, radio range)
//! lives in a local Cartesian frame measured in metres; the city-scale
//! geography used by the WiGLE substrate has its own coordinate type in
//! `ch-geo` and converts into this frame when a venue is instantiated.

use std::fmt;

/// A point in the venue-local plane, in metres.
///
/// ```
/// use ch_sim::Position;
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East-west coordinate in metres.
    pub x: f64,
    /// North-south coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin of the local frame.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position from metric coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// The point a fraction `t` of the way towards `other`
    /// (`t = 0` is `self`, `t = 1` is `other`; values outside `[0,1]`
    /// extrapolate).
    pub fn lerp(self, other: Position, t: f64) -> Position {
        Position {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}m, {:.1}m)", self.x, self.y)
    }
}

/// An axis-aligned rectangle, used for venue footprints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum-x, minimum-y corner.
    pub min: Position,
    /// Maximum-x, maximum-y corner.
    pub max: Position,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Position, b: Position) -> Self {
        Rect {
            min: Position::new(a.x.min(b.x), a.y.min(b.y)),
            max: Position::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A rectangle of the given size with its minimum corner at the origin.
    pub fn from_size(width: f64, height: f64) -> Self {
        Rect::new(Position::ORIGIN, Position::new(width.abs(), height.abs()))
    }

    /// Width in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Geometric centre.
    pub fn center(&self) -> Position {
        Position::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Position) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the rectangle.
    pub fn clamp(&self, p: Position) -> Position {
        Position::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// A uniformly random point inside the rectangle.
    pub fn sample(&self, rng: &mut crate::SimRng) -> Position {
        Position::new(
            if self.width() > 0.0 {
                rng.range_f64(self.min.x, self.max.x)
            } else {
                self.min.x
            },
            if self.height() > 0.0 {
                rng.range_f64(self.min.y, self.max.y)
            } else {
                self.min.y
            },
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use proptest::prelude::*;

    #[test]
    fn distance_symmetric() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(-3.0, 5.0);
        assert_eq!(a.distance_to(b), b.distance_to(a));
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Position::new(5.0, -5.0));
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(Position::new(5.0, -1.0), Position::new(-5.0, 1.0));
        assert_eq!(r.min, Position::new(-5.0, -1.0));
        assert_eq!(r.max, Position::new(5.0, 1.0));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.center(), Position::new(0.0, 0.0));
    }

    #[test]
    fn contains_and_clamp() {
        let r = Rect::from_size(10.0, 4.0);
        assert!(r.contains(Position::new(0.0, 0.0)));
        assert!(r.contains(Position::new(10.0, 4.0)));
        assert!(!r.contains(Position::new(10.1, 2.0)));
        assert_eq!(r.clamp(Position::new(20.0, -3.0)), Position::new(10.0, 0.0));
    }

    #[test]
    fn sample_inside() {
        let r = Rect::from_size(60.0, 8.0);
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1_000 {
            assert!(r.contains(r.sample(&mut rng)));
        }
        // Degenerate rectangles sample their single line/point.
        let line = Rect::from_size(0.0, 5.0);
        let p = line.sample(&mut rng);
        assert_eq!(p.x, 0.0);
    }

    proptest! {
        #[test]
        fn prop_clamp_idempotent(
            px in -1000.0..1000.0f64, py in -1000.0..1000.0f64,
        ) {
            let r = Rect::from_size(50.0, 20.0);
            let c = r.clamp(Position::new(px, py));
            prop_assert!(r.contains(c));
            prop_assert_eq!(r.clamp(c), c);
        }
    }
}
