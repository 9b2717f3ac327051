//! 2-D points with Euclidean geometry.

use serde::{Deserialize, Serialize};

/// A point in the two-dimensional deployment plane.
///
/// Coordinates are metres throughout the workspace. The type is `Copy` and
/// 16 bytes, so it is passed by value everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Vertical coordinate (m).
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    #[inline]
    pub fn dist_sq(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl std::ops::Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, k: f64) -> Point2 {
        Point2::new(self.x * k, self.y * k)
    }
}

impl std::ops::Neg for Point2 {
    type Output = Point2;
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

/// Centroid (arithmetic mean) of a non-empty point set.
///
/// Returns `None` for an empty slice.
pub fn centroid(points: &[Point2]) -> Option<Point2> {
    if points.is_empty() {
        return None;
    }
    let (sx, sy) = points.iter().fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
    let n = points.len() as f64;
    Some(Point2::new(sx / n, sy / n))
}

/// Index of the point in `points` nearest to `target`, together with the
/// distance. Ties are broken by the lowest index. `None` on an empty slice.
pub fn nearest(points: &[Point2], target: Point2) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in points.iter().enumerate() {
        let d2 = p.dist_sq(target);
        match best {
            Some((_, bd2)) if bd2 <= d2 => {}
            _ => best = Some((i, d2)),
        }
    }
    best.map(|(i, d2)| (i, d2.sqrt()))
}

/// Total length of the open polyline visiting `points` in order.
pub fn polyline_length(points: &[Point2]) -> f64 {
    points.windows(2).map(|w| w[0].dist(w[1])).sum()
}

/// Total length of the closed polygon visiting `points` in order and
/// returning to the start. A single point (or empty slice) has length zero.
pub fn closed_tour_length(points: &[Point2]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    polyline_length(points) + points[points.len() - 1].dist(points[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point2::new(1.5, -2.0);
        let b = Point2::new(-4.0, 7.25);
        assert_eq!(a.dist(b), b.dist(a));
    }

    #[test]
    fn dist_to_self_is_zero() {
        let a = Point2::new(123.456, -789.0);
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 6.0);
        let m = a.midpoint(b);
        assert_eq!(m, Point2::new(1.0, 3.0));
        assert!((a.dist(m) - b.dist(m)).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(2.0, 2.0),
            Point2::new(0.0, 2.0),
        ];
        assert_eq!(centroid(&pts), Some(Point2::new(1.0, 1.0)));
    }

    #[test]
    fn centroid_empty_is_none() {
        assert_eq!(centroid(&[]), None);
    }

    #[test]
    fn nearest_finds_closest_and_breaks_ties_low() {
        let pts = [Point2::new(0.0, 0.0), Point2::new(10.0, 0.0), Point2::new(0.0, 10.0)];
        let (i, d) = nearest(&pts, Point2::new(1.0, 1.0)).unwrap();
        assert_eq!(i, 0);
        assert!((d - 2f64.sqrt()).abs() < 1e-12);

        // Equidistant from the first two points: lowest index wins.
        let (i, _) = nearest(&pts, Point2::new(5.0, 0.0)).unwrap();
        assert_eq!(i, 0);
    }

    #[test]
    fn nearest_empty_is_none() {
        assert_eq!(nearest(&[], Point2::ORIGIN), None);
    }

    #[test]
    fn polyline_and_closed_lengths() {
        let pts = [Point2::new(0.0, 0.0), Point2::new(3.0, 0.0), Point2::new(3.0, 4.0)];
        assert_eq!(polyline_length(&pts), 7.0);
        assert_eq!(closed_tour_length(&pts), 12.0);
    }

    #[test]
    fn degenerate_tours_have_zero_length() {
        assert_eq!(closed_tour_length(&[]), 0.0);
        assert_eq!(closed_tour_length(&[Point2::new(5.0, 5.0)]), 0.0);
    }

    #[test]
    fn vector_operators() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(b - a, Point2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(-a, Point2::new(-1.0, -2.0));
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
        assert!(!Point2::new(0.0, f64::INFINITY).is_finite());
    }
}
