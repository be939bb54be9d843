//! Basic geometry shared across the workspace.

/// Axis-aligned rectangle in pixel coordinates (integer grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    pub x: i32,
    pub y: i32,
    pub w: u32,
    pub h: u32,
}

impl Rect {
    pub const fn new(x: i32, y: i32, w: u32, h: u32) -> Self {
        Self { x, y, w, h }
    }

    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    pub fn right(&self) -> i32 {
        self.x + self.w as i32
    }

    pub fn bottom(&self) -> i32 {
        self.y + self.h as i32
    }

    /// Center of the rectangle.
    pub fn center(&self) -> PointF {
        PointF { x: self.x as f64 + self.w as f64 / 2.0, y: self.y as f64 + self.h as f64 / 2.0 }
    }

    /// Intersection; `None` when disjoint or degenerate.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.right().min(other.right());
        let y1 = self.bottom().min(other.bottom());
        if x1 > x0 && y1 > y0 {
            Some(Rect::new(x0, y0, (x1 - x0) as u32, (y1 - y0) as u32))
        } else {
            None
        }
    }

    /// Intersection-over-union, the `S_square` score of the paper (Eq. 5).
    pub fn iou(&self, other: &Rect) -> f64 {
        match self.intersect(other) {
            None => 0.0,
            Some(i) => {
                let inter = i.area() as f64;
                let union = (self.area() + other.area()) as f64 - inter;
                inter / union
            }
        }
    }

    /// Whether `other` lies entirely within `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        other.x >= self.x
            && other.y >= self.y
            && other.right() <= self.right()
            && other.bottom() <= self.bottom()
    }

    /// Scale position and size by `s`, rounding to the pixel grid.
    pub fn scaled(&self, s: f64) -> Rect {
        Rect::new(
            (self.x as f64 * s).round() as i32,
            (self.y as f64 * s).round() as i32,
            (self.w as f64 * s).round().max(1.0) as u32,
            (self.h as f64 * s).round().max(1.0) as u32,
        )
    }
}

/// A point with sub-pixel precision (used for eye locations).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PointF {
    pub x: f64,
    pub y: f64,
}

impl PointF {
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    pub fn distance(&self, other: &PointF) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_and_iou() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Rect::new(5, 5, 5, 5));
        // 25 / (100 + 100 - 25)
        assert!((a.iou(&b) - 25.0 / 175.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_rects_have_zero_iou() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(10, 10, 4, 4);
        assert!(a.intersect(&b).is_none());
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn identical_rects_have_unit_iou() {
        let a = Rect::new(3, -2, 7, 9);
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contains_checks_all_edges() {
        let outer = Rect::new(0, 0, 10, 10);
        assert!(outer.contains(&Rect::new(2, 2, 5, 5)));
        assert!(outer.contains(&outer));
        assert!(!outer.contains(&Rect::new(8, 8, 5, 5)));
    }

    #[test]
    fn scaled_rounds_and_keeps_min_size() {
        let r = Rect::new(2, 3, 4, 5).scaled(2.5);
        assert_eq!(r, Rect::new(5, 8, 10, 13));
        let tiny = Rect::new(0, 0, 1, 1).scaled(0.1);
        assert_eq!(tiny.w, 1);
        assert_eq!(tiny.h, 1);
    }

    #[test]
    fn point_distance_is_euclidean() {
        let a = PointF::new(0.0, 0.0);
        let b = PointF::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
