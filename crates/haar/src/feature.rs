//! Haar-like features over integral images.
//!
//! A feature is a small set of weighted rectangles inside the detection
//! window; its response is the weighted sum of rectangle pixel sums, each
//! computed with 4 integral-image lookups. The paper's accounting
//! (§III-C) charges 9 memory accesses per rectangle: 4 integral values +
//! 5 attribute words (x, y, w, h, weight).

use fd_imgproc::IntegralImage;

/// The feature families of the paper's Table I. Horizontal/vertical
/// variants exist for edge and line features; the table groups them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Two cells side by side (total 2w x h): right minus left.
    EdgeH,
    /// Two cells stacked (w x 2h): bottom minus top.
    EdgeV,
    /// Three cells in a row (3w x h): sides minus twice the middle.
    LineH,
    /// Three cells in a column (w x 3h).
    LineV,
    /// A w x h center against its 3w x 3h surround.
    CenterSurround,
    /// Four-square checkerboard (2w x 2h): main diagonal minus anti.
    Diagonal,
}

impl FeatureKind {
    /// All kinds, enumeration order.
    pub const ALL: [FeatureKind; 6] = [
        FeatureKind::EdgeH,
        FeatureKind::EdgeV,
        FeatureKind::LineH,
        FeatureKind::LineV,
        FeatureKind::CenterSurround,
        FeatureKind::Diagonal,
    ];

    /// Table I row this kind belongs to (0 edge, 1 line, 2 center, 3 diag).
    pub fn table1_row(&self) -> usize {
        match self {
            FeatureKind::EdgeH | FeatureKind::EdgeV => 0,
            FeatureKind::LineH | FeatureKind::LineV => 1,
            FeatureKind::CenterSurround => 2,
            FeatureKind::Diagonal => 3,
        }
    }

    /// Stable small integer id (used by the packed encoding).
    pub fn id(&self) -> u8 {
        match self {
            FeatureKind::EdgeH => 0,
            FeatureKind::EdgeV => 1,
            FeatureKind::LineH => 2,
            FeatureKind::LineV => 3,
            FeatureKind::CenterSurround => 4,
            FeatureKind::Diagonal => 5,
        }
    }

    /// Inverse of [`FeatureKind::id`].
    pub fn from_id(id: u8) -> Option<FeatureKind> {
        FeatureKind::ALL.get(id as usize).copied()
    }

    /// Bounding box (width, height) of a feature of this kind with cell
    /// size `(w, h)`, computed without constructing the feature. Untrusted
    /// loaders check `x + width <= window` with *this* before calling
    /// [`HaarFeature::from_params`], whose rectangle layout does `u8`
    /// coordinate arithmetic that would overflow on absurd geometry.
    pub fn extent_of(&self, w: u8, h: u8) -> (u32, u32) {
        let (w, h) = (w as u32, h as u32);
        match self {
            FeatureKind::EdgeH => (2 * w, h),
            FeatureKind::EdgeV => (w, 2 * h),
            FeatureKind::LineH => (3 * w, h),
            FeatureKind::LineV => (w, 3 * h),
            FeatureKind::CenterSurround => (3 * w, 3 * h),
            FeatureKind::Diagonal => (2 * w, 2 * h),
        }
    }
}

/// One weighted rectangle of a feature, in window coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaarRect {
    pub x: u8,
    pub y: u8,
    pub w: u8,
    pub h: u8,
    pub weight: i8,
}

/// A Haar-like feature: up to 4 weighted rectangles plus its generating
/// parameters `(kind, x, y, w, h)` where `(w, h)` is the *cell* size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaarFeature {
    pub kind: FeatureKind,
    /// Feature origin within the window.
    pub x: u8,
    /// Feature origin within the window.
    pub y: u8,
    /// Cell width (the feature spans 2w/3w/... depending on kind).
    pub w: u8,
    /// Cell height.
    pub h: u8,
    rects: [HaarRect; 4],
    nrects: u8,
}

impl HaarFeature {
    /// Build the canonical rectangle layout for `(kind, x, y, w, h)`.
    ///
    /// The weights are zero-DC (they cancel over a constant image), so the
    /// response measures contrast only.
    pub fn from_params(kind: FeatureKind, x: u8, y: u8, w: u8, h: u8) -> Self {
        let r = |rx: u8, ry: u8, rw: u8, rh: u8, wt: i8| HaarRect {
            x: rx,
            y: ry,
            w: rw,
            h: rh,
            weight: wt,
        };
        let zero = r(0, 0, 0, 0, 0);
        let (rects, nrects) = match kind {
            FeatureKind::EdgeH => ([r(x, y, w, h, -1), r(x + w, y, w, h, 1), zero, zero], 2),
            FeatureKind::EdgeV => ([r(x, y, w, h, -1), r(x, y + h, w, h, 1), zero, zero], 2),
            FeatureKind::LineH => {
                ([r(x, y, w, h, 1), r(x + w, y, w, h, -2), r(x + 2 * w, y, w, h, 1), zero], 3)
            }
            FeatureKind::LineV => {
                ([r(x, y, w, h, 1), r(x, y + h, w, h, -2), r(x, y + 2 * h, w, h, 1), zero], 3)
            }
            FeatureKind::CenterSurround => {
                ([r(x, y, 3 * w, 3 * h, -1), r(x + w, y + h, w, h, 9), zero, zero], 2)
            }
            FeatureKind::Diagonal => (
                [
                    r(x, y, w, h, 1),
                    r(x + w, y, w, h, -1),
                    r(x, y + h, w, h, -1),
                    r(x + w, y + h, w, h, 1),
                ],
                4,
            ),
        };
        Self { kind, x, y, w, h, rects, nrects }
    }

    /// The active rectangles.
    #[inline]
    pub fn rects(&self) -> &[HaarRect] {
        &self.rects[..self.nrects as usize]
    }

    /// Bounding box (width, height) of the whole feature.
    pub fn extent(&self) -> (u32, u32) {
        match self.kind {
            FeatureKind::EdgeH => (2 * self.w as u32, self.h as u32),
            FeatureKind::EdgeV => (self.w as u32, 2 * self.h as u32),
            FeatureKind::LineH => (3 * self.w as u32, self.h as u32),
            FeatureKind::LineV => (self.w as u32, 3 * self.h as u32),
            FeatureKind::CenterSurround => (3 * self.w as u32, 3 * self.h as u32),
            FeatureKind::Diagonal => (2 * self.w as u32, 2 * self.h as u32),
        }
    }

    /// Whether the feature fits inside a `window x window` box.
    pub fn fits(&self, window: u32) -> bool {
        let (fw, fh) = self.extent();
        self.x as u32 + fw <= window && self.y as u32 + fh <= window
    }

    /// Response for the window whose top-left corner is `(ox, oy)` in the
    /// integral image.
    #[inline]
    pub fn eval(&self, ii: &IntegralImage, ox: usize, oy: usize) -> i32 {
        let mut acc = 0i64;
        for r in self.rects() {
            let s = ii.rect_sum(ox + r.x as usize, oy + r.y as usize, r.w as usize, r.h as usize);
            acc += r.weight as i64 * s;
        }
        acc as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_imgproc::GrayImage;

    fn ii_const(v: u8, size: usize) -> IntegralImage {
        IntegralImage::from_u8(size, size, &vec![v; size * size])
    }

    #[test]
    fn all_kinds_are_zero_dc() {
        let ii = ii_const(100, 24);
        for kind in FeatureKind::ALL {
            let f = HaarFeature::from_params(kind, 1, 1, 3, 3);
            assert!(f.fits(24));
            assert_eq!(f.eval(&ii, 0, 0), 0, "{kind:?} must cancel on flat input");
        }
    }

    #[test]
    fn edge_h_measures_horizontal_contrast() {
        // Left half 0, right half 200.
        let img = GrayImage::from_fn(24, 24, |x, _| if x < 12 { 0.0 } else { 200.0 });
        let ii = IntegralImage::from_gray(&img);
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        // Left cell covers x 6..12 (all 0), right cell x 12..18 (all 200).
        assert_eq!(f.eval(&ii, 0, 0), 200 * 6 * 8);
        // The mirrored contrast flips the sign.
        let img2 = GrayImage::from_fn(24, 24, |x, _| if x < 12 { 200.0 } else { 0.0 });
        let ii2 = IntegralImage::from_gray(&img2);
        assert_eq!(f.eval(&ii2, 0, 0), -200 * 6 * 8);
    }

    #[test]
    fn line_h_detects_a_dark_band() {
        // Dark vertical band in the middle third of the feature.
        let img = GrayImage::from_fn(24, 24, |x, _| if (8..12).contains(&x) { 0.0 } else { 150.0 });
        let ii = IntegralImage::from_gray(&img);
        let f = HaarFeature::from_params(FeatureKind::LineH, 4, 4, 4, 6);
        // sides at 150, middle 0: response = 2*150*area_cell.
        assert_eq!(f.eval(&ii, 0, 0), 2 * 150 * 4 * 6);
    }

    #[test]
    fn center_surround_detects_a_bright_spot() {
        let img = GrayImage::from_fn(24, 24, |x, y| {
            if (9..12).contains(&x) && (9..12).contains(&y) {
                200.0
            } else {
                0.0
            }
        });
        let ii = IntegralImage::from_gray(&img);
        let f = HaarFeature::from_params(FeatureKind::CenterSurround, 6, 6, 3, 3);
        // -1 * 200*9 (whole) + 9 * 200*9 (center) = 200*9*8.
        assert_eq!(f.eval(&ii, 0, 0), 200 * 9 * 8);
    }

    #[test]
    fn diagonal_detects_checker_phase() {
        let img = GrayImage::from_fn(24, 24, |x, y| if (x < 12) == (y < 12) { 100.0 } else { 0.0 });
        let ii = IntegralImage::from_gray(&img);
        let f = HaarFeature::from_params(FeatureKind::Diagonal, 0, 0, 12, 12);
        // TL and BR bright: +100*144 +100*144.
        assert_eq!(f.eval(&ii, 0, 0), 2 * 100 * 144);
    }

    #[test]
    fn eval_respects_window_offset() {
        let img = GrayImage::from_fn(48, 48, |x, _| if x >= 36 { 240.0 } else { 0.0 });
        let ii = IntegralImage::from_gray(&img);
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        // At offset (24, 10) the feature's right cell covers x 36..42.
        assert_eq!(f.eval(&ii, 24, 10), 240 * 6 * 8);
        assert_eq!(f.eval(&ii, 0, 0), 0);
    }

    #[test]
    fn extent_and_fits() {
        let f = HaarFeature::from_params(FeatureKind::CenterSurround, 6, 6, 6, 6);
        assert_eq!(f.extent(), (18, 18));
        assert!(f.fits(24));
        assert!(!f.fits(23));
        let g = HaarFeature::from_params(FeatureKind::LineH, 10, 0, 5, 4);
        assert_eq!(g.extent(), (15, 4));
        assert!(!g.fits(24));
    }

    #[test]
    fn kind_ids_roundtrip() {
        for kind in FeatureKind::ALL {
            assert_eq!(FeatureKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(FeatureKind::from_id(6), None);
    }
}
