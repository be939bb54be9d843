//! Image pyramids for fixed-window multi-scale detection.
//!
//! The detector keeps the sliding window constant (24x24) and downscales
//! the frame (paper §III-A, Fig. 2 right): level `i` has dimensions
//! `frame / factor^i`, down to the smallest level still containing one
//! window. Detections found at level `i` map back to the original frame by
//! multiplying by `factor^i`.

use crate::image::GrayImage;
use crate::resize::resize_bilinear;

/// A multi-scale image pyramid. Level 0 is the original image.
#[derive(Debug, Clone)]
pub struct Pyramid {
    /// Per-level images, largest first.
    pub levels: Vec<GrayImage>,
    /// Geometric scale factor between consecutive levels (> 1).
    pub factor: f64,
}

impl Pyramid {
    /// Build a pyramid with the given per-level `factor` (> 1), stopping
    /// when a level would no longer contain a `min_size` square.
    pub fn build(base: &GrayImage, factor: f64, min_size: usize) -> Self {
        assert!(factor > 1.0, "scale factor must exceed 1");
        assert!(min_size >= 1);
        let mut levels = vec![base.clone()];
        let mut scale = factor;
        loop {
            let nw = (base.width() as f64 / scale).round() as usize;
            let nh = (base.height() as f64 / scale).round() as usize;
            if nw < min_size || nh < min_size {
                break;
            }
            levels.push(resize_bilinear(base, nw, nh));
            scale *= factor;
        }
        Self { levels, factor }
    }

    /// Plan the level dimensions without building images (used to size GPU
    /// allocations and by the benchmarks to report work per scale).
    pub fn plan(width: usize, height: usize, factor: f64, min_size: usize) -> Vec<(usize, usize)> {
        assert!(factor > 1.0);
        let mut out = vec![(width, height)];
        let mut scale = factor;
        loop {
            let nw = (width as f64 / scale).round() as usize;
            let nh = (height as f64 / scale).round() as usize;
            if nw < min_size || nh < min_size {
                break;
            }
            out.push((nw, nh));
            scale *= factor;
        }
        out
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pyramid_levels_shrink_geometrically() {
        let img = GrayImage::new(192, 108);
        let p = Pyramid::build(&img, 1.25, 24);
        assert!(p.len() > 3);
        for i in 1..p.len() {
            assert!(p.levels[i].width() < p.levels[i - 1].width());
            let expect = (192.0 / 1.25f64.powi(i as i32)).round() as usize;
            assert_eq!(p.levels[i].width(), expect);
        }
        // Smallest level still fits a 24x24 window.
        let last = p.levels.last().unwrap();
        assert!(last.width() >= 24 && last.height() >= 24);
    }

    #[test]
    fn plan_matches_build() {
        let img = GrayImage::new(160, 90);
        let p = Pyramid::build(&img, 1.3, 24);
        let plan = Pyramid::plan(160, 90, 1.3, 24);
        assert_eq!(plan.len(), p.len());
        for (lvl, (w, h)) in p.levels.iter().zip(&plan) {
            assert_eq!((lvl.width(), lvl.height()), (*w, *h));
        }
    }

    #[test]
    fn hd_1080p_plan_has_realistic_depth() {
        // With factor 1.25 and a 24px window, 1080p yields ~17 scales
        // (1080/24 = 45 = 1.25^k -> k ~ 17). This is the per-frame kernel
        // count driving the concurrency experiment.
        let plan = Pyramid::plan(1920, 1080, 1.25, 24);
        assert!(plan.len() >= 15 && plan.len() <= 20, "got {}", plan.len());
    }
}
