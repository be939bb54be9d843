//! Pure-CPU reference detector.
//!
//! Runs the same mathematical pipeline as the GPU version — bilinear
//! pyramid, 3-tap anti-alias filter, 8-bit quantization, integral image,
//! quantized-cascade evaluation — using only `fd-imgproc` and `fd-haar`
//! host code. Because every GPU kernel is verified to match its host
//! counterpart bit-for-bit, the reference detector and
//! [`crate::FaceDetector`] must produce *identical* raw windows; the
//! integration suite asserts exactly that.

use fd_haar::encode::quantize_cascade;
use fd_haar::Cascade;
use fd_imgproc::filter::antialias_3tap;
use fd_imgproc::resize::resize_bilinear;
use fd_imgproc::{GrayImage, IntegralImage, Pyramid, Rect};

use crate::group::Detection;

/// Evaluate `cascade` over the full pyramid of `frame`; returns raw
/// detections (windows passing every stage) in frame coordinates.
///
/// The cascade is quantized internally so results line up with the
/// constant-memory copy the GPU evaluates.
pub fn detect_cpu(cascade: &Cascade, frame: &GrayImage, scale_factor: f64) -> Vec<Detection> {
    let cascade = quantize_cascade(cascade);
    let window = cascade.window as usize;
    let full_depth = cascade.depth();
    let plan = Pyramid::plan(frame.width(), frame.height(), scale_factor, window);

    let mut out = Vec::new();
    for (level, &(w, h)) in plan.iter().enumerate() {
        let scaled = if level == 0 { frame.clone() } else { resize_bilinear(frame, w, h) };
        let filtered = antialias_3tap(&scaled);
        let ii = IntegralImage::from_gray(&filtered);
        let scale = scale_factor.powi(level as i32);
        for oy in 0..=h - window {
            for ox in 0..=w - window {
                let r = cascade.eval_window(&ii, ox, oy);
                if r.depth == full_depth {
                    let size = (window as f64 * scale).round() as u32;
                    out.push(Detection {
                        rect: Rect::new(
                            (ox as f64 * scale).round() as i32,
                            (oy as f64 * scale).round() as i32,
                            size,
                            size,
                        ),
                        score: r.score,
                        scale: level,
                    });
                }
            }
        }
    }
    out
}

/// Per-level deepest-stage maps, for window-exact comparison with the GPU
/// pipeline's [`crate::ScaleOutput::depth`].
pub fn depth_maps_cpu(
    cascade: &Cascade,
    frame: &GrayImage,
    scale_factor: f64,
) -> Vec<(usize, usize, Vec<u32>)> {
    let cascade = quantize_cascade(cascade);
    let window = cascade.window as usize;
    let plan = Pyramid::plan(frame.width(), frame.height(), scale_factor, window);
    let mut maps = Vec::new();
    for (level, &(w, h)) in plan.iter().enumerate() {
        let scaled = if level == 0 { frame.clone() } else { resize_bilinear(frame, w, h) };
        let filtered = antialias_3tap(&scaled);
        let ii = IntegralImage::from_gray(&filtered);
        let mut depth = vec![0u32; w * h];
        for oy in 0..=h - window {
            for ox in 0..=w - window {
                depth[oy * w + ox] = cascade.eval_window(&ii, ox, oy).depth;
            }
        }
        maps.push((w, h, depth));
    }
    maps
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};

    fn edge_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("edge", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    #[test]
    fn finds_the_planted_pattern() {
        let frame = GrayImage::from_fn(64, 48, |x, y| {
            if (20..30).contains(&x) && (8..32).contains(&y) {
                0.0
            } else if (30..40).contains(&x) && (8..32).contains(&y) {
                255.0
            } else {
                120.0
            }
        });
        let dets = detect_cpu(&edge_cascade(), &frame, 1.25);
        assert!(!dets.is_empty());
        // Every detection window must straddle the contrast boundary x=30.
        for d in &dets {
            assert!(d.rect.x <= 30 && d.rect.right() >= 30, "{:?}", d.rect);
        }
    }

    #[test]
    fn depth_maps_cover_every_level() {
        let frame = GrayImage::from_fn(60, 50, |x, _| (x * 4) as f32);
        let maps = depth_maps_cpu(&edge_cascade(), &frame, 1.25);
        let plan = Pyramid::plan(60, 50, 1.25, 24);
        assert_eq!(maps.len(), plan.len());
        for ((w, h, depth), (pw, ph)) in maps.iter().zip(&plan) {
            assert_eq!((w, h), (pw, ph));
            assert_eq!(depth.len(), w * h);
        }
    }

    #[test]
    fn flat_frame_yields_no_detections() {
        let frame = GrayImage::from_fn(48, 48, |_, _| 99.0);
        assert!(detect_cpu(&edge_cascade(), &frame, 1.25).is_empty());
    }
}
