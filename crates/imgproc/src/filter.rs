//! Low-pass filters for the anti-aliasing stage of the pipeline.
//!
//! The pipeline filters each pyramid level after scaling to suppress the
//! aliasing the bilinear subsampling introduces (paper §III-A). Filters are
//! separable; the GPU filter kernel applies the same coefficients.

use crate::image::GrayImage;

/// Convolve rows with symmetric taps (odd length), clamping at borders.
pub fn convolve_rows(img: &GrayImage, taps: &[f32]) -> GrayImage {
    assert!(taps.len() % 2 == 1, "taps must have odd length");
    let radius = (taps.len() / 2) as isize;
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for (k, &t) in taps.iter().enumerate() {
            let sx = x as isize + k as isize - radius;
            acc += t * img.get_clamped(sx, y as isize);
        }
        acc
    })
}

/// Convolve columns with symmetric taps (odd length), clamping at borders.
pub fn convolve_cols(img: &GrayImage, taps: &[f32]) -> GrayImage {
    assert!(taps.len() % 2 == 1, "taps must have odd length");
    let radius = (taps.len() / 2) as isize;
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        let mut acc = 0.0f32;
        for (k, &t) in taps.iter().enumerate() {
            let sy = y as isize + k as isize - radius;
            acc += t * img.get_clamped(x as isize, sy);
        }
        acc
    })
}

/// The pipeline's cheap anti-alias filter: a separable 3-tap binomial
/// (1/4, 1/2, 1/4) smoothing, matching the GPU filter kernel.
pub fn antialias_3tap(img: &GrayImage) -> GrayImage {
    const TAPS: [f32; 3] = [0.25, 0.5, 0.25];
    convolve_cols(&convolve_rows(img, &TAPS), &TAPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_image_invariant_under_blur() {
        let img = GrayImage::from_fn(9, 9, |_, _| 77.0);
        for &v in antialias_3tap(&img).as_slice() {
            assert!((v - 77.0).abs() < 1e-4);
        }
    }

    #[test]
    fn blur_attenuates_an_impulse() {
        let mut img = GrayImage::new(9, 9);
        img.set(4, 4, 100.0);
        let out = antialias_3tap(&img);
        assert!((out.get(4, 4) - 25.0).abs() < 1e-5); // 0.5 * 0.5 * 100
        assert!((out.get(3, 4) - 12.5).abs() < 1e-5);
        assert!((out.get(3, 3) - 6.25).abs() < 1e-5);
        // Energy is conserved away from borders.
        let total: f32 = out.as_slice().iter().sum();
        assert!((total - 100.0).abs() < 1e-3);
    }

    #[test]
    fn separable_equals_two_pass() {
        let img = GrayImage::from_fn(12, 10, |x, y| ((x * 13 + y * 7) % 64) as f32);
        let taps = [0.1, 0.2, 0.4, 0.2, 0.1];
        let a = convolve_cols(&convolve_rows(&img, &taps), &taps);
        let b = convolve_rows(&convolve_cols(&img, &taps), &taps);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-3);
        }
    }
}
