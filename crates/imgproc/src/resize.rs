//! Bilinear resizing matching the GPU texture convention.
//!
//! The scaling stage of the pipeline maps each destination pixel center
//! back into the source and performs a bilinear fetch with texel centers at
//! integer + 0.5 — exactly [`fd_gpu` texture] semantics (`tex2D` with
//! linear filtering). The host implementation here is the reference the GPU
//! scaling kernel is verified against.

use crate::image::GrayImage;

/// Bilinear sample of `img` at continuous coordinates with texel centers at
/// integer + 0.5 and clamp addressing.
#[inline]
pub fn sample_bilinear(img: &GrayImage, x: f32, y: f32) -> f32 {
    let xb = x - 0.5;
    let yb = y - 0.5;
    let x0 = xb.floor();
    let y0 = yb.floor();
    let fx = xb - x0;
    let fy = yb - y0;
    let x0 = x0 as isize;
    let y0 = y0 as isize;
    let t00 = img.get_clamped(x0, y0);
    let t10 = img.get_clamped(x0 + 1, y0);
    let t01 = img.get_clamped(x0, y0 + 1);
    let t11 = img.get_clamped(x0 + 1, y0 + 1);
    let top = t00 + (t10 - t00) * fx;
    let bot = t01 + (t11 - t01) * fx;
    top + (bot - top) * fy
}

/// Resize to `(nw, nh)` with bilinear interpolation.
pub fn resize_bilinear(img: &GrayImage, nw: usize, nh: usize) -> GrayImage {
    assert!(nw > 0 && nh > 0);
    let sx = img.width() as f32 / nw as f32;
    let sy = img.height() as f32 / nh as f32;
    GrayImage::from_fn(nw, nh, |x, y| {
        sample_bilinear(img, (x as f32 + 0.5) * sx, (y as f32 + 0.5) * sy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resize_is_exact() {
        let img = GrayImage::from_fn(8, 6, |x, y| (x * 7 + y * 3) as f32);
        let out = resize_bilinear(&img, 8, 6);
        for (a, b) in img.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_image_stays_constant() {
        let img = GrayImage::from_fn(17, 13, |_, _| 93.0);
        let out = resize_bilinear(&img, 5, 9);
        for &v in out.as_slice() {
            assert!((v - 93.0).abs() < 1e-4);
        }
    }

    #[test]
    fn halving_a_gradient_preserves_linearity() {
        // f(x) = x: downscaled 2x, pixel i should read ~ (2i + 0.5).
        let img = GrayImage::from_fn(16, 4, |x, _| x as f32);
        let out = resize_bilinear(&img, 8, 4);
        for x in 1..7 {
            let expect = 2.0 * x as f32 + 0.5;
            assert!((out.get(x, 1) - expect).abs() < 1e-3, "x={x}: {} vs {expect}", out.get(x, 1));
        }
    }

    #[test]
    fn matches_gpu_texture_fetch() {
        // sample_bilinear must agree with fd-gpu's Texture2D at many points;
        // replicated here structurally (no dependency) via a tiny oracle.
        let img = GrayImage::from_fn(5, 5, |x, y| (x * 5 + y) as f32);
        // At texel centers the sample equals the pixel.
        for y in 0..5 {
            for x in 0..5 {
                let s = sample_bilinear(&img, x as f32 + 0.5, y as f32 + 0.5);
                assert!((s - img.get(x, y)).abs() < 1e-5);
            }
        }
        // Midway between two texels: average.
        let s = sample_bilinear(&img, 1.0, 0.5);
        assert!((s - (img.get(0, 0) + img.get(1, 0)) / 2.0).abs() < 1e-5);
    }
}
