//! Grayscale image container.
//!
//! Pixels are `f32` in the nominal range `0.0..=255.0` (luma). Floating
//! point is used throughout the pre-integral pipeline (scaling and
//! filtering interpolate); quantization back to 8 bits happens when the
//! integral image is built, matching the GPU pipeline where `tex2D` returns
//! filtered floats and the scan kernel consumes integer luma.

use crate::geom::Rect;

/// A single-channel (luma) image, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Create a zero-filled image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Self { width, height, data: vec![0.0; width * height] }
    }

    /// Create an image from existing row-major data.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "data length mismatch");
        assert!(width > 0 && height > 0, "image must be non-empty");
        Self { width, height, data }
    }

    /// Create an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self::from_vec(width, height, data)
    }

    /// Create an image from 8-bit luma samples.
    pub fn from_u8(width: usize, height: usize, data: &[u8]) -> Self {
        assert_eq!(data.len(), width * height, "data length mismatch");
        Self::from_vec(width, height, data.iter().map(|&v| v as f32).collect())
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixel data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Clamped fetch: coordinates outside the image read the nearest edge
    /// pixel (texture clamp addressing).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.data[yc * self.width + xc]
    }

    /// One image row.
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Quantize to 8-bit luma with rounding and clamping.
    pub fn to_u8(&self) -> Vec<u8> {
        self.data.iter().map(|&v| v.round().clamp(0.0, 255.0) as u8).collect()
    }

    /// Copy a sub-rectangle (must lie inside the image).
    pub fn crop(&self, r: Rect) -> GrayImage {
        assert!(
            r.x >= 0
                && r.y >= 0
                && r.right() <= self.width as i32
                && r.bottom() <= self.height as i32,
            "crop {r:?} outside {}x{}",
            self.width,
            self.height
        );
        GrayImage::from_fn(r.w as usize, r.h as usize, |x, y| {
            self.get(r.x as usize + x, r.y as usize + y)
        })
    }

    /// Paste `src` with its top-left corner at `(x, y)`; parts that fall
    /// outside the destination are clipped.
    pub fn blit(&mut self, src: &GrayImage, x: i32, y: i32) {
        for sy in 0..src.height {
            let dy = y + sy as i32;
            if dy < 0 || dy >= self.height as i32 {
                continue;
            }
            for sx in 0..src.width {
                let dx = x + sx as i32;
                if dx < 0 || dx >= self.width as i32 {
                    continue;
                }
                self.set(dx as usize, dy as usize, src.get(sx, sy));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_fills_row_major() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 10 + x) as f32);
        assert_eq!(img.get(2, 1), 12.0);
        assert_eq!(img.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn clamped_fetch_extends_edges() {
        let img = GrayImage::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.get_clamped(-3, -3), 0.0);
        assert_eq!(img.get_clamped(5, 5), 3.0);
        assert_eq!(img.get_clamped(5, 0), 1.0);
    }

    #[test]
    fn quantization_rounds_and_clamps() {
        let img = GrayImage::from_vec(4, 1, vec![-5.0, 0.4, 0.6, 300.0]);
        assert_eq!(img.to_u8(), vec![0, 0, 1, 255]);
    }

    #[test]
    fn crop_extracts_subimage() {
        let img = GrayImage::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let c = img.crop(Rect::new(1, 2, 2, 2));
        assert_eq!(c.get(0, 0), 9.0);
        assert_eq!(c.get(1, 1), 14.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn crop_out_of_bounds_panics() {
        let img = GrayImage::new(4, 4);
        let _ = img.crop(Rect::new(2, 2, 4, 4));
    }

    #[test]
    fn blit_clips_at_borders() {
        let mut dst = GrayImage::new(4, 4);
        let src = GrayImage::from_fn(2, 2, |_, _| 9.0);
        dst.blit(&src, 3, 3); // only (3,3) lands inside
        assert_eq!(dst.get(3, 3), 9.0);
        assert_eq!(dst.get(2, 2), 0.0);
        dst.blit(&src, -1, -1); // only (0,0) lands inside
        assert_eq!(dst.get(0, 0), 9.0);
    }
}
