//! Integral images (summed-area tables).
//!
//! The table has `(w + 1) x (h + 1)` entries with a zero top row and left
//! column, so any rectangle sum is four lookups with no edge cases — the
//! layout the cascade-evaluation kernel tiles into shared memory.
//!
//! Pixels are quantized to 8 bits before summation; with `u32` accumulators
//! the construction is exact up to 16.8-megapixel images
//! (`255 * 16_843_009 < u32::MAX`), comfortably covering 1080p.

use crate::geom::Rect;
use crate::image::GrayImage;

/// Summed-area table of an 8-bit luma image.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralImage {
    /// Source image width (table is one wider).
    width: usize,
    /// Source image height (table is one taller).
    height: usize,
    data: Vec<u32>,
}

impl IntegralImage {
    /// Build from a float image (quantizing to 8 bits first).
    pub fn from_gray(img: &GrayImage) -> Self {
        Self::from_u8(img.width(), img.height(), &img.to_u8())
    }

    /// Build from 8-bit luma data with the sequential O(w*h) recurrence.
    pub fn from_u8(width: usize, height: usize, pixels: &[u8]) -> Self {
        assert_eq!(pixels.len(), width * height);
        assert!(
            width as u64 * height as u64 <= 16_843_009,
            "image too large for exact u32 integral"
        );
        let tw = width + 1;
        let mut data = vec![0u32; tw * (height + 1)];
        for y in 0..height {
            let mut row_sum = 0u32;
            for x in 0..width {
                row_sum += pixels[y * width + x] as u32;
                data[(y + 1) * tw + (x + 1)] = data[y * tw + (x + 1)] + row_sum;
            }
        }
        Self { width, height, data }
    }

    /// Construct from a raw `(w+1) x (h+1)` table (used by the GPU scan
    /// formulation). Panics if the table's zero border is malformed.
    pub fn from_table(width: usize, height: usize, data: Vec<u32>) -> Self {
        let tw = width + 1;
        assert_eq!(data.len(), tw * (height + 1));
        assert!(data[..tw].iter().all(|&v| v == 0), "top border must be zero");
        assert!((0..=height).all(|y| data[y * tw] == 0), "left border must be zero");
        Self { width, height, data }
    }

    /// Source image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Source image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw table data.
    pub fn table(&self) -> &[u32] {
        &self.data
    }

    /// Table entry: sum of all pixels strictly above and left of `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u32 {
        debug_assert!(x <= self.width && y <= self.height);
        self.data[y * (self.width + 1) + x]
    }

    /// Sum of pixels in the half-open rectangle `[x, x+w) x [y, y+h)`.
    ///
    /// The rectangle must lie inside the image.
    #[inline]
    pub fn rect_sum(&self, x: usize, y: usize, w: usize, h: usize) -> i64 {
        debug_assert!(x + w <= self.width && y + h <= self.height);
        let tw = self.width + 1;
        let a = self.data[y * tw + x] as i64;
        let b = self.data[y * tw + (x + w)] as i64;
        let c = self.data[(y + h) * tw + x] as i64;
        let d = self.data[(y + h) * tw + (x + w)] as i64;
        d - b - c + a
    }

    /// Rectangle sum via [`Rect`] (must be inside the image).
    pub fn rect(&self, r: Rect) -> i64 {
        assert!(r.x >= 0 && r.y >= 0);
        self.rect_sum(r.x as usize, r.y as usize, r.w as usize, r.h as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sum(pix: &[u8], w: usize, x: usize, y: usize, rw: usize, rh: usize) -> i64 {
        let mut s = 0i64;
        for yy in y..y + rh {
            for xx in x..x + rw {
                s += pix[yy * w + xx] as i64;
            }
        }
        s
    }

    #[test]
    fn matches_naive_double_loop() {
        let (w, h) = (7, 5);
        let pix: Vec<u8> = (0..w * h).map(|i| (i * 37 % 251) as u8).collect();
        let ii = IntegralImage::from_u8(w, h, &pix);
        for y in 0..h {
            for x in 0..w {
                for rh in 1..=h - y {
                    for rw in 1..=w - x {
                        assert_eq!(
                            ii.rect_sum(x, y, rw, rh),
                            naive_sum(&pix, w, x, y, rw, rh),
                            "rect ({x},{y},{rw},{rh})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_image_sum_equals_last_entry() {
        let pix = vec![3u8; 12];
        let ii = IntegralImage::from_u8(4, 3, &pix);
        assert_eq!(ii.at(4, 3), 36);
        assert_eq!(ii.rect_sum(0, 0, 4, 3), 36);
    }

    #[test]
    fn borders_are_zero() {
        let pix = vec![200u8; 9];
        let ii = IntegralImage::from_u8(3, 3, &pix);
        for x in 0..=3 {
            assert_eq!(ii.at(x, 0), 0);
        }
        for y in 0..=3 {
            assert_eq!(ii.at(0, y), 0);
        }
    }

    #[test]
    fn from_gray_quantizes_first() {
        let img = GrayImage::from_vec(2, 1, vec![0.4, 0.6]);
        let ii = IntegralImage::from_gray(&img);
        assert_eq!(ii.rect_sum(0, 0, 2, 1), 1); // 0 + 1
    }

    #[test]
    fn from_table_validates_borders() {
        // 1x1 image with pixel 5.
        let ok = IntegralImage::from_table(1, 1, vec![0, 0, 0, 5]);
        assert_eq!(ok.rect_sum(0, 0, 1, 1), 5);
        let r = std::panic::catch_unwind(|| {
            IntegralImage::from_table(1, 1, vec![0, 1, 0, 5]);
        });
        assert!(r.is_err());
    }

    #[test]
    fn rect_helpers_agree() {
        let pix: Vec<u8> = (0..24).map(|i| i as u8).collect();
        let ii = IntegralImage::from_u8(6, 4, &pix);
        let r = Rect::new(1, 1, 3, 2);
        assert_eq!(ii.rect(r), naive_sum(&pix, 6, 1, 1, 3, 2));
    }
}
