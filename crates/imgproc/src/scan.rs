//! The paper's parallel integral-image formulation: row-wise inclusive
//! prefix sums composed with matrix transpositions (§III-B, after Messom &
//! Barczak and Bilgic et al.).
//!
//! `integral = transpose(scan_rows(transpose(scan_rows(I))))`
//!
//! These host functions are the reference the GPU kernels in `fd-detector`
//! are tested against; [`integral_via_scan`] is itself tested for
//! equivalence with the sequential recurrence in [`crate::integral`].

use crate::image::GrayImage;
use crate::integral::IntegralImage;

/// In-place inclusive prefix sum along each row of a `w x h` row-major
/// matrix.
pub fn scan_rows_inclusive(data: &mut [u32], w: usize, h: usize) {
    assert_eq!(data.len(), w * h);
    for row in data.chunks_exact_mut(w) {
        let mut acc = 0u32;
        for v in row {
            acc += *v;
            *v = acc;
        }
    }
}

/// Out-of-place transpose of a `w x h` row-major matrix into `h x w`.
pub fn transpose(data: &[u32], w: usize, h: usize) -> Vec<u32> {
    assert_eq!(data.len(), w * h);
    let mut out = vec![0u32; w * h];
    for y in 0..h {
        for x in 0..w {
            out[x * h + y] = data[y * w + x];
        }
    }
    out
}

/// Build an integral image using the scan/transpose composition.
///
/// The input is quantized to 8 bits exactly as
/// [`IntegralImage::from_gray`] does, so the two constructions agree
/// bit-for-bit.
pub fn integral_via_scan(img: &GrayImage) -> IntegralImage {
    let w = img.width();
    let h = img.height();
    let pixels = img.to_u8();

    // Row-wise scan of the raw pixels.
    let mut m: Vec<u32> = pixels.iter().map(|&v| v as u32).collect();
    scan_rows_inclusive(&mut m, w, h);
    // Transpose to h x w, scan rows (former columns), transpose back.
    let mut t = transpose(&m, w, h);
    scan_rows_inclusive(&mut t, h, w);
    let m = transpose(&t, h, w);

    // Embed into the (w+1) x (h+1) bordered table.
    let tw = w + 1;
    let mut table = vec![0u32; tw * (h + 1)];
    for y in 0..h {
        for x in 0..w {
            table[(y + 1) * tw + (x + 1)] = m[y * w + x];
        }
    }
    IntegralImage::from_table(w, h, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_rows_is_per_row_cumulative() {
        let mut m = vec![1, 2, 3, 10, 20, 30];
        scan_rows_inclusive(&mut m, 3, 2);
        assert_eq!(m, vec![1, 3, 6, 10, 30, 60]);
    }

    #[test]
    fn transpose_involutes() {
        let m: Vec<u32> = (0..12).collect();
        let t = transpose(&m, 4, 3);
        assert_eq!(t[0], 0);
        assert_eq!(t[1], 4); // (x=1 in 3x4) was (y=1,x=0)
        let back = transpose(&t, 3, 4);
        assert_eq!(back, m);
    }

    #[test]
    fn scan_formulation_matches_sequential() {
        let img = GrayImage::from_fn(13, 9, |x, y| ((x * 31 + y * 17) % 256) as f32);
        let a = IntegralImage::from_gray(&img);
        let b = integral_via_scan(&img);
        assert_eq!(a, b);
    }

    #[test]
    fn scan_formulation_on_single_pixel() {
        let img = GrayImage::from_vec(1, 1, vec![42.0]);
        let ii = integral_via_scan(&img);
        assert_eq!(ii.rect_sum(0, 0, 1, 1), 42);
    }
}
