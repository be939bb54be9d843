//! Compressed constant-memory encoding of cascades (paper §III-C).
//!
//! "Since all bits of the thresholds, coordinates, dimensions and weight
//! values are not significant, we propose reencoding and combining them
//! into two 16-bit words using simple bitwise operations and masks."
//!
//! Here each stump is packed into three 32-bit words (six 16-bit
//! half-words):
//!
//! * word 0 — geometry: `x(5) | y(5) | w(5) | h(5) | kind(3)`; the
//!   rectangle layout is reconstructed from these generator parameters, so
//!   per-rectangle coordinates and weights need not be stored at all;
//! * word 1 — split threshold quantized to multiples of [`THR_STEP`]
//!   (low 16 bits) and the `left` leaf in fixed point 1/[`LEAF_SCALE`]
//!   (high 16 bits);
//! * word 2 — the `right` leaf (low 16 bits; high bits reserved).
//!
//! At 12 bytes per stump the paper's two cascades (1446 and 2913 weak
//! classifiers) occupy ~17 KiB and ~35 KiB: both fit the 64 KiB constant
//! bank, which is what makes the broadcast-from-constant-memory kernel
//! design possible. Quantization is part of the model: a
//! [`quantize_cascade`]d cascade round-trips the encoding bit-exactly, so
//! the CPU reference and the GPU kernel agree bit-for-bit.

use crate::cascade::{Cascade, Stage};
use crate::feature::{FeatureKind, HaarFeature};
use crate::stump::Stump;

/// Feature-response thresholds are stored in units of 32 (responses for a
/// 24-px window span roughly +/-225k; 32-unit steps fit i16 with headroom).
pub const THR_STEP: i32 = 32;
/// Leaf values and stage thresholds use fixed point with this scale.
pub const LEAF_SCALE: f32 = 1024.0;

/// A stump packed into three 32-bit constant-memory words.
pub type PackedStump = [u32; 3];

/// Words of header per encoded cascade (magic, window, n_stages).
pub const HEADER_WORDS: usize = 3;
/// Words per encoded stage header (n_stumps, stage threshold).
pub const STAGE_HEADER_WORDS: usize = 2;
/// Words per encoded stump.
pub const STUMP_WORDS: usize = 3;

const MAGIC: u32 = 0x4643_4144; // "FCAD"

#[inline]
fn q16(v: i32) -> u32 {
    debug_assert!((i16::MIN as i32..=i16::MAX as i32).contains(&v), "i16 overflow: {v}");
    (v as i16 as u16) as u32
}

#[inline]
fn unq16(w: u32) -> i32 {
    (w & 0xFFFF) as u16 as i16 as i32
}

/// Quantize a leaf/threshold float to the fixed-point grid.
#[inline]
pub fn quantize_leaf(v: f32) -> f32 {
    (v * LEAF_SCALE).round().clamp(i16::MIN as f32, i16::MAX as f32) / LEAF_SCALE
}

/// Quantize a feature-response threshold to the [`THR_STEP`] grid.
#[inline]
pub fn quantize_threshold(t: i32) -> i32 {
    let q = (t as f64 / THR_STEP as f64).round() as i32;
    q.clamp(i16::MIN as i32, i16::MAX as i32) * THR_STEP
}

/// Pack one stump.
pub fn encode_stump(s: &Stump) -> PackedStump {
    let f = &s.feature;
    assert!(f.x < 32 && f.y < 32 && f.w < 32 && f.h < 32, "geometry exceeds 5-bit fields");
    let geom = (f.x as u32)
        | (f.y as u32) << 5
        | (f.w as u32) << 10
        | (f.h as u32) << 15
        | (f.kind.id() as u32) << 20;
    let thr_q = (s.threshold as f64 / THR_STEP as f64).round() as i32;
    let left_q = (s.left * LEAF_SCALE).round() as i32;
    let right_q = (s.right * LEAF_SCALE).round() as i32;
    [geom, q16(thr_q) | q16(left_q) << 16, q16(right_q)]
}

/// Unpack one stump (values land on the quantization grid).
pub fn decode_stump(p: &PackedStump) -> Stump {
    let geom = p[0];
    let x = (geom & 0x1F) as u8;
    let y = (geom >> 5 & 0x1F) as u8;
    let w = (geom >> 10 & 0x1F) as u8;
    let h = (geom >> 15 & 0x1F) as u8;
    let kind = FeatureKind::from_id((geom >> 20 & 0x7) as u8).expect("bad feature kind id");
    let threshold = unq16(p[1]) * THR_STEP;
    let left = unq16(p[1] >> 16) as f32 / LEAF_SCALE;
    let right = unq16(p[2]) as f32 / LEAF_SCALE;
    Stump { feature: HaarFeature::from_params(kind, x, y, w, h), threshold, left, right }
}

/// Encode a whole cascade into constant-memory words.
pub fn encode_cascade(c: &Cascade) -> Vec<u32> {
    let mut out = Vec::with_capacity(
        HEADER_WORDS + c.stages.len() * STAGE_HEADER_WORDS + c.total_stumps() * STUMP_WORDS,
    );
    out.push(MAGIC);
    out.push(c.window);
    out.push(c.stages.len() as u32);
    for st in &c.stages {
        out.push(st.stumps.len() as u32);
        out.push(((st.threshold * LEAF_SCALE).round() as i32) as u32);
        for s in &st.stumps {
            out.extend_from_slice(&encode_stump(s));
        }
    }
    out
}

/// Decode constant-memory words back into a cascade.
pub fn decode_cascade(words: &[u32], name: impl Into<String>) -> Cascade {
    assert!(words.len() >= HEADER_WORDS, "truncated cascade blob");
    assert_eq!(words[0], MAGIC, "bad cascade magic");
    let window = words[1];
    let n_stages = words[2] as usize;
    let mut pos = HEADER_WORDS;
    let mut c = Cascade::new(name, window);
    for _ in 0..n_stages {
        assert!(pos + STAGE_HEADER_WORDS <= words.len(), "truncated stage header");
        let n_stumps = words[pos] as usize;
        let threshold = words[pos + 1] as i32 as f32 / LEAF_SCALE;
        pos += STAGE_HEADER_WORDS;
        let mut stumps = Vec::with_capacity(n_stumps);
        for _ in 0..n_stumps {
            assert!(pos + STUMP_WORDS <= words.len(), "truncated stump");
            let p: PackedStump = [words[pos], words[pos + 1], words[pos + 2]];
            stumps.push(decode_stump(&p));
            pos += STUMP_WORDS;
        }
        c.stages.push(Stage { stumps, threshold });
    }
    c
}

/// Snap every threshold and leaf of `c` onto the encoding grid. A
/// quantized cascade satisfies `decode(encode(q)) == q` bit-exactly.
pub fn quantize_cascade(c: &Cascade) -> Cascade {
    let mut out = c.clone();
    for st in &mut out.stages {
        st.threshold = quantize_leaf(st.threshold);
        for s in &mut st.stumps {
            s.threshold = quantize_threshold(s.threshold);
            s.left = quantize_leaf(s.left);
            s.right = quantize_leaf(s.right);
        }
    }
    out
}

/// Bytes used by the packed representation of a cascade.
pub fn packed_bytes(c: &Cascade) -> usize {
    4 * (HEADER_WORDS + c.stages.len() * STAGE_HEADER_WORDS + c.total_stumps() * STUMP_WORDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stump(kind: FeatureKind, thr: i32, l: f32, r: f32) -> Stump {
        Stump {
            feature: HaarFeature::from_params(kind, 3, 7, 5, 4),
            threshold: thr,
            left: l,
            right: r,
        }
    }

    #[test]
    fn stump_roundtrip_on_grid_is_exact() {
        let s = stump(FeatureKind::LineV, 4 * THR_STEP, -0.5, 0.25);
        let back = decode_stump(&encode_stump(&s));
        assert_eq!(back, s);
    }

    #[test]
    fn quantization_error_is_bounded() {
        let s = stump(FeatureKind::Diagonal, 12_345, -0.123_456, 0.987_654);
        let back = decode_stump(&encode_stump(&s));
        assert!((back.threshold - s.threshold).abs() <= THR_STEP / 2);
        assert!((back.left - s.left).abs() <= 0.5 / LEAF_SCALE + 1e-6);
        assert!((back.right - s.right).abs() <= 0.5 / LEAF_SCALE + 1e-6);
        assert_eq!(back.feature, s.feature);
    }

    #[test]
    fn geometry_packs_all_kinds_and_positions() {
        for kind in FeatureKind::ALL {
            let s = stump(kind, 0, 0.0, 0.0);
            assert_eq!(decode_stump(&encode_stump(&s)).feature.kind, kind);
        }
        let s = Stump {
            feature: HaarFeature::from_params(FeatureKind::EdgeH, 21, 20, 1, 1),
            threshold: 0,
            left: 0.0,
            right: 0.0,
        };
        assert_eq!(decode_stump(&encode_stump(&s)).feature, s.feature);
    }

    #[test]
    fn negative_thresholds_survive() {
        let s = stump(FeatureKind::EdgeV, -20_000, 1.0, -1.0);
        let back = decode_stump(&encode_stump(&s));
        assert!((back.threshold - quantize_threshold(-20_000)).abs() == 0);
        assert!(back.threshold < 0);
    }

    #[test]
    fn cascade_roundtrip_after_quantization() {
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![
                stump(FeatureKind::EdgeH, 777, -0.3, 0.7),
                stump(FeatureKind::CenterSurround, -31, 0.2, -0.9),
            ],
            threshold: 0.123,
        });
        c.stages
            .push(Stage { stumps: vec![stump(FeatureKind::LineH, 0, 1.5, -1.5)], threshold: -0.5 });
        let q = quantize_cascade(&c);
        let back = decode_cascade(&encode_cascade(&q), "t");
        assert_eq!(back.stages, q.stages);
        assert_eq!(back.window, 24);
    }

    #[test]
    fn packed_size_fits_constant_memory_for_paper_cascades() {
        // 1446 stumps over 25 stages.
        let mut ours = Cascade::new("ours", 24);
        for i in 0..25 {
            let n = 1446 / 25 + usize::from(i < 1446 % 25);
            ours.stages.push(Stage {
                stumps: vec![stump(FeatureKind::EdgeH, 0, 0.1, -0.1); n],
                threshold: 0.0,
            });
        }
        assert_eq!(ours.total_stumps(), 1446);
        assert!(packed_bytes(&ours) < 20 * 1024);
        // 2913 stumps over 25 stages: still inside 64 KiB.
        let mut cv = Cascade::new("opencv-like", 24);
        for i in 0..25 {
            let n = 2913 / 25 + usize::from(i < 2913 % 25);
            cv.stages.push(Stage {
                stumps: vec![stump(FeatureKind::EdgeH, 0, 0.1, -0.1); n],
                threshold: 0.0,
            });
        }
        assert!(packed_bytes(&cv) < 40 * 1024);
    }

    #[test]
    #[should_panic(expected = "bad cascade magic")]
    fn decode_rejects_garbage() {
        decode_cascade(&[1, 2, 3], "x");
    }
}
