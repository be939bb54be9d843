//! Procedural face and background synthesis.
//!
//! Stands in for the paper's training corpus (11 742 frontal 24x24 faces +
//! 3 500 backgrounds) and its accuracy corpus (SCFace mug shots + 3 000
//! backgrounds), which are not redistributable. Haar cascades consume only
//! gray-level *contrast structure* over rectangles, so a generator that
//! plants the canonical frontal-face contrasts — eye sockets darker than
//! forehead/cheeks, nose ridge brighter than its flanks, mouth band darker
//! than chin — with realistic intra-class variation (position jitter,
//! scale, illumination gradients, contrast, noise) exercises exactly the
//! code paths and statistics the paper measures (stage-wise rejection,
//! ROC shape). See DESIGN.md `#substitutions`.
//!
//! The face is modelled as a continuous intensity field over normalized
//! coordinates and can be rendered at any resolution, which the video
//! substrate uses to composite faces of arbitrary sizes into frames.

use rand::Rng;

use crate::geom::PointF;
use crate::image::GrayImage;

/// Canonical normalized eye centers of the face model (fractions of the
/// window). Shared convention: training, ground truth and the detector's
/// predicted-eye estimate all use these.
pub const EYE_LEFT: (f64, f64) = (0.30, 0.38);
/// See [`EYE_LEFT`].
pub const EYE_RIGHT: (f64, f64) = (0.70, 0.38);

/// Parameters of one sampled face instance.
#[derive(Debug, Clone)]
pub struct FaceParams {
    /// Base skin intensity (mid gray).
    pub skin: f32,
    /// Intensity of the region outside the head oval (hair/backdrop).
    pub surround: f32,
    /// Eye darkness (subtracted from skin).
    pub eye_depth: f32,
    /// Brow darkness.
    pub brow_depth: f32,
    /// Mouth darkness.
    pub mouth_depth: f32,
    /// Nose-ridge brightness (added to skin).
    pub nose_gain: f32,
    /// Cheek brightness.
    pub cheek_gain: f32,
    /// Horizontal/vertical illumination gradient, intensity per unit uv.
    pub grad: (f32, f32),
    /// Feature-position jitter in uv units.
    pub jitter: (f64, f64),
    /// Overall feature scale multiplier (~1.0).
    pub feat_scale: f64,
    /// Relative strength of the left eye (natural asymmetry ~1.0; decoys
    /// may zero it out).
    pub left_eye_scale: f32,
    /// Additive Gaussian noise sigma.
    pub noise_sigma: f32,
    /// RNG stream for the pixel noise.
    pub noise_seed: u64,
}

impl FaceParams {
    /// Draw a random face instance. Ranges are deliberately wide (weak
    /// contrasts, strong noise, illumination gradients) so that a single
    /// Haar feature cannot separate faces from hard negatives — the
    /// property that forces multi-stump stages during cascade training.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            skin: rng.random_range(110.0..185.0),
            surround: rng.random_range(30.0..130.0),
            eye_depth: rng.random_range(30.0..95.0),
            brow_depth: rng.random_range(12.0..55.0),
            mouth_depth: rng.random_range(15.0..60.0),
            nose_gain: rng.random_range(5.0..30.0),
            cheek_gain: rng.random_range(3.0..20.0),
            grad: (rng.random_range(-35.0..35.0), rng.random_range(-25.0..25.0)),
            jitter: (rng.random_range(-0.06..0.06), rng.random_range(-0.06..0.06)),
            feat_scale: rng.random_range(0.84..1.19),
            left_eye_scale: rng.random_range(0.85..1.15),
            noise_sigma: rng.random_range(3.0..13.0),
            noise_seed: rng.random(),
        }
    }

    /// Draw a *decoy*: a corrupted face used as a hard negative. Decoys
    /// keep much of the frontal-face contrast budget but violate at least
    /// one defining property (inverted polarity, missing parts, wrong
    /// framing), so early cascade stages cannot reject them and training
    /// is forced to grow deep, multi-feature stages — standing in for the
    /// hard backgrounds a real bootstrap mines from photographs.
    pub fn decoy<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut p = Self::sample(rng);
        match rng.random_range(0..9u32) {
            // Inverted polarity: bright "eyes" / dark cheeks.
            0 => {
                p.eye_depth = -p.eye_depth;
                p.cheek_gain = -p.cheek_gain;
            }
            // Missing eyes (the most discriminative part).
            1 => {
                p.eye_depth *= rng.random_range(0.0..0.2);
                p.brow_depth *= rng.random_range(0.0..0.3);
            }
            // Missing lower face.
            2 => {
                p.mouth_depth *= rng.random_range(0.0..0.2);
                p.nose_gain *= rng.random_range(0.0..0.3);
            }
            // Badly framed: face much too small or large for the window.
            3 => {
                p.feat_scale = if rng.random() {
                    rng.random_range(0.45..0.65)
                } else {
                    rng.random_range(1.5..2.0)
                };
            }
            // Badly centered: half the face outside the window.
            4 => {
                p.jitter = (
                    rng.random_range(0.18..0.35) * if rng.random() { 1.0 } else { -1.0 },
                    rng.random_range(-0.25..0.25),
                );
            }
            // --- subtle decoys: close to the face manifold, they keep
            // --- deep cascade stages supplied with hard negatives.
            // Mildly mis-scaled.
            5 => {
                p.feat_scale = if rng.random() {
                    rng.random_range(0.62..0.78)
                } else {
                    rng.random_range(1.28..1.48)
                };
            }
            // One eye missing (cyclops-adjacent clutter).
            6 => {
                p.left_eye_scale = rng.random_range(-0.2..0.15);
            }
            // Washed-out eyes: socket contrast strictly below the
            // weakest genuine face (samples draw eye_depth >= 30).
            7 => {
                p.eye_depth = rng.random_range(8.0..22.0);
            }
            // Mildly off-center.
            _ => {
                p.jitter = (
                    rng.random_range(0.10..0.17) * if rng.random() { 1.0 } else { -1.0 },
                    rng.random_range(0.08..0.15) * if rng.random() { 1.0 } else { -1.0 },
                );
            }
        }
        p
    }

    /// The "average" face with no jitter or noise; useful in tests.
    pub fn nominal() -> Self {
        Self {
            skin: 150.0,
            surround: 75.0,
            eye_depth: 75.0,
            brow_depth: 40.0,
            mouth_depth: 45.0,
            nose_gain: 20.0,
            cheek_gain: 12.0,
            grad: (0.0, 0.0),
            jitter: (0.0, 0.0),
            feat_scale: 1.0,
            left_eye_scale: 1.0,
            noise_sigma: 0.0,
            noise_seed: 0,
        }
    }

    /// The face intensity field at normalized coordinates `(u, v)` in
    /// `[0, 1]^2` (noise excluded).
    pub fn field(&self, u: f64, v: f64) -> f32 {
        let (ju, jv) = self.jitter;
        let s = self.feat_scale;
        // Re-center feature coordinates around the jittered face center.
        let fu = 0.5 + (u - 0.5 - ju) / s;
        let fv = 0.5 + (v - 0.5 - jv) / s;

        let mut val = self.skin + self.grad.0 * (u as f32 - 0.5) + self.grad.1 * (v as f32 - 0.5);

        // Head oval; outside is surround (hair / backdrop).
        let eu = (fu - 0.5) / 0.47;
        let ev = (fv - 0.52) / 0.50;
        if eu * eu + ev * ev > 1.0 {
            return self.surround + self.grad.0 * (u as f32 - 0.5);
        }

        // Eye sockets (left eye modulated by the asymmetry factor).
        for &((ex, ey), strength) in &[(EYE_LEFT, self.left_eye_scale), (EYE_RIGHT, 1.0)] {
            let du = (fu - ex) / 0.085;
            let dv = (fv - ey) / 0.055;
            let d2 = du * du + dv * dv;
            if d2 < 1.0 {
                val -= strength * self.eye_depth * (1.0 - d2 as f32);
            }
        }
        // Brows.
        for &bx in &[0.30, 0.70] {
            if (fv - 0.28).abs() < 0.025 && (fu - bx).abs() < 0.12 {
                val -= self.brow_depth;
            }
        }
        // Nose ridge and nostril shadow.
        if (fu - 0.5).abs() < 0.035 && (0.36..0.60).contains(&fv) {
            val += self.nose_gain;
        }
        if (fu - 0.5).abs() < 0.08 && (fv - 0.63).abs() < 0.02 {
            val -= 0.6 * self.brow_depth;
        }
        // Mouth band.
        if (fu - 0.5).abs() < 0.17 && (fv - 0.75).abs() < 0.03 {
            val -= self.mouth_depth;
        }
        // Cheek highlights.
        for &cx in &[0.28, 0.72] {
            let du = (fu - cx) / 0.12;
            let dv = (fv - 0.58) / 0.10;
            let d2 = du * du + dv * dv;
            if d2 < 1.0 {
                val += self.cheek_gain * (1.0 - d2 as f32);
            }
        }
        val
    }

    /// Render to a `size x size` window with 2x supersampling and noise.
    pub fn render(&self, size: usize) -> GrayImage {
        let mut noise = SplitMix64::new(self.noise_seed);
        let inv = 1.0 / size as f64;
        GrayImage::from_fn(size, size, |x, y| {
            // 2x2 supersample.
            let mut acc = 0.0f32;
            for (du, dv) in [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)] {
                acc += self.field((x as f64 + du) * inv, (y as f64 + dv) * inv);
            }
            let mut v = acc / 4.0;
            if self.noise_sigma > 0.0 {
                v += self.noise_sigma * noise.next_gaussian() as f32;
            }
            v.clamp(0.0, 255.0)
        })
    }

    /// Ground-truth eye centers for a face rendered at `size`, offset by
    /// `(ox, oy)` (composite position).
    pub fn eye_centers(&self, size: f64, ox: f64, oy: f64) -> (PointF, PointF) {
        let map = |(ex, ey): (f64, f64)| PointF {
            x: ox + (0.5 + (ex - 0.5) * self.feat_scale + self.jitter.0) * size,
            y: oy + (0.5 + (ey - 0.5) * self.feat_scale + self.jitter.1) * size,
        };
        (map(EYE_LEFT), map(EYE_RIGHT))
    }
}

/// Background texture families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundKind {
    /// Smooth value noise (clouds, walls, foliage at a distance).
    ValueNoise,
    /// Linear illumination gradient.
    Gradient,
    /// Periodic stripes (fences, blinds).
    Stripes,
    /// Random axis-aligned rectangles (buildings, posters) — the family
    /// most likely to contain face-like contrast, keeping training honest.
    Blocks,
    /// Dark elliptical blobs on a lighter ground (foliage, crowds,
    /// bokeh): pairs of blobs at eye-like spacings are the classic source
    /// of Haar-cascade false positives.
    BlobField,
}

/// Render a random background of the given kind.
pub fn render_background<R: Rng + ?Sized>(
    rng: &mut R,
    width: usize,
    height: usize,
    kind: BackgroundKind,
) -> GrayImage {
    match kind {
        BackgroundKind::ValueNoise => {
            let cell = rng.random_range(6..24usize);
            value_noise(rng, width, height, cell)
        }
        BackgroundKind::Gradient => {
            let base = rng.random_range(40.0..200.0f32);
            let gx = rng.random_range(-60.0..60.0f32);
            let gy = rng.random_range(-60.0..60.0f32);
            GrayImage::from_fn(width, height, |x, y| {
                (base + gx * x as f32 / width as f32 + gy * y as f32 / height as f32)
                    .clamp(0.0, 255.0)
            })
        }
        BackgroundKind::Stripes => {
            let period = rng.random_range(4.0..32.0f32);
            let phase = rng.random_range(0.0..std::f32::consts::TAU);
            let vertical = rng.random::<bool>();
            let lo = rng.random_range(30.0..100.0f32);
            let hi = rng.random_range(140.0..230.0f32);
            GrayImage::from_fn(width, height, |x, y| {
                let t = if vertical { x } else { y } as f32;
                let s = ((t / period * std::f32::consts::TAU + phase).sin() + 1.0) / 2.0;
                lo + (hi - lo) * s
            })
        }
        BackgroundKind::Blocks => {
            let base = rng.random_range(60.0..180.0f32);
            let mut img = GrayImage::from_fn(width, height, |_, _| base);
            let n = rng.random_range(6..30usize);
            for _ in 0..n {
                let bw = rng.random_range(1..=width.max(2) / 2);
                let bh = rng.random_range(1..=height.max(2) / 2);
                let bx = rng.random_range(0..width);
                let by = rng.random_range(0..height);
                let v = rng.random_range(20.0..235.0f32);
                for y in by..(by + bh).min(height) {
                    for x in bx..(bx + bw).min(width) {
                        img.set(x, y, v);
                    }
                }
            }
            img
        }
        BackgroundKind::BlobField => {
            let base = rng.random_range(110.0..190.0f32);
            let mut img = GrayImage::from_fn(width, height, |_, _| base);
            let n = rng.random_range(4..16usize).max(width * height / 900);
            for _ in 0..n {
                let cx = rng.random_range(0.0..width as f32);
                let cy = rng.random_range(0.0..height as f32);
                let rx = rng.random_range(1.5..6.0f32);
                let ry = rng.random_range(1.0..4.5f32);
                let depth = rng.random_range(40.0..130.0f32);
                let x0 = (cx - rx).floor().max(0.0) as usize;
                let x1 = ((cx + rx).ceil() as usize).min(width.saturating_sub(1));
                let y0 = (cy - ry).floor().max(0.0) as usize;
                let y1 = ((cy + ry).ceil() as usize).min(height.saturating_sub(1));
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        let du = (x as f32 - cx) / rx;
                        let dv = (y as f32 - cy) / ry;
                        let d2 = du * du + dv * dv;
                        if d2 < 1.0 {
                            let v = img.get(x, y) - depth * (1.0 - d2);
                            img.set(x, y, v.max(0.0));
                        }
                    }
                }
            }
            img
        }
    }
}

/// Render a random background of a random kind.
pub fn render_random_background<R: Rng + ?Sized>(
    rng: &mut R,
    width: usize,
    height: usize,
) -> GrayImage {
    let kind = match rng.random_range(0..5u32) {
        0 => BackgroundKind::ValueNoise,
        1 => BackgroundKind::Gradient,
        2 => BackgroundKind::Stripes,
        3 => BackgroundKind::Blocks,
        _ => BackgroundKind::BlobField,
    };
    render_background(rng, width, height, kind)
}

/// Smooth value noise: a coarse random lattice sampled bilinearly.
pub fn value_noise<R: Rng + ?Sized>(
    rng: &mut R,
    width: usize,
    height: usize,
    cell: usize,
) -> GrayImage {
    let cell = cell.max(2);
    let gw = width / cell + 2;
    let gh = height / cell + 2;
    let grid: Vec<f32> = (0..gw * gh).map(|_| rng.random_range(20.0..235.0)).collect();
    GrayImage::from_fn(width, height, |x, y| {
        let fx = x as f32 / cell as f32;
        let fy = y as f32 / cell as f32;
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let g = |gx: usize, gy: usize| grid[gy.min(gh - 1) * gw + gx.min(gw - 1)];
        let top = g(x0, y0) * (1.0 - tx) + g(x0 + 1, y0) * tx;
        let bot = g(x0, y0 + 1) * (1.0 - tx) + g(x0 + 1, y0 + 1) * tx;
        top * (1.0 - ty) + bot * ty
    })
}

/// Small deterministic RNG for pixel noise (SplitMix64), independent of the
/// `rand` crate's stream ordering so renders are stable across rand
/// versions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
    spare: Option<f64>,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed, spare: None }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let (mut u1, u2) = (self.next_f64(), self.next_f64());
        if u1 < 1e-300 {
            u1 = 1e-300;
        }
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_face_has_canonical_contrasts() {
        let f = FaceParams::nominal();
        let img = f.render(24);
        // Eye regions darker than forehead and cheeks.
        let eye_l = img.get(7, 9);
        let forehead = img.get(12, 3);
        let cheek = img.get(7, 14);
        assert!(eye_l < forehead - 20.0, "eye {eye_l} vs forehead {forehead}");
        assert!(eye_l < cheek - 20.0, "eye {eye_l} vs cheek {cheek}");
        // Nose ridge brighter than its flanks.
        let nose = img.get(12, 11);
        let flank = img.get(9, 12);
        assert!(nose > flank + 5.0, "nose {nose} vs flank {flank}");
        // Mouth darker than chin.
        let mouth = img.get(12, 18);
        let chin = img.get(12, 21);
        assert!(mouth < chin - 15.0, "mouth {mouth} vs chin {chin}");
    }

    #[test]
    fn sampled_faces_vary_but_keep_structure() {
        let mut rng = StdRng::seed_from_u64(7);
        // 3x3 neighbourhood mean, robust to the per-pixel noise.
        let patch = |img: &GrayImage, cx: usize, cy: usize| -> f32 {
            let mut acc = 0.0;
            for dy in 0..3 {
                for dx in 0..3 {
                    acc += img.get(cx + dx - 1, cy + dy - 1);
                }
            }
            acc / 9.0
        };
        let mut eye_vals = Vec::new();
        let mut darker = 0;
        for _ in 0..20 {
            let f = FaceParams::sample(&mut rng);
            let img = f.render(24);
            let eye = (patch(&img, 7, 9) + patch(&img, 17, 9)) / 2.0;
            let cheeks = (patch(&img, 7, 14) + patch(&img, 17, 14)) / 2.0;
            if eye < cheeks {
                darker += 1;
            }
            eye_vals.push(eye);
        }
        // Weak-contrast instances exist, but the canonical structure must
        // dominate.
        assert!(darker >= 17, "eyes darker than cheeks in only {darker}/20 faces");
        let min = eye_vals.iter().cloned().fold(f32::MAX, f32::min);
        let max = eye_vals.iter().cloned().fold(f32::MIN, f32::max);
        assert!(max - min > 5.0, "instances must differ ({min}..{max})");
    }

    #[test]
    fn decoys_break_at_least_one_face_property() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut differs = 0;
        for _ in 0..30 {
            let d = FaceParams::decoy(&mut rng);
            // Sampled faces have eye_depth >= 30, mouth_depth >= 15,
            // feat_scale in 0.88..1.12, |jitter| <= 0.035 and
            // left_eye_scale in 0.85..1.15 — each clause below is
            // unreachable for a genuine face.
            let violates = d.eye_depth < 25.0      // missing/inverted/washed eyes
                || d.mouth_depth < 13.0            // missing mouth
                || !(0.84..=1.19).contains(&d.feat_scale) // mis-scaled
                || d.left_eye_scale < 0.5          // one-eyed
                || d.jitter.0.abs() > 0.09         // off-center
                || d.jitter.1.abs() > 0.07;
            if violates {
                differs += 1;
            }
            // Decoys must still render without panicking at any size.
            let img = d.render(24);
            assert_eq!(img.width(), 24);
        }
        assert_eq!(differs, 30, "every decoy must violate a face property");
    }

    #[test]
    fn eye_centers_track_jitter_and_offset() {
        let mut f = FaceParams::nominal();
        f.jitter = (0.1, 0.0);
        let (l, r) = f.eye_centers(100.0, 10.0, 20.0);
        assert!((l.x - (10.0 + 40.0)).abs() < 1e-9); // 0.30 + 0.1 jitter
        assert!((r.x - (10.0 + 80.0)).abs() < 1e-9);
        assert!((l.y - (20.0 + 38.0)).abs() < 1e-9);
    }

    #[test]
    fn renders_at_any_resolution() {
        let f = FaceParams::nominal();
        for size in [24, 48, 96] {
            let img = f.render(size);
            assert_eq!(img.width(), size);
            // The structure scales: eyes dark relative to image mean.
            let e = img.get(size * 3 / 10, size * 38 / 100);
            let mean = img.as_slice().iter().map(|&v| v as f64).sum::<f64>() / (size * size) as f64;
            assert!((e as f64) < mean);
        }
    }

    #[test]
    fn backgrounds_cover_all_kinds_and_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        for kind in [
            BackgroundKind::ValueNoise,
            BackgroundKind::Gradient,
            BackgroundKind::Stripes,
            BackgroundKind::Blocks,
            BackgroundKind::BlobField,
        ] {
            let img = render_background(&mut rng, 64, 48, kind);
            assert_eq!((img.width(), img.height()), (64, 48));
            for &v in img.as_slice() {
                assert!((0.0..=255.0).contains(&v), "{kind:?} out of range: {v}");
            }
        }
    }

    #[test]
    fn value_noise_is_smooth() {
        let mut rng = StdRng::seed_from_u64(11);
        let img = value_noise(&mut rng, 64, 64, 16);
        let mut max_step = 0.0f32;
        for y in 0..64 {
            for x in 1..64 {
                max_step = max_step.max((img.get(x, y) - img.get(x - 1, y)).abs());
            }
        }
        // Neighbouring pixels differ by at most the lattice range / cell.
        assert!(max_step < 30.0, "max step {max_step}");
    }

    #[test]
    fn splitmix_gaussian_has_sane_moments() {
        let mut g = SplitMix64::new(42);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let v = g.next_gaussian();
            sum += v;
            sum2 += v * v;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
