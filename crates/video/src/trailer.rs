//! Scene-structured synthetic trailers with ground truth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fd_imgproc::synth::{render_random_background, FaceParams};
use fd_imgproc::{GrayImage, PointF, Rect};

/// Generation parameters for one trailer.
#[derive(Debug, Clone)]
pub struct TrailerSpec {
    pub name: String,
    pub width: usize,
    pub height: usize,
    pub fps: f64,
    pub n_frames: usize,
    pub seed: u64,
    /// Scene length bounds, frames.
    pub scene_len: (usize, usize),
    /// Faces per scene: weights for 0, 1, 2, ... faces.
    pub face_count_weights: Vec<f64>,
    /// Face size bounds, pixels.
    pub face_size: (f64, f64),
}

impl Default for TrailerSpec {
    fn default() -> Self {
        Self {
            name: "untitled".into(),
            width: 1920,
            height: 1080,
            fps: 24.0,
            n_frames: 240,
            seed: 1,
            scene_len: (36, 120),
            face_count_weights: vec![0.2, 0.35, 0.25, 0.12, 0.08],
            face_size: (48.0, 260.0),
        }
    }
}

/// One face track within a scene: linear motion + smooth size change.
#[derive(Debug, Clone)]
struct FaceTrack {
    params: FaceParams,
    /// Top-left position at scene start / end.
    p0: (f64, f64),
    p1: (f64, f64),
    /// Size (pixels) at scene start / end.
    s0: f64,
    s1: f64,
}

#[derive(Debug, Clone)]
struct Scene {
    start: usize,
    len: usize,
    background: GrayImage,
    faces: Vec<FaceTrack>,
}

/// Ground truth for one visible face in one frame.
#[derive(Debug, Clone)]
pub struct FaceInstance {
    /// Face bounding box in frame coordinates.
    pub rect: Rect,
    /// Ground-truth eye centers.
    pub eyes: (PointF, PointF),
}

/// A fully generated trailer: scenes precomputed, frames rendered on
/// demand (backgrounds cached per scene).
pub struct Trailer {
    pub spec: TrailerSpec,
    scenes: Vec<Scene>,
}

impl Trailer {
    /// Generate the scene structure for `spec` (deterministic in the seed).
    pub fn generate(spec: TrailerSpec) -> Self {
        assert!(spec.n_frames > 0 && spec.width >= 64 && spec.height >= 64);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut scenes = Vec::new();
        let mut start = 0usize;
        while start < spec.n_frames {
            let len = rng.random_range(spec.scene_len.0..=spec.scene_len.1);
            let len = len.min(spec.n_frames - start);
            let background = render_random_background(&mut rng, spec.width, spec.height);
            let n_faces = sample_weighted(&mut rng, &spec.face_count_weights);
            let mut faces = Vec::new();
            for _ in 0..n_faces {
                let s0 = rng.random_range(spec.face_size.0..spec.face_size.1);
                // Sizes drift by up to +/-25% over a scene.
                let s1 =
                    (s0 * rng.random_range(0.75..1.25)).clamp(spec.face_size.0, spec.face_size.1);
                let smax = s0.max(s1);
                let max_x = (spec.width as f64 - smax).max(1.0);
                let max_y = (spec.height as f64 - smax).max(1.0);
                let p0 = (rng.random_range(0.0..max_x), rng.random_range(0.0..max_y));
                // Drift up to ~15% of the frame over the scene.
                let drift = 0.15 * spec.width as f64;
                let p1 = (
                    (p0.0 + rng.random_range(-drift..drift)).clamp(0.0, max_x),
                    (p0.1 + rng.random_range(-drift..drift)).clamp(0.0, max_y),
                );
                faces.push(FaceTrack { params: FaceParams::sample(&mut rng), p0, p1, s0, s1 });
            }
            scenes.push(Scene { start, len, background, faces });
            start += len;
        }
        Self { spec, scenes }
    }

    /// Number of scenes.
    pub fn scene_count(&self) -> usize {
        self.scenes.len()
    }

    fn scene_of(&self, frame: usize) -> &Scene {
        assert!(frame < self.spec.n_frames, "frame {frame} out of range");
        self.scenes
            .iter()
            .rev()
            .find(|s| s.start <= frame)
            .expect("scene coverage is contiguous from 0")
    }

    /// Interpolation parameter of `frame` within its scene (0..=1).
    fn scene_t(scene: &Scene, frame: usize) -> f64 {
        if scene.len <= 1 {
            0.0
        } else {
            (frame - scene.start) as f64 / (scene.len - 1) as f64
        }
    }

    /// Ground-truth faces visible in `frame`.
    pub fn faces_at(&self, frame: usize) -> Vec<FaceInstance> {
        let scene = self.scene_of(frame);
        let t = Self::scene_t(scene, frame);
        scene
            .faces
            .iter()
            .map(|f| {
                let size = f.s0 + (f.s1 - f.s0) * t;
                let x = f.p0.0 + (f.p1.0 - f.p0.0) * t;
                let y = f.p0.1 + (f.p1.1 - f.p0.1) * t;
                let rect = Rect::new(
                    x.round() as i32,
                    y.round() as i32,
                    size.round() as u32,
                    size.round() as u32,
                );
                let eyes = f.params.eye_centers(size, x, y);
                FaceInstance { rect, eyes }
            })
            .collect()
    }

    /// Render the luma plane of `frame`.
    pub fn render_frame(&self, frame: usize) -> GrayImage {
        let scene = self.scene_of(frame);
        let t = Self::scene_t(scene, frame);
        let mut img = scene.background.clone();
        for f in &scene.faces {
            let size = (f.s0 + (f.s1 - f.s0) * t).round().max(8.0) as usize;
            let x = (f.p0.0 + (f.p1.0 - f.p0.0) * t).round() as i32;
            let y = (f.p0.1 + (f.p1.1 - f.p0.1) * t).round() as i32;
            let patch = f.params.render(size);
            img.blit(&patch, x, y);
        }
        img
    }

    /// Mean number of faces per frame over the whole trailer.
    pub fn mean_faces_per_frame(&self) -> f64 {
        let total: usize = self.scenes.iter().map(|s| s.faces.len() * s.len).sum();
        total as f64 / self.spec.n_frames as f64
    }
}

fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "face count weights must not all be zero");
    let mut r = rng.random_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> TrailerSpec {
        TrailerSpec {
            name: "test".into(),
            width: 320,
            height: 180,
            n_frames: 60,
            seed,
            scene_len: (10, 20),
            face_size: (30.0, 80.0),
            ..TrailerSpec::default()
        }
    }

    #[test]
    fn scenes_tile_the_frame_range() {
        let t = Trailer::generate(small_spec(3));
        assert!(t.scene_count() >= 3);
        // Every frame belongs to exactly one scene and renders.
        let mut covered = 0;
        for s in &t.scenes {
            assert_eq!(s.start, covered);
            covered += s.len;
        }
        assert_eq!(covered, 60);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = Trailer::generate(small_spec(9));
        let b = Trailer::generate(small_spec(9));
        assert_eq!(a.render_frame(17).as_slice(), b.render_frame(17).as_slice());
        assert_eq!(a.faces_at(17).len(), b.faces_at(17).len());
        let c = Trailer::generate(small_spec(10));
        // Different seed differs somewhere (overwhelmingly likely).
        assert_ne!(a.render_frame(0).as_slice(), c.render_frame(0).as_slice());
    }

    #[test]
    fn ground_truth_matches_rendered_faces() {
        let t = Trailer::generate(small_spec(5));
        for frame in [0, 20, 59] {
            let faces = t.faces_at(frame);
            let img = t.render_frame(frame);
            for f in &faces {
                // Eyes must lie inside the face rect and the frame.
                for eye in [f.eyes.0, f.eyes.1] {
                    assert!(eye.x >= f.rect.x as f64 && eye.x <= f.rect.right() as f64);
                    assert!(eye.y >= f.rect.y as f64 && eye.y <= f.rect.bottom() as f64);
                }
                // The eye region must be darker than the face average
                // (only check when fully inside the frame).
                let r = f.rect;
                if r.x >= 0
                    && r.y >= 0
                    && r.right() <= img.width() as i32
                    && r.bottom() <= img.height() as i32
                    && r.w >= 16
                {
                    let eye_px = img.get_clamped(f.eyes.0.x as isize, f.eyes.0.y as isize);
                    let face = img.crop(r);
                    let face_mean = face.as_slice().iter().map(|&v| v as f64).sum::<f64>()
                        / face.as_slice().len() as f64;
                    assert!(
                        (eye_px as f64) < face_mean + 25.0,
                        "frame {frame}: eye {eye_px} vs face mean {face_mean}"
                    );
                }
            }
        }
    }

    #[test]
    fn faces_move_within_a_scene() {
        // Find a scene longer than 1 frame that has a face and check the
        // ground truth moves smoothly.
        let t = Trailer::generate(small_spec(12));
        let scene = t.scenes.iter().find(|s| !s.faces.is_empty() && s.len >= 10);
        if let Some(s) = scene {
            let a = t.faces_at(s.start)[0].rect;
            let b = t.faces_at(s.start + s.len - 1)[0].rect;
            // Motion is bounded by the drift parameter.
            let dx = (a.x - b.x).abs();
            assert!(dx <= (0.15 * 320.0) as i32 + 2, "dx {dx}");
        }
    }

    #[test]
    fn mean_faces_per_frame_reflects_weights() {
        let mut spec = small_spec(7);
        spec.face_count_weights = vec![0.0, 1.0]; // always exactly one face
        let t = Trailer::generate(spec);
        assert!((t.mean_faces_per_frame() - 1.0).abs() < 1e-12);
    }
}
