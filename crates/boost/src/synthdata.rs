//! Synthetic training corpora (substitute for the paper's face databases;
//! see DESIGN.md `#substitutions`).
//!
//! Faces come from `fd_imgproc::synth`'s procedural frontal-face model;
//! negatives are random windows cut from procedural background textures.
//! Between cascade stages, [`NegativeSource::bootstrap`] regenerates the
//! negative pool with windows the *current* cascade still accepts — the
//! paper's "additional bootstrapping routine ... to avoid redundancy in
//! the set of background images, while improving the discriminative power
//! of the boosting algorithm". Candidate generation runs in a producer
//! thread connected by a bounded `std::sync::mpsc` channel so texture
//! synthesis overlaps cascade filtering.

use std::sync::mpsc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fd_haar::{Cascade, WINDOW};
use fd_imgproc::filter::antialias_3tap;
use fd_imgproc::resize::resize_bilinear;
use fd_imgproc::synth::{render_background, render_random_background, BackgroundKind, FaceParams};
use fd_imgproc::{GrayImage, IntegralImage, Rect};

/// Match the detection pipeline's preprocessing: at detection time every
/// pyramid level is bilinearly scaled and low-pass filtered before the
/// integral image is built, so training windows must see the same
/// smoothing or the learned thresholds are miscalibrated (crisp training
/// pixels vs filtered test pixels).
fn pipeline_preprocess(window: &GrayImage) -> GrayImage {
    antialias_3tap(window)
}

/// Stream of negative candidate windows: a mixture of background-texture
/// crops, blob fields, and *decoy* faces (corrupted frontal faces, see
/// `FaceParams::decoy`) composited onto textures. The decoy share is what
/// keeps bootstrapping productive deep into the cascade — without
/// face-like negatives, training runs out of false positives after a
/// handful of stages (the synthetic analogue of a background corpus with
/// no people-adjacent clutter).
struct CandidateStream {
    rng: StdRng,
    tile: usize,
    bg: GrayImage,
    crops_left: usize,
}

impl CandidateStream {
    fn new(seed: u64, tile: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bg = render_random_background(&mut rng, tile, tile);
        Self { rng, tile, bg, crops_left: (tile / WINDOW as usize).pow(2).max(1) }
    }

    fn next(&mut self) -> GrayImage {
        let win = self.next_raw();
        pipeline_preprocess(&win)
    }

    fn next_raw(&mut self) -> GrayImage {
        let w = WINDOW as usize;
        // Mixture: mostly plain textures (matching the statistics of real
        // video frames, so stage-1 thresholds calibrate to natural
        // content), with a decoy/blob minority. Bootstrapping's survivor
        // selection concentrates the hard cases in deeper stages on its
        // own — the raw pool must *contain* hard negatives, not be
        // dominated by them.
        match self.rng.random_range(0..20u32) {
            // Plain texture crops (refreshing the texture periodically).
            0..=13 => {
                if self.crops_left == 0 {
                    self.bg = render_random_background(&mut self.rng, self.tile, self.tile);
                    self.crops_left = (self.tile / w).pow(2).max(1);
                }
                self.crops_left -= 1;
                random_crop(&mut self.rng, &self.bg)
            }
            // Decoy faces composited onto a textured window.
            14..=17 => {
                let mut win = render_background(&mut self.rng, w, w, BackgroundKind::ValueNoise);
                let size = self.rng.random_range(18..=30usize);
                let decoy = FaceParams::decoy(&mut self.rng).render(size);
                let off = (w as i32 - size as i32) / 2 + self.rng.random_range(-2..=2);
                win.blit(&decoy, off, off);
                win
            }
            // Direct blob-field windows (eye-pair lookalikes).
            _ => render_background(&mut self.rng, w, w, BackgroundKind::BlobField),
        }
    }
}

/// Generate `n` synthetic 24x24 face training windows.
///
/// Each face is rendered at a random larger size and bilinearly reduced
/// to the window, then low-pass filtered — the exact transformation a
/// face in a video frame undergoes on its way through the pyramid, so the
/// training distribution matches the windows the cascade will see.
pub fn synth_faces(n: usize, seed: u64) -> Vec<GrayImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = WINDOW as usize;
    (0..n)
        .map(|_| {
            let render_size = (w as f64 * rng.random_range(1.0..2.5)).round() as usize;
            let raw = FaceParams::sample(&mut rng).render(render_size);
            let scaled = if render_size == w { raw } else { resize_bilinear(&raw, w, w) };
            pipeline_preprocess(&scaled)
        })
        .collect()
}

/// Streaming source of negative (background) training windows.
pub struct NegativeSource {
    rng: StdRng,
    /// Side of the intermediate background textures windows are cut from.
    tile: usize,
}

impl NegativeSource {
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), tile: 96 }
    }

    /// Draw `n` unconditioned negative windows (stage-0 pool).
    pub fn initial(&mut self, n: usize) -> Vec<GrayImage> {
        let mut stream = CandidateStream::new(self.rng.random(), self.tile);
        (0..n).map(|_| stream.next()).collect()
    }

    /// Draw up to `n` windows that the current `cascade` still accepts
    /// (false positives), giving up after `max_candidates` tries.
    ///
    /// Candidate crops are produced by a generator thread and filtered on
    /// the consumer side (task parallelism of the paper's §IV applied to
    /// bootstrapping).
    pub fn bootstrap(
        &mut self,
        cascade: &Cascade,
        n: usize,
        max_candidates: usize,
    ) -> Vec<GrayImage> {
        let tile = self.tile;
        let seed: u64 = self.rng.random();
        let (tx, rx) = mpsc::sync_channel::<GrayImage>(256);
        let mut kept = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream = CandidateStream::new(seed, tile);
                for _ in 0..max_candidates {
                    if tx.send(stream.next()).is_err() {
                        break;
                    }
                }
                drop(tx);
            });
            for crop in rx.iter() {
                let ii = IntegralImage::from_gray(&crop);
                if cascade.classify(&ii, 0, 0) {
                    kept.push(crop);
                    if kept.len() >= n {
                        break;
                    }
                }
            }
            // Hang up so a still-blocked producer send unblocks and the
            // producer thread exits before the scope joins it.
            drop(rx);
        });
        kept
    }
}

fn random_crop<R: Rng + ?Sized>(rng: &mut R, bg: &GrayImage) -> GrayImage {
    let w = WINDOW as usize;
    let x = rng.random_range(0..=bg.width() - w) as i32;
    let y = rng.random_range(0..=bg.height() - w) as i32;
    bg.crop(Rect::new(x, y, w as u32, w as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_faces_are_window_sized_and_distinct() {
        let faces = synth_faces(5, 42);
        assert_eq!(faces.len(), 5);
        for f in &faces {
            assert_eq!((f.width(), f.height()), (24, 24));
        }
        assert_ne!(faces[0].as_slice(), faces[1].as_slice());
    }

    #[test]
    fn synth_faces_are_seed_deterministic() {
        let a = synth_faces(3, 7);
        let b = synth_faces(3, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn initial_negatives_fill_the_pool() {
        let mut src = NegativeSource::new(1);
        let negs = src.initial(40);
        assert_eq!(negs.len(), 40);
        for n in &negs {
            assert_eq!((n.width(), n.height()), (24, 24));
        }
    }

    #[test]
    fn bootstrap_against_empty_cascade_accepts_everything() {
        let mut src = NegativeSource::new(2);
        let c = Cascade::new("empty", 24);
        let negs = src.bootstrap(&c, 10, 100);
        assert_eq!(negs.len(), 10);
    }

    #[test]
    fn bootstrap_respects_candidate_budget() {
        // A cascade that rejects everything: one stage with an impossible
        // threshold.
        let mut c = Cascade::new("reject-all", 24);
        c.stages.push(fd_haar::Stage { stumps: vec![], threshold: f32::INFINITY });
        let mut src = NegativeSource::new(3);
        let negs = src.bootstrap(&c, 10, 200);
        assert!(negs.is_empty());
    }
}
