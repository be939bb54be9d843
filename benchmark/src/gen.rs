//! Seeded inputs. Everything a workload feeds the program is derived
//! from `--seed` here; the program itself only ever sees the inputs.

use fd_detector::Backend;
use fd_imgproc::synth::{render_random_background, FaceParams, SplitMix64};
use fd_imgproc::GrayImage;
use fd_serve::Priority;
use fd_video::{Trailer, TrailerSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent sub-seed for item `index` of input stream `stream`.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(
        seed ^ stream.wrapping_mul(0xA24BAED4963EE407) ^ index.wrapping_mul(0x9E3779B97F4A7C15),
    );
    rng.next_u64()
}

/// A one-scene, one-frame clip with the face statistics of the catalog's
/// "50/50" trailer (the one the paper plots in Fig. 5), face sizes scaled
/// to the frame height. One clip per op keeps a single background alive
/// at a time and gives every op its own scene, so the scene mix of a run
/// does not hinge on two or three long scenes.
pub fn clip(seed: u64, width: usize, height: usize) -> Trailer {
    let scale = height as f64 / 1080.0;
    Trailer::generate(TrailerSpec {
        name: "50/50".into(),
        width,
        height,
        n_frames: 1,
        seed,
        scene_len: (1, 1),
        face_count_weights: vec![0.05, 0.28, 0.30, 0.22, 0.15],
        face_size: ((56.0 * scale).max(24.0), 280.0 * scale),
        ..TrailerSpec::default()
    })
}

/// A serving-sized frame: a random background with, half the time, one
/// face of 24-40 px (the cascade window is 24 px).
pub fn small_frame(seed: u64, width: usize, height: usize) -> GrayImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = render_random_background(&mut rng, width, height);
    if rng.random::<bool>() {
        let size = rng.random_range(24..=40usize).min(height);
        let x = rng.random_range(0..=width - size) as i32;
        let y = rng.random_range(0..=height - size) as i32;
        img.blit(&FaceParams::sample(&mut rng).render(size), x, y);
    }
    img
}

/// One request of an open-loop schedule.
pub struct Request {
    pub frame: GrayImage,
    pub priority: Priority,
    pub backend: Backend,
    /// Scheduled arrival on the virtual calendar.
    pub arrival_us: f64,
}

/// Traffic mix of a serving workload.
pub struct Mix {
    /// `(width, height, weight)`; weights sum to 1.
    pub geometries: &'static [(usize, usize, f64)],
    /// Share of Interactive / Standard / Bulk requests.
    pub priorities: [f64; 3],
    /// Share of CNN-classed requests.
    pub cnn_share: f64,
}

fn pick(weights: impl Iterator<Item = f64>, u: f64) -> usize {
    let mut acc = 0.0;
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        acc += w;
        last = i;
        if u < acc {
            return i;
        }
    }
    last
}

/// `n` requests with Poisson arrivals at `rate_rps` (`None`: all due at
/// t = 0, a burst). Frames, classes, priorities and inter-arrival gaps
/// each draw from their own stream, so changing one leaves the others.
pub fn requests(seed: u64, n: usize, rate_rps: Option<f64>, mix: &Mix) -> Vec<Request> {
    let mut gaps = SplitMix64::new(sub_seed(seed, 1, 0));
    let mut classes = SplitMix64::new(sub_seed(seed, 2, 0));
    let mut t_us = 0.0;
    (0..n)
        .map(|i| {
            if let Some(rate) = rate_rps {
                // next_f64 is in [0, 1); 1 - u keeps the log finite.
                t_us += -(1.0 - gaps.next_f64()).ln() / rate * 1e6;
            }
            let (w, h, _) =
                mix.geometries[pick(mix.geometries.iter().map(|g| g.2), classes.next_f64())];
            let priority = Priority::ALL[pick(mix.priorities.into_iter(), classes.next_f64())];
            let backend =
                if classes.next_f64() < mix.cnn_share { Backend::Cnn } else { Backend::Haar };
            Request {
                frame: small_frame(sub_seed(seed, 3, i as u64), w, h),
                priority,
                backend,
                arrival_us: t_us,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        geometries: &[(64, 48, 0.6), (80, 60, 0.3), (96, 72, 0.1)],
        priorities: [0.2, 0.6, 0.2],
        cnn_share: 0.5,
    };

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = requests(7, 200, Some(10_000.0), &MIX);
        let b = requests(7, 200, Some(10_000.0), &MIX);
        let c = requests(8, 200, Some(10_000.0), &MIX);
        let key = |r: &Request| (r.arrival_us.to_bits(), r.frame.width(), r.priority.index());
        assert!(a.iter().zip(&b).all(|(x, y)| key(x) == key(y)
            && x.frame.as_slice() == y.frame.as_slice()
            && x.backend == y.backend));
        assert!(a.iter().zip(&c).any(|(x, y)| key(x) != key(y)));
        assert!(a.windows(2).all(|w| w[0].arrival_us < w[1].arrival_us));
        let small = a.iter().filter(|r| r.frame.width() == 64).count();
        assert!((90..150).contains(&small), "60% of 200 are 64x48, got {small}");
        assert!(requests(7, 5, None, &MIX).iter().all(|r| r.arrival_us == 0.0));
    }

    #[test]
    fn clips_carry_one_frame_of_the_requested_size() {
        let t = clip(3, 640, 480);
        assert_eq!((t.spec.n_frames, t.scene_count()), (1, 1));
        let f = t.render_frame(0);
        assert_eq!((f.width(), f.height()), (640, 480));
        assert_eq!(f.as_slice(), clip(3, 640, 480).render_frame(0).as_slice());
    }
}
