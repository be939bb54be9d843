//! Deterministic load generators for the serving benchmarks.
//!
//! Two standard shapes drive [`fd_serve::FleetServer`] (a fleet of one is
//! a single server), each request classed Haar or CNN:
//!
//! * **open loop** — arrivals follow a Poisson process of a fixed
//!   offered rate, independent of completions (models external traffic;
//!   exposes saturation because the queue keeps growing when the offered
//!   rate exceeds capacity);
//! * **closed loop** — a fixed number of virtual clients each keep one
//!   request in flight and resubmit after an optional think time
//!   (models a worker pool; throughput self-limits at capacity).
//!
//! Both are seeded and purely arithmetic, so a given (seed, rate, n,
//! CNN fraction) always produces the identical arrival pattern and
//! therefore — by the server's determinism — the identical serving run.

use fd_detector::{Backend, Detector};
use fd_imgproc::GrayImage;
use fd_serve::{FleetServer, Priority, RequestOutcome};

/// Minimal 64-bit LCG (Knuth's MMIX multiplier), good enough for
/// inter-arrival sampling and frame variation without pulling a full
/// RNG into the bench path.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1) }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.state
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        let bits = self.next_u64() >> 11; // 53 significant bits
        (bits as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// `n` Poisson arrival times (virtual µs, ascending from 0) at
/// `rate_rps` requests per second: inter-arrivals are exponential via
/// inverse-CDF sampling of the seeded [`Lcg`].
pub fn exponential_arrivals_us(seed: u64, n: usize, rate_rps: f64) -> Vec<f64> {
    assert!(rate_rps > 0.0, "offered rate must be positive");
    let mut rng = Lcg::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -rng.next_f64().ln() / rate_rps * 1e6;
            t
        })
        .collect()
}

/// A small deterministic test frame: a dark/bright vertical edge pair
/// (the pattern the bench cascades fire on) at a seed-dependent
/// horizontal shift. All variants share one geometry so they batch.
pub fn pattern_frame(w: usize, h: usize, variant: u64) -> GrayImage {
    let shift = (variant % 8) as usize;
    GrayImage::from_fn(w, h, |x, y| {
        let x = x + shift;
        if (20..30).contains(&x) && (h / 4..3 * h / 4).contains(&y) {
            10.0
        } else if (30..40).contains(&x) && (h / 4..3 * h / 4).contains(&y) {
            245.0
        } else {
            120.0
        }
    })
}

/// The per-request backend class sequence for mixed Haar/CNN traffic:
/// request `i` is CNN-classed when the `i`-th draw of a seeded [`Lcg`]
/// falls below `cnn_fraction`. Deterministic in `(seed, n,
/// cnn_fraction)`, and independent of the arrival/frame streams so the
/// same traffic can be replayed with a different class mix.
pub fn backend_sequence(seed: u64, n: usize, cnn_fraction: f64) -> Vec<Backend> {
    assert!((0.0..=1.0).contains(&cnn_fraction), "cnn_fraction must be in [0, 1]");
    let mut rng = Lcg::new(seed ^ 0xBAC0);
    (0..n)
        .map(|_| if rng.next_f64() < cnn_fraction { Backend::Cnn } else { Backend::Haar })
        .collect()
}

/// Every generated request carries a frame of this size: one geometry
/// class, so requests can share a batch.
pub const FRAME: (usize, usize) = (64, 48);

/// The open-loop request stream: `n` requests arriving per
/// [`exponential_arrivals_us`] at `rate_rps`, each with its
/// [`pattern_frame`] and its [`backend_sequence`] class, as
/// `(arrival µs, frame, class)`. With `cnn_fraction == 0.0` every
/// request is Haar-classed.
pub fn open_loop_requests(
    seed: u64,
    n: usize,
    rate_rps: f64,
    cnn_fraction: f64,
) -> impl Iterator<Item = (f64, GrayImage, Backend)> {
    let mut frames = Lcg::new(seed ^ 0xF0F0);
    exponential_arrivals_us(seed, n, rate_rps)
        .into_iter()
        .zip(backend_sequence(seed, n, cnn_fraction))
        .map(move |(arrival, backend)| {
            (arrival, pattern_frame(FRAME.0, FRAME.1, frames.next_u64()), backend)
        })
}

/// Submit [`open_loop_requests`] to `fleet`, all in the standard
/// priority class with a fixed `slo_us`. Call before `fleet.run()`.
pub fn submit_open_loop<D: Detector>(
    fleet: &mut FleetServer<D>,
    seed: u64,
    n: usize,
    rate_rps: f64,
    slo_us: f64,
    cnn_fraction: f64,
) {
    for (arrival, frame, backend) in open_loop_requests(seed, n, rate_rps, cnn_fraction) {
        fleet
            .submit_to_backend(frame, Priority::Standard, arrival, slo_us, backend)
            .expect("open-loop submission is valid");
    }
}

/// Drive `clients` virtual clients through the fleet until
/// `total_requests` have been submitted and every outcome is in: each
/// client keeps one request in flight, resubmitting `think_us` after its
/// previous completion. Each submission is classed Haar or CNN by
/// [`backend_sequence`] in submission order (independent of which client
/// resubmits). Returns the number of requests served per backend.
pub fn run_closed_loop<D: Detector>(
    fleet: &mut FleetServer<D>,
    seed: u64,
    clients: usize,
    total_requests: usize,
    think_us: f64,
    slo_us: f64,
    cnn_fraction: f64,
) -> [usize; 2] {
    assert!(clients > 0, "need at least one client");
    let mut frames = Lcg::new(seed);
    let backends = backend_sequence(seed, total_requests, cnn_fraction);
    let mut submit = |fleet: &mut FleetServer<D>, arrival: f64, backend: Backend| {
        let frame = pattern_frame(FRAME.0, FRAME.1, frames.next_u64());
        fleet
            .submit_to_backend(frame, Priority::Standard, arrival, slo_us, backend)
            .expect("closed-loop submission is valid");
    };
    let mut submitted = 0usize;
    let mut in_flight = 0usize;
    let mut served = [0usize; 2];
    let mut done = 0usize;
    while submitted < clients.min(total_requests) {
        let now = fleet.now_us();
        submit(fleet, now, backends[submitted]);
        submitted += 1;
        in_flight += 1;
    }
    while done < total_requests && in_flight > 0 {
        while fleet.step() {}
        for c in fleet.take_completed() {
            in_flight -= 1;
            done += 1;
            if matches!(c.outcome, RequestOutcome::Served { .. }) {
                served[c.backend.index()] += 1;
            }
            if submitted < total_requests {
                let arrival = fleet.now_us() + think_us;
                submit(fleet, arrival, backends[submitted]);
                submitted += 1;
                in_flight += 1;
            }
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_cnn::{CnnDetector, CnnModel};
    use fd_detector::{DetectorConfig, FaceDetector};
    use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
    use fd_serve::FleetConfig;

    fn edge_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("edge", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn server() -> FleetServer {
        let det = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        FleetServer::new(&edge_cascade(), det, 1, FleetConfig::default()).unwrap()
    }

    #[test]
    fn exponential_arrivals_are_seeded_ascending_and_rate_scaled() {
        let a = exponential_arrivals_us(7, 200, 1000.0);
        let b = exponential_arrivals_us(7, 200, 1000.0);
        assert_eq!(a, b, "same seed, same pattern");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        let c = exponential_arrivals_us(8, 200, 1000.0);
        assert_ne!(a, c, "different seed, different pattern");
        // Mean inter-arrival ~ 1000 µs at 1000 rps (loose tolerance).
        let mean = a.last().unwrap() / a.len() as f64;
        assert!((500.0..2000.0).contains(&mean), "mean {mean} µs");
    }

    #[test]
    fn open_loop_run_serves_every_request() {
        let mut s = server();
        submit_open_loop(&mut s, 11, 20, 2000.0, 1e9, 0.0);
        s.run();
        assert_eq!(s.stats().served, 20);
        assert!(s.stats().throughput_rps() > 0.0);
    }

    fn mixed_fleet() -> FleetServer<Box<dyn Detector>> {
        let det = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let haar = FaceDetector::try_new(&edge_cascade(), det.clone()).unwrap();
        let cnn = CnnDetector::try_new(&CnnModel::seeded(0), det).unwrap();
        FleetServer::from_detectors(
            vec![Box::new(haar) as Box<dyn Detector>, Box::new(cnn)],
            FleetConfig::default(),
        )
    }

    #[test]
    fn backend_sequence_is_seeded_and_fraction_bounded() {
        let a = backend_sequence(7, 400, 0.5);
        assert_eq!(a, backend_sequence(7, 400, 0.5), "same seed, same classes");
        assert_ne!(a, backend_sequence(8, 400, 0.5), "different seed, different classes");
        let cnn = a.iter().filter(|b| **b == Backend::Cnn).count();
        assert!((100..300).contains(&cnn), "roughly half CNN-classed, got {cnn}/400");
        assert!(backend_sequence(7, 64, 0.0).iter().all(|b| *b == Backend::Haar));
        assert!(backend_sequence(7, 64, 1.0).iter().all(|b| *b == Backend::Cnn));
        // The class stream is independent of the arrival/frame streams:
        // changing the fraction never perturbs the arrivals.
        assert_eq!(exponential_arrivals_us(7, 10, 1000.0), exponential_arrivals_us(7, 10, 1000.0));
    }

    #[test]
    fn mixed_open_loop_routes_each_class_to_its_lane() {
        let mut f = mixed_fleet();
        submit_open_loop(&mut f, 11, 16, 2000.0, 1e9, 0.5);
        f.run();
        let stats = f.stats();
        let want = backend_sequence(11, 16, 0.5);
        let want_cnn = want.iter().filter(|b| **b == Backend::Cnn).count() as u64;
        assert_eq!(stats.served, 16);
        assert_eq!(stats.served_per_backend[Backend::Cnn.index()], want_cnn);
        assert_eq!(stats.served_per_backend[Backend::Haar.index()], 16 - want_cnn);
        for (c, device) in f.completed().iter().zip(f.completed_device()) {
            assert_eq!(c.backend, want[c.id.0 as usize], "class survives to completion");
            assert_eq!(f.device_backend(*device), c.backend, "served by a matching lane");
        }
    }

    #[test]
    fn mixed_closed_loop_serves_the_quota_per_backend() {
        let mut f = mixed_fleet();
        let served = run_closed_loop(&mut f, 3, 4, 20, 0.0, 1e9, 0.4);
        assert_eq!(served.iter().sum::<usize>(), 20);
        let want = backend_sequence(3, 20, 0.4);
        let want_cnn = want.iter().filter(|b| **b == Backend::Cnn).count();
        assert_eq!(served[Backend::Cnn.index()], want_cnn);
        assert_eq!(f.stats().served, 20);
    }

    #[test]
    fn closed_loop_self_limits_and_serves_the_quota() {
        let mut s = server();
        let served = run_closed_loop(&mut s, 3, 4, 25, 0.0, 1e9, 0.0);
        assert_eq!(served, [25, 0]);
        assert_eq!(s.stats().served, 25);
        assert_eq!(s.stats().submitted, 25);
        assert!(s.stats().max_queue_depth <= 4, "never more than the client count");
    }
}
