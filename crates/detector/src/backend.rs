//! Backend abstraction over detection engines.
//!
//! The serving layer (`fd-serve`) originally hard-wired
//! [`FaceDetector`](crate::FaceDetector) — the paper's Haar cascade. A
//! second engine (the compact CNN cascade of `fd-cnn`) offers a different
//! accuracy/latency point, and the server routes *per request* between
//! them. [`Detector`] captures exactly the surface the server consumes:
//! planning, batched execution over a plan prefix (deadline shedding)
//! and replica construction for fleets.
//!
//! The trait is object-safe so a mixed fleet can hold
//! `Box<dyn Detector>` lanes of different engines behind one device
//! array; [`Backend`] is the request-class tag the router matches lanes
//! against (batching stays same-geometry-*and*-same-backend).

use fd_imgproc::GrayImage;

use crate::detector::{FrameResult, PyramidDetector};
use crate::error::DetectorError;
use crate::pipeline::StageList;

/// Which detection engine serves a request. A third axis of the request
/// class alongside [`Priority`](../fd_serve) and geometry: backends
/// never share a batch, because a batch is one device submission of one
/// engine's kernel chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// The paper's Haar cascade pipeline — the cheap, throughput tier.
    Haar,
    /// The compact fixed-point CNN cascade — the high-accuracy tier.
    Cnn,
}

impl Backend {
    /// All backends, in `index` order.
    pub const ALL: [Backend; 2] = [Backend::Haar, Backend::Cnn];

    /// Dense index for per-backend arrays.
    pub fn index(self) -> usize {
        match self {
            Backend::Haar => 0,
            Backend::Cnn => 1,
        }
    }

    /// Stable lowercase name for reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Haar => "haar",
            Backend::Cnn => "cnn",
        }
    }
}

/// A detection engine the serving layer can drive. Implemented by
/// [`PyramidDetector`] — the Haar [`FaceDetector`](crate::FaceDetector)
/// and the CNN cascade (`fd_cnn::CnnDetector`) alike;
/// `DetectionServer`/`FleetServer` are generic over it.
///
/// The contract mirrors the detector's inherent API bit for bit, so
/// serving through the trait is byte-identical to serving the concrete
/// type (asserted by `trait_detect_matches_inherent_detect_exactly`).
pub trait Detector {
    /// The request class this engine serves.
    fn backend(&self) -> Backend;

    /// Full pyramid plan for a frame (largest level first). A deadline
    /// controller truncates this and calls
    /// [`Self::detect_batch_with_plan`] on the prefix to shed the
    /// smallest scales.
    fn pyramid_plan(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError>;

    /// Detect over a batch of same-geometry frames as one device
    /// submission, evaluating only the pyramid levels in `plan`.
    fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError>;

    /// Build `n` replicas of this engine over `n` independent simulated
    /// devices, forking any fault plan per replica (replica 0 verbatim,
    /// so a 1-replica fleet is identical to the original detector).
    fn try_replicas(&self, n: usize) -> Result<Vec<Box<dyn Detector>>, DetectorError>;

    /// The engine's device profiler (every frame since the last reset):
    /// what a boxed lane of a fleet did, launch by launch and host span
    /// by host span.
    fn profiler(&self) -> &fd_gpu::Profiler;

    /// Reset the profiler statistics.
    fn reset_profiler(&mut self);

    /// Detect faces in one luma frame (plan + single-frame batch).
    fn detect(&mut self, frame: &GrayImage) -> Result<FrameResult, DetectorError> {
        let plan = self.pyramid_plan(frame)?;
        self.detect_with_plan(frame, &plan)
    }

    /// [`Self::detect`] over a prefix of the pyramid plan.
    fn detect_with_plan(
        &mut self,
        frame: &GrayImage,
        plan: &[(usize, usize)],
    ) -> Result<FrameResult, DetectorError> {
        let mut results = self.detect_batch_with_plan(&[frame], plan)?;
        results.pop().ok_or(DetectorError::InvalidConfig {
            reason: "batch execution returned no result for its single frame",
        })
    }

    /// Detect over a batch with each frame's full pyramid (planned from
    /// the first frame; the batch shares one geometry).
    fn detect_batch(&mut self, frames: &[&GrayImage]) -> Result<Vec<FrameResult>, DetectorError> {
        let Some(first) = frames.first() else {
            return Err(DetectorError::InvalidConfig { reason: "empty frame batch" });
        };
        let plan = self.pyramid_plan(first)?;
        self.detect_batch_with_plan(frames, &plan)
    }
}

/// Every backend's detector is the one generic front, so the trait is
/// implemented once: each method forwards to the inherent method of the
/// same name, and the provided `detect`/`detect_with_plan`/`detect_batch`
/// bodies recompose exactly the inherent methods' plan-then-batch
/// structure (a batch of one is bit-identical to a single detect).
impl<S: StageList + 'static> Detector for PyramidDetector<S> {
    fn backend(&self) -> Backend {
        S::BACKEND
    }

    fn pyramid_plan(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        PyramidDetector::pyramid_plan(self, frame)
    }

    fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        PyramidDetector::detect_batch_with_plan(self, frames, plan)
    }

    fn try_replicas(&self, n: usize) -> Result<Vec<Box<dyn Detector>>, DetectorError> {
        Ok(Self::try_new_replicas(self.model(), self.config().clone(), n)?
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn Detector>)
            .collect())
    }

    fn profiler(&self) -> &fd_gpu::Profiler {
        PyramidDetector::profiler(self)
    }

    fn reset_profiler(&mut self) {
        PyramidDetector::reset_profiler(self)
    }
}

/// Boxed engines forward everything, so a heterogeneous fleet can hold
/// `Box<dyn Detector>` lanes while `FleetServer` stays generic over one
/// `D: Detector`.
impl Detector for Box<dyn Detector> {
    fn backend(&self) -> Backend {
        (**self).backend()
    }

    fn pyramid_plan(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        (**self).pyramid_plan(frame)
    }

    fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        (**self).detect_batch_with_plan(frames, plan)
    }

    fn try_replicas(&self, n: usize) -> Result<Vec<Box<dyn Detector>>, DetectorError> {
        (**self).try_replicas(n)
    }

    fn profiler(&self) -> &fd_gpu::Profiler {
        (**self).profiler()
    }

    fn reset_profiler(&mut self) {
        (**self).reset_profiler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};

    use crate::detector::{DetectorConfig, FaceDetector};

    fn edge_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("edge", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn frame() -> GrayImage {
        GrayImage::from_fn(64, 48, |x, y| {
            if (20..30).contains(&x) && (12..36).contains(&y) {
                10.0
            } else if (30..40).contains(&x) && (12..36).contains(&y) {
                245.0
            } else {
                120.0
            }
        })
    }

    #[test]
    fn backend_index_and_name_are_dense_and_stable() {
        assert_eq!(Backend::ALL.len(), 2);
        for (i, b) in Backend::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        assert_eq!(Backend::Haar.name(), "haar");
        assert_eq!(Backend::Cnn.name(), "cnn");
    }

    #[test]
    fn trait_detect_matches_inherent_detect_exactly() {
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut inherent = FaceDetector::try_new(&edge_cascade(), cfg.clone()).unwrap();
        let mut via_trait: Box<dyn Detector> =
            Box::new(FaceDetector::try_new(&edge_cascade(), cfg).unwrap());
        let f = frame();
        let a = inherent.detect(&f).unwrap();
        let b = via_trait.detect(&f).unwrap();
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.timeline.span_us(), b.timeline.span_us());
    }

    #[test]
    fn trait_replicas_match_inherent_replicas() {
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let det = FaceDetector::try_new(&edge_cascade(), cfg.clone()).unwrap();
        let mut boxed = Detector::try_replicas(&det, 2).unwrap();
        let mut plain = FaceDetector::try_new_replicas(&edge_cascade(), cfg, 2).unwrap();
        let f = frame();
        for (b, p) in boxed.iter_mut().zip(plain.iter_mut()) {
            assert_eq!(b.backend(), Backend::Haar);
            let x = b.detect(&f).unwrap();
            let y = p.detect(&f).unwrap();
            assert_eq!(x.detections, y.detections);
        }
        assert!(Detector::try_replicas(&det, 0).is_err(), "zero replicas must be rejected");
    }

    #[test]
    fn a_boxed_lane_reaches_its_profiler() {
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut lane: Box<dyn Detector> =
            Box::new(FaceDetector::try_new(&edge_cascade(), cfg).unwrap());
        assert!(lane.profiler().host_spans().is_empty());
        lane.detect(&frame()).unwrap();
        assert!(lane.profiler().host_spans().iter().any(|s| s.kernel_name == "cascade_eval"));
        lane.reset_profiler();
        assert!(lane.profiler().host_spans().is_empty() && lane.profiler().traces().is_empty());
    }
}
