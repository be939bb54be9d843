//! # facedet — boosting-based face detection on a simulated GPU
//!
//! A full reproduction of Oro, Fernández, Segura, Martorell & Hernando,
//! *Accelerating Boosting-based Face Detection on GPUs* (ICPP 2012),
//! built from scratch in Rust. See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! This crate is the facade: it re-exports the workspace's crates and the
//! most common entry points. The subsystems are:
//!
//! * [`gpu`] (`fd-gpu`) — a deterministic SIMT GPU simulator with
//!   streams, concurrent kernel execution and profiling;
//! * [`imgproc`] (`fd-imgproc`) — images, pyramids, integral images and
//!   the procedural face/background synthesis;
//! * [`haar`] (`fd-haar`) — Haar features, cascades and the compressed
//!   constant-memory encoding;
//! * [`boost`] (`fd-boost`) — GentleBoost/AdaBoost cascade training and
//!   the SMP scaling model;
//! * [`video`] (`fd-video`) — synthetic 1080p trailers and the hardware
//!   H.264 decoder model;
//! * [`detector`] (`fd-detector`) — the paper's pipeline, the public
//!   [`prelude::FaceDetector`] API, and the [`prelude::Detector`] trait
//!   every backend serves behind;
//! * [`cnn`] (`fd-cnn`) — the second backend: a 3-stage fixed-point CNN
//!   cascade on the same simulated-GPU kernels and pyramid;
//! * [`serve`] (`fd-serve`) — a deterministic request-serving frontend
//!   with dynamic cross-request batching, SLO-aware (EDF + shedding)
//!   scheduling on a virtual clock, fault-tolerant serving
//!   (batch-poisoning isolation, deadline-aware retries, brown-out
//!   admission) under injected device faults, and an N-device fleet
//!   front door (geometry-affine routing, breaker-open failover,
//!   drain/kill/rejoin, deterministic work stealing);
//! * [`eval`] (`fd-eval`) — Hungarian-matched TPR/FP accuracy evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use facedet::prelude::*;
//!
//! // A tiny hand-built cascade that accepts strong left-dark/right-bright
//! // edges (real cascades come from facedet::boost::train_cascade).
//! let feature = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
//! let mut cascade = Cascade::new("edges", 24);
//! cascade.stages.push(Stage {
//!     stumps: vec![Stump { feature, threshold: 8192, left: -1.0, right: 1.0 }],
//!     threshold: 0.5,
//! });
//!
//! // A frame with one matching pattern.
//! let frame = GrayImage::from_fn(96, 72, |x, y| {
//!     if (24..34).contains(&x) && (20..44).contains(&y) { 10.0 }
//!     else if (34..44).contains(&x) && (20..44).contains(&y) { 250.0 }
//!     else { 120.0 }
//! });
//!
//! let mut detector = FaceDetector::new(&cascade, DetectorConfig {
//!     min_neighbors: 1,
//!     ..DetectorConfig::default()
//! });
//! let result = detector.detect(&frame).expect("detect");
//! assert!(!result.detections.is_empty());
//! assert!(result.detect_ms > 0.0); // simulated GTX470 time
//! ```

pub use fd_boost as boost;
pub use fd_cnn as cnn;
pub use fd_detector as detector;
pub use fd_eval as eval;
pub use fd_gpu as gpu;
pub use fd_haar as haar;
pub use fd_imgproc as imgproc;
pub use fd_serve as serve;
pub use fd_video as video;

/// The most common imports in one place.
pub mod prelude {
    pub use fd_cnn::{CnnDetector, CnnModel};
    pub use fd_detector::{
        Backend, Detector, DetectorConfig, FaceDetector, FrameResult, GroupedDetection,
        RecoveryPolicy,
    };
    pub use fd_gpu::{DeviceSpec, ExecMode};
    pub use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
    pub use fd_imgproc::{GrayImage, IntegralImage, Rect, RgbImage};
    pub use fd_serve::{
        BatchPolicy, DetectionServer, FleetConfig, FleetServer, Priority, ServeConfig, ServeStats,
        ServerHealth,
    };
}
