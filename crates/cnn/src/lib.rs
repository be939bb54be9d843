//! # fd-cnn — compact CNN cascade detector (the second backend)
//!
//! A 3-stage integer CNN cascade that slides 24-px windows over the
//! same scale pyramid as the Haar backend, entirely on [`fd_gpu`]
//! kernels: fixed-point conv+ReLU, 2x2 max-pool, and staged
//! window-scoring with early rejection between stages. Stage 1 is a
//! cheap per-channel energy gate over the first pooled feature map;
//! stages 2 and 3 are dense integer templates over the second. All
//! arithmetic is integer (i64 accumulate, saturate to i32), so results
//! are bit-identical at any host thread count and on either host
//! execution engine.
//!
//! [`CnnStages`] is the cascade's stage list for `fd_detector`'s pipeline
//! skeleton; [`CnnDetector`], that skeleton's detector over it,
//! implements [`fd_detector::Detector`], making it interchangeable with
//! the Haar [`fd_detector::FaceDetector`] behind the serving layer's
//! request classes.

pub mod detector;
pub mod kernels;
pub mod model;

pub use detector::{CnnDetector, CnnStages};
pub use model::{CnnModel, CnnModelError, SCORE_SCALE, STAGES, WINDOW, WINDOW_STRIDE};
