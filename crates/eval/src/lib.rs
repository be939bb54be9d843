//! # fd-eval — detection-accuracy evaluation (paper §VI-B)
//!
//! The paper's accuracy methodology, reimplemented end to end:
//!
//! * grouped detections are assigned to ground-truth annotations with the
//!   **Hungarian algorithm** ([`hungarian`]), using the eye-distance
//!   metric `S_eyes` (Eq. 6) as the cost function;
//! * matched assignments count as true positives, unmatched detections as
//!   false positives; sweeping a threshold over the detection score
//!   produces the TPR/FP curves of Fig. 9 ([`roc`]);
//! * the test corpus ([`scface`]) is a synthetic stand-in for the SCFace
//!   visible-light mug shots plus 3 000 background images: frontal
//!   procedural faces, one per image, with exact eye annotations.

pub mod hungarian;
pub mod roc;
pub mod scface;

pub use hungarian::assign_min_cost;
pub use roc::{evaluate_backend, match_frame, roc_curve, BackendEval, FrameEval, RocPoint};
pub use scface::{MugshotDataset, MugshotImage};
