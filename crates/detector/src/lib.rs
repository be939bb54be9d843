//! # fd-detector — the paper's parallel face-detection pipeline
//!
//! The primary contribution of Oro et al. (ICPP 2012), reimplemented on
//! the simulated GPU of `fd-gpu`:
//!
//! ```text
//! input -> H.264 decode (fd-video, overlapped)
//!       -> scaling (texture bilinear, one kernel per pyramid level)
//!       -> filtering (anti-alias)
//!       -> integral image (row scan -> transpose -> row scan -> transpose)
//!       -> cascade evaluation (shared-memory tiling, constant-memory
//!          features, warp-level early exit)
//!       -> display (deepest-stage thresholding, rectangle grouping)
//! ```
//!
//! Every pyramid level runs in its own CUDA stream; under
//! [`fd_gpu::ExecMode::Concurrent`] the small levels' kernels co-schedule
//! across SMs (the paper's headline optimization), while
//! [`fd_gpu::ExecMode::Serial`] reproduces the baseline.
//!
//! * [`kernels`] — the six device kernels, each metering the SIMT work it
//!   performs;
//! * [`pipeline`] — the per-frame skeleton every backend shares: pyramid
//!   plan, buffer pool, per-level streams, launches and readback, around
//!   a backend's [`StageList`];
//! * [`haar`] — the paper's stage list ([`HaarStages`]), run by
//!   [`FramePipeline`];
//! * [`group`] — detection grouping with the paper's `S_eyes` metric
//!   (Eq. 6) and the iterative averaging procedure of §VI-B;
//! * [`detector`] — the public detector API, [`PyramidDetector`], written
//!   once for every stage list; [`FaceDetector`] is the Haar one;
//! * [`backend`] — the [`Detector`] trait and [`Backend`] request class
//!   the serving layer dispatches on, abstracting this engine alongside
//!   the compact CNN cascade of `fd-cnn`;
//! * [`recovery`] — the one fault-recovery policy: retry, isolate or
//!   bisect a failed attempt, and shed scales from a late re-attempt,
//!   for [`VideoDetector`] and the serving layer alike;
//! * [`cpu_ref`] — a pure-CPU reference detector the GPU pipeline is
//!   verified against, window for window.
//!
//! The alternatives the paper's §II compares against (thread
//! rearrangement, a multi-GPU scale split) are not part of this crate:
//! they live in `fd_bench::experiments`, beside the ablations that run
//! them.

pub mod backend;
pub mod cpu_ref;
pub mod detector;
pub mod error;
pub mod group;
pub mod haar;
pub mod kernels;
pub mod pipeline;
pub mod recovery;
pub mod stream_detector;

pub use backend::{Backend, Detector};
pub use detector::{
    DetectorConfig, FaceDetector, FrameResult, PyramidDetector, RejectionHistogram,
};
pub use error::DetectorError;
pub use group::{group_detections, s_eyes, Detection, GroupedDetection};
pub use haar::{FramePipeline, HaarStages, ScaleOutput, ScaleView};
pub use pipeline::{stage_constants, LevelGeom, LevelLaunch, Pipeline, StageList};
pub use recovery::{RecoveryPolicy, RecoveryStep};
pub use stream_detector::{
    DegradeReason, FrameOutcome, FrameReport, RecoverySnapshot, SkipReason, StreamCheckpoint,
    StreamStats, VideoDetector,
};
