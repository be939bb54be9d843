//! # fd-video — synthetic 1080p trailers and a simulated hardware decoder
//!
//! Substitute for the paper's benchmark corpus: ten H.264 1080p movie
//! trailers from the iTunes Movie Trailers site, decoded by the GPU's
//! on-die NVCUVID engine. Neither the videos nor the decoder hardware are
//! redistributable/available, so this crate generates what the experiments
//! actually consume:
//!
//! * [`trailer`] — deterministic, scene-structured 1080p luma sequences:
//!   scene cuts every few seconds, each scene with its own procedural
//!   background and a varying number of faces that move and change size
//!   smoothly. Per-frame face counts vary across scenes, which is exactly
//!   what makes the paper's per-frame detection latency fluctuate (their
//!   Fig. 5). Ground-truth face boxes and eye positions are available for
//!   every frame.
//! * [`decoder`] — a hardware-decoder model: returns the luma plane of the
//!   NV12 output (the only plane the pipeline consumes, §V) together with
//!   a deterministic 8–10 ms decode latency (the range the paper reports),
//!   which the detection pipeline overlaps with GPU compute.
//! * [`catalog`] — the ten trailer titles of Table II mapped to generator
//!   seeds and face statistics.

pub mod catalog;
pub mod decoder;
pub mod trailer;

pub use catalog::{movie_trailers, TrailerInfo};
pub use decoder::{pipelined_fps, DecodeFault, DecodeFaultPlan, DecodedFrame, HwDecoder};
pub use trailer::{FaceInstance, Trailer, TrailerSpec};
