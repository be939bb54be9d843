//! fd-serve: deterministic request-serving frontend for the detector.
//!
//! This crate serves independent one-shot detection *requests*, the way
//! an inference service would — a video stream is a client that submits
//! frame `k` at `k` periods with one period of SLO:
//!
//! * [`RequestQueue`] — bounded admission per [`Priority`] class, so
//!   bulk traffic cannot crowd out interactive requests;
//! * [`DynamicBatcher`] — coalesces pending same-geometry requests into
//!   one shared device submission (each pyramid-level kernel launches
//!   once for the whole batch via `fd_gpu::Gpu::launch_batched`),
//!   trading at most 2 ms of queueing delay for large per-launch
//!   overhead savings;
//! * SLO scheduling — every request carries a deadline; dispatch is
//!   earliest-deadline-first, and requests whose deadline passes while
//!   queued are deterministically shed instead of wasting device time;
//! * [`ServeStats`] — latency quantiles (p50/p95/p99 in virtual µs),
//!   queue-depth high-water marks, shed/reject, batch-occupancy and
//!   fault-recovery accounting;
//! * fault tolerance — under an injected `fd_gpu::FaultPlan`, faulted
//!   batches are retried with bounded deterministic backoff, poisoned
//!   requests are isolated by device attribution or bisection so their
//!   batchmates still complete, deadline pressure degrades re-attempts
//!   to shed-scale plans (all three the rules of
//!   `fd_detector::RecoveryPolicy`, which the video stream uses too),
//!   and sustained faults drive brown-out admission and a fail-fast
//!   breaker with half-open probes ([`HealthMachine`]).
//!
//! * fleet serving — [`FleetServer`] shards requests across N simulated
//!   devices behind one front door: geometry-affine, least-loaded
//!   routing ([`Router`]), breaker-open failover that migrates queued
//!   work to healthy replicas with deadlines intact, drain/kill/rejoin
//!   device lifecycle, and deterministic work stealing between
//!   per-device queues. A fleet of one reduces byte-for-byte to a
//!   single [`DetectionServer`].
//!
//! * multi-backend serving — both servers are generic over
//!   `fd_detector::Detector`, so the same loop drives the Haar cascade
//!   (default) or the compact CNN cascade of `fd-cnn`. Each request
//!   carries a [`Backend`] class; a mixed fleet
//!   (`FleetServer<Box<dyn Detector>>`) routes cheap-Haar and
//!   high-accuracy-CNN traffic to matching lanes via
//!   [`FleetServer::submit_to_backend`], and batches stay same-geometry
//!   *and* same-backend by construction. [`ServeStats`] breaks latency
//!   and goodput out per backend.
//!
//! Everything runs on a virtual clock against the simulated GPU: a
//! serving run is a pure function of its submissions and configuration,
//! bit-identical across runs and at any `DetectorConfig::host_threads`.
//!
//! ```
//! use fd_serve::{DetectionServer, Priority, ServeConfig};
//! use fd_detector::DetectorConfig;
//! # use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
//! # use fd_imgproc::GrayImage;
//! # let mut cascade = Cascade::new("demo", 24);
//! # cascade.stages.push(Stage {
//! #     stumps: vec![Stump {
//! #         feature: HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8),
//! #         threshold: 8192, left: -1.0, right: 1.0 }],
//! #     threshold: 0.5 });
//!
//! let mut server = DetectionServer::new(
//!     &cascade, DetectorConfig::default(), ServeConfig::default())?;
//! let frame = GrayImage::from_fn(64, 48, |x, y| ((x * 3 + y) % 251) as f32);
//! server.submit(frame, Priority::Interactive, 0.0, 50_000.0)?;
//! server.run();
//! assert_eq!(server.stats().served, 1);
//! # Ok::<(), fd_serve::ServeError>(())
//! ```

pub mod batcher;
pub mod fleet;
pub mod health;
pub mod queue;
pub mod request;
pub mod router;
pub mod server;
pub mod stats;

pub use batcher::{BatchDecision, BatchPolicy, DynamicBatcher};
pub use fd_detector::{Backend, Detector};
pub use fleet::{DeviceState, FleetConfig, FleetServer};
pub use health::{FaultReaction, HealthMachine, ServerHealth};
pub use queue::RequestQueue;
pub use request::{DetectionRequest, Priority, RequestId};
pub use router::{LaneView, Router, RouterStats};
pub use server::{CompletedRequest, DetectionServer, RequestOutcome, ServeConfig, ServeError};
pub use stats::{LatencyHistogram, ServeStats};
