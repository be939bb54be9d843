//! Pipelined video detection: hardware decode overlapped with GPU
//! compute (the paper's deployment shape: "70 fps ... while performing
//! both tasks (i.e. video decoding and face detection) in the GPU").
//!
//! [`VideoDetector`] consumes a stream of decoded frames and tracks the
//! two-stage pipeline's steady-state timing: decode of frame `i + 1`
//! overlaps detection of frame `i` (the hardware decoder is
//! fixed-function logic, independent of the SMs), so the per-frame period
//! is `max(decode, detect)` after the pipeline fills.
//!
//! # Recovery and graceful degradation
//!
//! A production stream must survive the faults the simulator can inject
//! (fd-gpu's `FaultPlan`, fd-video's `DecodeFaultPlan`) without aborting.
//! It asks the same [`RecoveryPolicy`] rules as `fd-serve`'s server, with
//! a frame as a group of one:
//!
//! * **Bounded retry** — a *transient* launch failure is retried up to
//!   [`RecoveryPolicy::MAX_RETRIES`] times with deterministic exponential
//!   backoff; every kernel fully overwrites its outputs, so a retried
//!   frame is unaffected by the aborted attempt.
//! * **Deadline shedding** — a re-attempt that would end at or past the
//!   playback deadline on the frame's own clock (backoff charged so far
//!   plus the last successful frame's span) drops up to
//!   [`RecoveryPolicy::MAX_SHED_LEVELS`] of the smallest pyramid scales
//!   (the plan's tail — exactly the levels whose concurrent execution the
//!   paper shows are cheap, so shedding them trades recall for latency
//!   predictably). A first attempt never sheds, so a fault-free run is
//!   bit-identical to a detector without the recovery layer.
//! * **Skip-and-report** — unrecoverable frames (launch timeouts, retry
//!   exhaustion, dropped decodes) are skipped; the stream keeps going and
//!   the frame is accounted as [`FrameOutcome::Skipped`] in
//!   [`StreamStats`].
//!
//! # Checkpoint and resume
//!
//! [`VideoDetector::checkpoint`] captures the stream's mutable state as a
//! [`StreamCheckpoint`] — a line-oriented text format with bit-exact
//! `f64` encoding — and [`VideoDetector::resume`] rebuilds the detector
//! from it and the construction inputs (cascade, config and fps).
//! Killing a stream at an arbitrary frame and resuming yields
//! [`StreamStats`] bit-identical to the uninterrupted run. Many streams sharing devices are `fd-serve`'s
//! `FleetServer`'s job.

use fd_gpu::FaultCursor;
use fd_haar::io::{KeyLine, LineReader, ParseError};
use fd_haar::Cascade;
use fd_imgproc::GrayImage;
use fd_video::{DecodeFault, DecodedFrame};

use crate::detector::{DetectorConfig, FaceDetector, FrameResult};
use crate::error::DetectorError;
use crate::recovery::{RecoveryPolicy, RecoveryStep};

/// How a frame left the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Detection ran at full quality on a clean frame.
    Ok,
    /// Detection produced results, but under degraded conditions
    /// (corrupted input, retried launches, or shed pyramid scales).
    Degraded,
    /// No detection results for this frame; the stream continued.
    Skipped,
}

/// Why a frame was degraded (a frame can accumulate several reasons).
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeReason {
    /// The decoder flagged the input luma as corrupted.
    CorruptInput,
    /// One or more launch attempts failed transiently and were retried.
    RetriedLaunches { retries: u32 },
    /// A re-attempt under deadline pressure ran a truncated pyramid plan.
    ShedScales { shed_levels: usize },
}

/// Why a frame was skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum SkipReason {
    /// The decoder dropped the frame (no picture to detect on).
    Decode(DecodeFault),
    /// Detection failed unrecoverably (timeout, retry exhaustion, ...).
    Detect(DetectorError),
}

/// Per-frame account of what the recovery layer did.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// Stream frame index.
    pub frame: usize,
    pub outcome: FrameOutcome,
    pub degraded: Vec<DegradeReason>,
    pub skipped: Option<SkipReason>,
    /// Transient-launch retries spent on this frame.
    pub retries: u32,
    /// Deterministic backoff charged to this frame, milliseconds.
    pub backoff_ms: f64,
    /// Pyramid levels shed from this frame's last attempt.
    pub shed_levels: usize,
    /// Detection results (`None` when skipped).
    pub result: Option<FrameResult>,
}

/// Accumulated streaming statistics.
///
/// `PartialEq` compares the `f64` accumulators exactly (not within a
/// tolerance): the determinism contract is *bit-identity*, and the
/// checkpoint/resume tests rely on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    pub frames: usize,
    pub total_decode_ms: f64,
    pub total_detect_ms: f64,
    /// Sum of per-frame pipeline periods `max(decode, detect)`.
    pub total_period_ms: f64,
    pub max_detect_ms: f64,
    pub total_detections: usize,
    /// Frames that completed at full quality.
    pub ok_frames: usize,
    /// Frames that completed under degraded conditions.
    pub degraded_frames: usize,
    /// Frames skipped (stream continued without results).
    pub skipped_frames: usize,
    /// Transient-launch retries across the stream.
    pub retries: usize,
    /// Total deterministic backoff charged, milliseconds.
    pub total_backoff_ms: f64,
    /// Frames that ran with at least one pyramid level shed.
    pub shed_frames: usize,
}

impl StreamStats {
    /// Steady-state throughput with decode overlapped.
    pub fn pipelined_fps(&self) -> f64 {
        if self.total_period_ms <= 0.0 {
            return 0.0;
        }
        1000.0 * self.frames as f64 / self.total_period_ms
    }

    pub fn mean_detect_ms(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_detect_ms / self.frames as f64
        }
    }

    /// `true` when every processed frame has exactly one outcome.
    pub fn all_frames_accounted(&self) -> bool {
        self.ok_frames + self.degraded_frames + self.skipped_frames == self.frames
    }
}

/// A face detector with pipelined-stream accounting and recovery.
pub struct VideoDetector {
    detector: FaceDetector,
    /// Everything the stream changes as it runs; what a checkpoint holds.
    snapshot: RecoverySnapshot,
    deadline_ms: f64,
}

impl VideoDetector {
    /// `playback_fps` sets the display deadline (24 fps -> 41.7 ms).
    /// Rejects non-finite or non-positive rates.
    pub fn new(
        cascade: &Cascade,
        config: DetectorConfig,
        playback_fps: f64,
    ) -> Result<Self, DetectorError> {
        if !(playback_fps.is_finite() && playback_fps > 0.0) {
            return Err(DetectorError::BadPlaybackFps { fps: playback_fps });
        }
        Ok(Self {
            detector: FaceDetector::try_new(cascade, config)?,
            snapshot: RecoverySnapshot::default(),
            deadline_ms: 1000.0 / playback_fps,
        })
    }

    /// Process one [`DecodedFrame`] from the hardware decoder, honouring
    /// its fault flag. Never panics and never aborts the stream: the
    /// report says what happened.
    pub fn process_decoded(&mut self, frame: &DecodedFrame) -> FrameReport {
        self.run_one(frame.index, &frame.luma, frame.decode_ms, frame.fault)
    }

    /// Drain a whole decoded stream (e.g. an `fd_video::HwDecoder`),
    /// returning one report per frame.
    pub fn run_stream<I>(&mut self, frames: I) -> Vec<FrameReport>
    where
        I: IntoIterator<Item = DecodedFrame>,
    {
        frames.into_iter().map(|f| self.process_decoded(&f)).collect()
    }

    fn run_one(
        &mut self,
        frame_idx: usize,
        luma: &GrayImage,
        decode_ms: f64,
        decode_fault: Option<DecodeFault>,
    ) -> FrameReport {
        let mut report = FrameReport {
            frame: frame_idx,
            outcome: FrameOutcome::Ok,
            degraded: Vec::new(),
            skipped: None,
            retries: 0,
            backoff_ms: 0.0,
            shed_levels: 0,
            result: None,
        };

        // A dropped frame never reaches the device.
        if decode_fault == Some(DecodeFault::Dropped) {
            report.outcome = FrameOutcome::Skipped;
            report.skipped = Some(SkipReason::Decode(DecodeFault::Dropped));
            self.account(&report, decode_ms, 0.0);
            return report;
        }
        if decode_fault == Some(DecodeFault::Corrupted) {
            report.degraded.push(DegradeReason::CorruptInput);
        }

        let plan = match self.detector.pyramid_plan(luma) {
            Ok(p) => p,
            Err(e) => {
                report.outcome = FrameOutcome::Skipped;
                report.skipped = Some(SkipReason::Detect(e.at_frame(frame_idx)));
                self.account(&report, decode_ms, 0.0);
                return report;
            }
        };

        // Bounded retry with deterministic exponential backoff; a
        // re-attempt that would miss the deadline sheds the plan's tail.
        let policy = RecoveryPolicy::default();
        let result = loop {
            let attempt = &plan[..plan.len() - report.shed_levels];
            match self.detector.detect_with_plan(luma, attempt) {
                Ok(r) => break Ok(r),
                Err(e) => match policy.next_step(&e, report.retries, 1) {
                    // Charged in ms from the schedule itself: the step's µs
                    // figure divided back by 1000 need not round-trip.
                    RecoveryStep::RetrySame { .. } => {
                        report.backoff_ms += policy.backoff_ms(report.retries);
                        report.retries += 1;
                        report.shed_levels = policy.shed_levels(
                            report.backoff_ms,
                            self.snapshot.last_span_ms,
                            self.deadline_ms,
                            plan.len(),
                        );
                    }
                    _ => break Err(e),
                },
            }
        };

        match result {
            Ok(r) => {
                if report.retries > 0 {
                    report
                        .degraded
                        .push(DegradeReason::RetriedLaunches { retries: report.retries });
                }
                if report.shed_levels > 0 {
                    report
                        .degraded
                        .push(DegradeReason::ShedScales { shed_levels: report.shed_levels });
                }
                report.outcome = if report.degraded.is_empty() {
                    FrameOutcome::Ok
                } else {
                    FrameOutcome::Degraded
                };
                let detect_ms = r.detect_ms;
                self.snapshot.last_span_ms = detect_ms;
                report.result = Some(r);
                self.account(&report, decode_ms, detect_ms);
            }
            Err(e) => {
                report.outcome = FrameOutcome::Skipped;
                report.skipped = Some(SkipReason::Detect(e.at_frame(frame_idx)));
                self.account(&report, decode_ms, 0.0);
            }
        }
        report
    }

    /// Fold one frame into the stats.
    fn account(&mut self, report: &FrameReport, decode_ms: f64, detect_ms: f64) {
        // Backoff is wall-clock the frame spent waiting on the device.
        let effective_detect = detect_ms + report.backoff_ms;
        let stats = &mut self.snapshot.stats;
        stats.frames += 1;
        stats.total_decode_ms += decode_ms;
        stats.total_detect_ms += effective_detect;
        stats.total_period_ms += decode_ms.max(effective_detect);
        stats.max_detect_ms = stats.max_detect_ms.max(effective_detect);
        stats.retries += report.retries as usize;
        stats.total_backoff_ms += report.backoff_ms;
        if report.shed_levels > 0 && report.result.is_some() {
            stats.shed_frames += 1;
        }
        if let Some(r) = &report.result {
            stats.total_detections += r.detections.len();
        }
        match report.outcome {
            FrameOutcome::Ok => stats.ok_frames += 1,
            FrameOutcome::Degraded => stats.degraded_frames += 1,
            FrameOutcome::Skipped => stats.skipped_frames += 1,
        }

        let missed = effective_detect > self.deadline_ms;
        if missed && report.result.is_some() {
            self.snapshot.missed_deadlines += 1;
        }
    }

    pub fn stats(&self) -> &StreamStats {
        &self.snapshot.stats
    }

    /// Frames whose detection missed the playback deadline.
    pub fn missed_deadlines(&self) -> usize {
        self.snapshot.missed_deadlines
    }

    /// The display deadline in milliseconds (the paper's 40 ms line for
    /// 24 fps playback, rounded by their figure).
    pub fn deadline_ms(&self) -> f64 {
        self.deadline_ms
    }

    pub fn detector(&self) -> &FaceDetector {
        &self.detector
    }

    /// Capture the stream's resumable state: the mutable streaming state
    /// and the device's position in its deterministic fault-draw
    /// sequence.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            fault_cursor: self.detector.fault_cursor(),
            snapshot: self.snapshot.clone(),
        }
    }

    /// Rebuild a stream from a checkpoint. The caller supplies the same
    /// construction inputs (cascade, config and fps) used originally; the
    /// checkpoint restores the streaming state and the fault cursor, so
    /// the resumed detector continues the fault sequence and the stream
    /// stats bit-identically.
    /// Device `FaultStats` restart from zero — only the *draw sequence*
    /// position is part of the determinism contract.
    pub fn resume(
        checkpoint: &StreamCheckpoint,
        cascade: &Cascade,
        config: DetectorConfig,
        playback_fps: f64,
    ) -> Result<Self, DetectorError> {
        let mut vd = Self::new(cascade, config, playback_fps)?;
        vd.snapshot = checkpoint.snapshot.clone();
        vd.detector.seek_fault_cursor(checkpoint.fault_cursor);
        Ok(vd)
    }
}

/// The mutable streaming state of a [`VideoDetector`]. Everything else
/// about a stream is either a construction input or deterministic device
/// state reachable through [`FaultCursor`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoverySnapshot {
    pub stats: StreamStats,
    /// Frames that missed the playback deadline so far.
    pub missed_deadlines: usize,
    /// Device span of the last frame that produced results, ms.
    pub last_span_ms: f64,
}

/// Everything mutable about a stream, sufficient — together with the
/// construction inputs (cascade, [`DetectorConfig`], playback fps) — to
/// resume it bit-identically ([`VideoDetector::resume`]).
///
/// `snapshot.stats.frames` is the number of frames the stream has
/// *accounted* (every frame fed to it yields exactly one report); a
/// caller feeding a monotone stream seeks its decoder there on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Position in the device's deterministic fault-draw sequence.
    pub fault_cursor: FaultCursor,
    pub snapshot: RecoverySnapshot,
}

/// First line of the text format.
const CHECKPOINT_HEADER: &str = "stream-checkpoint";

/// Bit-exact `f64` encoding for the checkpoint format.
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Only the spelling [`f64_hex`] writes is accepted, so a parsed text is
/// the text its checkpoint serialises to.
fn parse_f64_hex(line: &KeyLine, tok: &str) -> Result<f64, ParseError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .ok()
        .filter(|v| f64_hex(*v) == tok)
        .ok_or_else(|| line.error(format!("bad f64 bits `{tok}`")))
}

/// Canonical decimal only (no sign, no leading zeros), as for the floats.
fn parse_num<T>(line: &KeyLine, tok: &str, what: &str) -> Result<T, ParseError>
where
    T: std::str::FromStr + ToString,
{
    tok.parse()
        .ok()
        .filter(|v: &T| v.to_string() == tok)
        .ok_or_else(|| line.error(format!("bad {what} `{tok}`")))
}

impl StreamCheckpoint {
    /// Render the checkpoint as its line-oriented text format. All `f64`
    /// fields are written as hex bit patterns, so a round-trip is
    /// bit-exact.
    pub fn to_text(&self) -> String {
        let mut out = format!("{CHECKPOINT_HEADER} v2\n");
        out.push_str(&format!(
            "fault_cursor {} {}\n",
            self.fault_cursor.launch_attempts, self.fault_cursor.copy_draws
        ));
        let s = &self.snapshot.stats;
        out.push_str(&format!(
            "stats {} {} {} {} {} {} {} {} {} {} {} {}\n",
            s.frames,
            f64_hex(s.total_decode_ms),
            f64_hex(s.total_detect_ms),
            f64_hex(s.total_period_ms),
            f64_hex(s.max_detect_ms),
            s.total_detections,
            s.ok_frames,
            s.degraded_frames,
            s.skipped_frames,
            s.retries,
            f64_hex(s.total_backoff_ms),
            s.shed_frames,
        ));
        out.push_str(&format!("missed_deadlines {}\n", self.snapshot.missed_deadlines));
        out.push_str(&format!("last_span {}\n", f64_hex(self.snapshot.last_span_ms)));
        out
    }

    /// Parse the text format back into a checkpoint. Blank lines and `#`
    /// comments are skipped; anything else that [`Self::to_text`] would
    /// not have written is rejected with the line it stands on.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = LineReader::new(text);
        let l = lines.expect(CHECKPOINT_HEADER)?;
        let [version] = l.values()?;
        if version != "v2" {
            return Err(l.error(format!("unsupported checkpoint version `{version}`")));
        }
        let l = lines.expect("fault_cursor")?;
        let [launch, copy] = l.values()?;
        let fault_cursor = FaultCursor {
            launch_attempts: parse_num(&l, launch, "launch cursor")?,
            copy_draws: parse_num(&l, copy, "copy cursor")?,
        };
        let l = lines.expect("stats")?;
        let v = l.values::<12>()?;
        let stats = StreamStats {
            frames: parse_num(&l, v[0], "frames")?,
            total_decode_ms: parse_f64_hex(&l, v[1])?,
            total_detect_ms: parse_f64_hex(&l, v[2])?,
            total_period_ms: parse_f64_hex(&l, v[3])?,
            max_detect_ms: parse_f64_hex(&l, v[4])?,
            total_detections: parse_num(&l, v[5], "detections")?,
            ok_frames: parse_num(&l, v[6], "ok frames")?,
            degraded_frames: parse_num(&l, v[7], "degraded frames")?,
            skipped_frames: parse_num(&l, v[8], "skipped frames")?,
            retries: parse_num(&l, v[9], "retries")?,
            total_backoff_ms: parse_f64_hex(&l, v[10])?,
            shed_frames: parse_num(&l, v[11], "shed frames")?,
        };
        let l = lines.expect("missed_deadlines")?;
        let missed_deadlines = parse_num(&l, l.values::<1>()?[0], "missed deadlines")?;
        let l = lines.expect("last_span")?;
        let last_span_ms = parse_f64_hex(&l, l.values::<1>()?[0])?;
        lines.end()?;
        Ok(Self {
            fault_cursor,
            snapshot: RecoverySnapshot { stats, missed_deadlines, last_span_ms },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};

    fn cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn frame() -> GrayImage {
        GrayImage::from_fn(64, 48, |x, _| (x * 3) as f32)
    }

    /// Detect on [`frame`] as stream frame `index`, decoded in `decode_ms`.
    fn process(vd: &mut VideoDetector, index: usize, decode_ms: f64) -> FrameResult {
        let decoded = DecodedFrame { index, luma: frame(), decode_ms, pts_ms: 0.0, fault: None };
        vd.process_decoded(&decoded).result.expect("a clean frame is detected")
    }

    fn detector(fps: f64) -> VideoDetector {
        VideoDetector::new(&cascade(), DetectorConfig::default(), fps).unwrap()
    }

    #[test]
    fn stats_accumulate_across_frames() {
        let mut vd = detector(24.0);
        for i in 0..3 {
            process(&mut vd, i, 9.0);
        }
        let s = vd.stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.ok_frames, 3);
        assert!(s.all_frames_accounted());
        assert!((s.total_decode_ms - 27.0).abs() < 1e-9);
        assert!(s.total_detect_ms > 0.0);
        assert!(s.max_detect_ms > 0.0);
    }

    #[test]
    fn pipelined_fps_uses_the_slower_stage() {
        let mut vd = detector(24.0);
        process(&mut vd, 0, 50.0); // decode-bound frame
        let s = vd.stats();
        // Period = max(decode, detect) = 50 ms -> 20 fps.
        assert!((s.pipelined_fps() - 20.0).abs() < 1.0);
    }

    #[test]
    fn deadline_misses_are_counted() {
        // Absurd playback rate so every frame misses.
        let mut vd = detector(1e9);
        process(&mut vd, 0, 1.0);
        assert_eq!(vd.missed_deadlines(), 1);
        // Relaxed deadline: no misses.
        let mut ok = detector(0.001);
        process(&mut ok, 0, 1.0);
        assert_eq!(ok.missed_deadlines(), 0);
    }

    #[test]
    fn non_finite_playback_fps_is_rejected() {
        for fps in [0.0, -24.0, f64::NAN, f64::INFINITY] {
            let r = VideoDetector::new(&cascade(), DetectorConfig::default(), fps);
            assert!(
                matches!(r, Err(DetectorError::BadPlaybackFps { .. })),
                "fps {fps} must be rejected"
            );
        }
    }

    #[test]
    fn transient_launch_faults_are_retried_and_reported() {
        // ~32 launches per frame: even a small per-launch rate fires
        // regularly at the frame level, and a bounded retry recovers.
        let plan = fd_gpu::FaultPlan::seeded(11).with_transient_launch_failures(0.01);
        let mut vd = VideoDetector::new(
            &cascade(),
            DetectorConfig { fault_plan: Some(plan), ..DetectorConfig::default() },
            24.0,
        )
        .unwrap();
        let mut retried = 0;
        let mut recovered = 0;
        for i in 0..20 {
            let f = DecodedFrame {
                index: i,
                luma: frame(),
                decode_ms: 9.0,
                pts_ms: i as f64 * 41.7,
                fault: None,
            };
            let report = vd.process_decoded(&f);
            retried += report.retries;
            if report.retries > 0 && report.outcome == FrameOutcome::Degraded {
                assert!(report
                    .degraded
                    .iter()
                    .any(|d| matches!(d, DegradeReason::RetriedLaunches { .. })));
                assert!(report.result.is_some());
                assert!(report.backoff_ms > 0.0);
                recovered += 1;
            }
        }
        assert!(retried > 0, "a 1% per-launch rate over 20 frames must fire");
        assert!(recovered > 0, "at least one frame must recover via retry");
        assert_eq!(vd.stats().retries as u32, retried);
        assert!(vd.stats().total_backoff_ms > 0.0);
        assert!(vd.stats().all_frames_accounted());
        assert!(vd.stats().ok_frames > 0, "most frames stay clean");
    }

    #[test]
    fn unrecoverable_timeouts_skip_the_frame_and_keep_the_stream() {
        let plan = fd_gpu::FaultPlan::seeded(5).with_launch_timeouts(0.15);
        let mut vd = VideoDetector::new(
            &cascade(),
            DetectorConfig { fault_plan: Some(plan), ..DetectorConfig::default() },
            24.0,
        )
        .unwrap();
        let mut skipped = 0;
        for i in 0..30 {
            let f =
                DecodedFrame { index: i, luma: frame(), decode_ms: 9.0, pts_ms: 0.0, fault: None };
            let report = vd.process_decoded(&f);
            if report.outcome == FrameOutcome::Skipped {
                assert!(matches!(report.skipped, Some(SkipReason::Detect(_))));
                assert!(report.result.is_none());
                skipped += 1;
            }
        }
        assert!(skipped > 0, "15% timeouts over 30 frames must skip some");
        assert_eq!(vd.stats().skipped_frames, skipped);
        assert!(vd.stats().all_frames_accounted());
    }

    #[test]
    fn dropped_and_corrupt_decodes_are_accounted() {
        let mut vd = detector(24.0);
        let dropped = DecodedFrame {
            index: 0,
            luma: frame(),
            decode_ms: 9.0,
            pts_ms: 0.0,
            fault: Some(DecodeFault::Dropped),
        };
        let r = vd.process_decoded(&dropped);
        assert_eq!(r.outcome, FrameOutcome::Skipped);
        assert_eq!(r.skipped, Some(SkipReason::Decode(DecodeFault::Dropped)));

        let corrupt = DecodedFrame {
            index: 1,
            luma: frame(),
            decode_ms: 9.0,
            pts_ms: 0.0,
            fault: Some(DecodeFault::Corrupted),
        };
        let r = vd.process_decoded(&corrupt);
        assert_eq!(r.outcome, FrameOutcome::Degraded);
        assert!(r.degraded.contains(&DegradeReason::CorruptInput));
        assert!(r.result.is_some(), "corrupt frames still run detection");

        let s = vd.stats();
        assert_eq!(s.skipped_frames, 1);
        assert_eq!(s.degraded_frames, 1);
        assert!(s.all_frames_accounted());
    }

    fn decoded(i: usize) -> DecodedFrame {
        DecodedFrame { index: i, luma: frame(), decode_ms: 9.0, pts_ms: 0.0, fault: None }
    }

    /// The first frame whose first attempt faults transiently, on a stream
    /// at `fps`.
    fn first_retried_frame(fps: f64) -> FrameReport {
        let plan = fd_gpu::FaultPlan::seeded(11).with_transient_launch_failures(0.01);
        let config = DetectorConfig { fault_plan: Some(plan), ..DetectorConfig::default() };
        let mut vd = VideoDetector::new(&cascade(), config, fps).unwrap();
        (0..20)
            .map(|i| vd.process_decoded(&decoded(i)))
            .find(|r| r.retries > 0)
            .expect("a 1% per-launch rate over 20 frames must fire")
    }

    #[test]
    fn re_attempts_past_the_playback_deadline_shed_scales() {
        // At 1e9 fps the deadline has passed once any backoff is charged.
        let levels = detector(1e9).detector().pyramid_plan(&frame()).unwrap().len();
        let shed = first_retried_frame(1e9);
        assert_eq!(shed.outcome, FrameOutcome::Degraded);
        assert_eq!(shed.shed_levels, 2.min(levels - 1));
        assert!(shed.shed_levels > 0);
        let reason = DegradeReason::ShedScales { shed_levels: shed.shed_levels };
        assert!(shed.degraded.contains(&reason), "{:?}", shed.degraded);

        // At 24 fps backoff plus span stays inside the period.
        let relaxed = first_retried_frame(24.0);
        assert_eq!((relaxed.frame, relaxed.shed_levels), (shed.frame, 0));
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_line_numbers() {
        let text = detector(24.0).checkpoint().to_text();
        let rejected = |bad: &str| {
            let e = StreamCheckpoint::from_text(bad).unwrap_err();
            assert!(e.line > 0, "{e}");
            e
        };
        // Version mismatch, the v1 format (which carried the policy), and
        // the header the deleted per-session supervisor wrote.
        assert_eq!(rejected(&text.replace("checkpoint v2", "checkpoint v9")).line, 1);
        assert_eq!(rejected(&text.replace("checkpoint v2", "checkpoint v1")).line, 1);
        let old = text.replace("stream-checkpoint v2", "supervisor-checkpoint v1\nsession 0");
        assert_eq!(rejected(&old).line, 1);
        // Truncation: the error names the line after the last one.
        let cut: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert_eq!(rejected(&cut).line, 5);
        // A key with no value, on every key line.
        for (i, line) in text.lines().enumerate() {
            let key = line.split(' ').next().unwrap();
            assert_eq!(rejected(&text.replacen(line, key, 1)).line, i + 1, "`{key}`");
        }
        // Mangled f64 bits, a non-canonical count, text after the last
        // field.
        assert_eq!(rejected(&text.replacen("last_span ", "last_span zz", 1)).line, 5);
        assert_eq!(rejected(&text.replace("missed_deadlines 0", "missed_deadlines 00")).line, 4);
        assert_eq!(rejected(&format!("{text}missed_deadlines 0\n")).line, 6);
    }

    #[test]
    fn resume_restores_the_checkpoint_or_fails_like_new() {
        let config = || DetectorConfig {
            fault_plan: Some(fd_gpu::FaultPlan::seeded(4).with_transient_launch_failures(0.01)),
            ..DetectorConfig::default()
        };
        let mut vd = VideoDetector::new(&cascade(), config(), 24.0).unwrap();
        for i in 0..4 {
            vd.process_decoded(&decoded(i));
        }
        let ckpt = vd.checkpoint();
        let resumed = VideoDetector::resume(&ckpt, &cascade(), config(), 24.0).unwrap();
        assert_eq!(resumed.checkpoint(), ckpt, "state and cursor are restored");
        assert!(matches!(
            VideoDetector::resume(&ckpt, &cascade(), config(), 0.0),
            Err(DetectorError::BadPlaybackFps { .. })
        ));
        assert!(matches!(
            VideoDetector::resume(&ckpt, &Cascade::new("empty", 24), config(), 24.0),
            Err(DetectorError::InvalidCascade { .. })
        ));
    }
}
