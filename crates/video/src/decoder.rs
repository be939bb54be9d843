//! Simulated on-die H.264 hardware decoder.
//!
//! The paper offloads decoding to the GPU's fixed-function NVCUVID engine
//! (§III-A, §V): the host demuxes with libavformat, enqueues compressed
//! slices, and the decoder emits NV12 frames directly into device memory —
//! only the luminance plane feeds the detection pipeline. Measured decode
//! latency for their 1080p trailers was 8–10 ms per frame, fully
//! overlapped with detection compute.
//!
//! The model reproduces the interface and the latency distribution: each
//! decoded frame carries a deterministic pseudo-random latency in
//! `[8, 10] ms` (scaled by resolution relative to 1080p), and a pipelined
//! consumer can overlap it with detection, yielding the paper's ~70 fps
//! end-to-end figure.

use crate::trailer::Trailer;
use fd_imgproc::synth::SplitMix64;
use fd_imgproc::GrayImage;

/// Fault observed on a decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFault {
    /// The bitstream for this frame was damaged: the decoder emitted a
    /// picture, but a band of macroblock rows carries garbage (the classic
    /// smeared-blocks artifact of a lost slice).
    Corrupted,
    /// The decoder emitted nothing for this frame (dropped access unit);
    /// the luma plane is blank and must not be fed to detection.
    Dropped,
}

/// Seeded, deterministic decode-fault plan for [`HwDecoder`].
///
/// Per-frame verdicts are pure functions of `(seed, fault kind, frame
/// index)`, so a plan reproduces the same corrupt/dropped frames on every
/// run. A plan with zero rates is inert: decoded frames are bit-identical
/// to those of a decoder with no plan attached.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeFaultPlan {
    /// Seed for every per-frame verdict.
    pub seed: u64,
    /// Probability a frame decodes with a corrupted macroblock band.
    pub corrupt_rate: f64,
    /// Probability a frame is dropped outright (takes precedence over
    /// corruption when both fire).
    pub drop_rate: f64,
}

impl DecodeFaultPlan {
    /// An inert plan (all rates zero) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, corrupt_rate: 0.0, drop_rate: 0.0 }
    }

    pub fn with_corrupt_frames(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    pub fn with_dropped_frames(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// `true` when no fault can ever fire.
    pub fn is_inert(&self) -> bool {
        self.corrupt_rate <= 0.0 && self.drop_rate <= 0.0
    }
}

/// Output of the simulated decoder for one frame.
#[derive(Debug, Clone)]
pub struct DecodedFrame {
    pub index: usize,
    /// Luminance plane of the NV12 output (what the pipeline consumes).
    pub luma: GrayImage,
    /// Simulated hardware decode latency for this frame, milliseconds.
    pub decode_ms: f64,
    /// Presentation timestamp, milliseconds.
    pub pts_ms: f64,
    /// Injected decode fault, if the attached [`DecodeFaultPlan`] fired.
    pub fault: Option<DecodeFault>,
}

/// Hardware-decoder model over a generated trailer.
pub struct HwDecoder {
    trailer: Trailer,
    next: usize,
    /// Decode-latency bounds at 1080p, milliseconds.
    latency_ms: (f64, f64),
    faults: Option<DecodeFaultPlan>,
}

impl HwDecoder {
    pub fn new(trailer: Trailer) -> Self {
        Self { trailer, next: 0, latency_ms: (8.0, 10.0), faults: None }
    }

    /// Attach (or clear) a decode-fault plan.
    pub fn set_fault_plan(&mut self, plan: Option<DecodeFaultPlan>) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> Option<&DecodeFaultPlan> {
        self.faults.as_ref()
    }

    /// Deterministic fault verdict for `frame` under the attached plan.
    pub fn frame_fault(&self, frame: usize) -> Option<DecodeFault> {
        let plan = self.faults.as_ref()?;
        // Independent draw streams per fault kind so that enabling drops
        // does not shift which frames corrupt.
        let draw = |kind: u64| {
            SplitMix64::new(
                plan.seed
                    ^ kind.wrapping_mul(0xA24BAED4963EE407)
                    ^ (frame as u64).wrapping_mul(0x9E3779B97F4A7C15),
            )
            .next_f64()
        };
        if plan.drop_rate > 0.0 && draw(1) < plan.drop_rate {
            return Some(DecodeFault::Dropped);
        }
        if plan.corrupt_rate > 0.0 && draw(2) < plan.corrupt_rate {
            return Some(DecodeFault::Corrupted);
        }
        None
    }

    /// Overwrite a band of 16-px macroblock rows with blocky garbage —
    /// each 16x16 macroblock gets one flat pseudo-random luma value, the
    /// artifact a lost slice produces in a real H.264 decode.
    fn garble(&self, luma: &mut GrayImage, seed: u64, frame: usize) {
        let (w, h) = (luma.width(), luma.height());
        let mut rng = SplitMix64::new(
            seed ^ 0xC0DEC0DEC0DEC0DE ^ (frame as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let mb_rows = h.div_ceil(16);
        let band_mbs = (1 + (rng.next_u64() as usize) % 4).min(mb_rows);
        let start_mb = (rng.next_u64() as usize) % (mb_rows - band_mbs + 1);
        for mb_y in start_mb..start_mb + band_mbs {
            for mb_x in 0..w.div_ceil(16) {
                let v = rng.next_f64() as f32;
                for y in (mb_y * 16..(mb_y + 1) * 16).take_while(|&y| y < h) {
                    for x in (mb_x * 16..(mb_x + 1) * 16).take_while(|&x| x < w) {
                        luma.set(x, y, v);
                    }
                }
            }
        }
    }

    /// The underlying trailer (ground truth access).
    pub fn trailer(&self) -> &Trailer {
        &self.trailer
    }

    /// Deterministic decode latency for `frame`.
    pub fn decode_latency_ms(&self, frame: usize) -> f64 {
        let mut rng = SplitMix64::new(self.trailer.spec.seed ^ (frame as u64).wrapping_mul(0x9E37));
        let (lo, hi) = self.latency_ms;
        // Scale by pixel count relative to 1080p (decode work is roughly
        // proportional to coded area).
        let area_scale =
            (self.trailer.spec.width * self.trailer.spec.height) as f64 / (1920.0 * 1080.0);
        (lo + (hi - lo) * rng.next_f64()) * area_scale.max(0.05)
    }

    /// Decode a specific frame, applying any attached fault plan.
    pub fn decode_frame(&self, frame: usize) -> DecodedFrame {
        let fault = self.frame_fault(frame);
        let luma = match fault {
            // The engine spent its cycles either way, but emitted nothing.
            Some(DecodeFault::Dropped) => {
                GrayImage::new(self.trailer.spec.width, self.trailer.spec.height)
            }
            Some(DecodeFault::Corrupted) => {
                let mut img = self.trailer.render_frame(frame);
                let seed = self.faults.as_ref().map(|p| p.seed).unwrap_or(0);
                self.garble(&mut img, seed, frame);
                img
            }
            None => self.trailer.render_frame(frame),
        };
        DecodedFrame {
            index: frame,
            luma,
            decode_ms: self.decode_latency_ms(frame),
            pts_ms: frame as f64 * 1000.0 / self.trailer.spec.fps,
            fault,
        }
    }

    /// Index of the next frame the iterator will emit. Together with
    /// [`HwDecoder::seek`] this makes the streaming cursor resumable:
    /// because `decode_frame` is a pure function of the frame index, a
    /// fresh decoder sought to `stream_position()` continues
    /// bit-identically. (Named to avoid colliding with
    /// `Iterator::position`, which shadows inherent methods on `&mut`
    /// receivers via the blanket `impl Iterator for &mut I`.)
    pub fn stream_position(&self) -> usize {
        self.next
    }

    /// Move the streaming cursor so the next emitted frame is `frame`
    /// (clamped to end-of-stream).
    pub fn seek(&mut self, frame: usize) {
        self.next = frame.min(self.trailer.spec.n_frames);
    }
}

impl Iterator for HwDecoder {
    type Item = DecodedFrame;

    fn next(&mut self) -> Option<DecodedFrame> {
        if self.next >= self.trailer.spec.n_frames {
            return None;
        }
        let f = self.decode_frame(self.next);
        self.next += 1;
        Some(f)
    }
}

/// Steady-state throughput of a two-stage pipeline where decode (hardware)
/// overlaps detection (GPU compute): the per-frame period is the maximum
/// of the two stage latencies.
/// An empty stream has no throughput: returns `0.0` rather than dividing
/// by zero (mismatched stage lengths are truncated to the shorter one).
pub fn pipelined_fps(decode_ms: &[f64], detect_ms: &[f64]) -> f64 {
    let n = decode_ms.len().min(detect_ms.len());
    if n == 0 {
        return 0.0;
    }
    let total: f64 = decode_ms.iter().zip(detect_ms).map(|(&d, &k)| d.max(k)).sum();
    if total <= 0.0 || !total.is_finite() {
        return 0.0;
    }
    1000.0 * n as f64 / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trailer::TrailerSpec;

    fn trailer() -> Trailer {
        Trailer::generate(TrailerSpec {
            width: 1920,
            height: 1080,
            n_frames: 12,
            seed: 4,
            ..TrailerSpec::default()
        })
    }

    #[test]
    fn latency_stays_in_the_papers_range_at_1080p() {
        let dec = HwDecoder::new(trailer());
        for f in 0..12 {
            let ms = dec.decode_latency_ms(f);
            assert!((8.0..=10.0).contains(&ms), "frame {f}: {ms} ms");
        }
    }

    #[test]
    fn latency_is_deterministic_and_varies() {
        let dec = HwDecoder::new(trailer());
        let a: Vec<f64> = (0..12).map(|f| dec.decode_latency_ms(f)).collect();
        let b: Vec<f64> = (0..12).map(|f| dec.decode_latency_ms(f)).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6));
    }

    #[test]
    fn iterator_streams_all_frames_in_order() {
        let dec = HwDecoder::new(trailer());
        let frames: Vec<DecodedFrame> = dec.collect();
        assert_eq!(frames.len(), 12);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i);
            assert_eq!(f.luma.width(), 1920);
        }
        // PTS spacing = 1/fps.
        let dt = frames[1].pts_ms - frames[0].pts_ms;
        assert!((dt - 1000.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_resolutions_decode_faster() {
        let small = Trailer::generate(TrailerSpec {
            width: 640,
            height: 360,
            n_frames: 2,
            seed: 4,
            face_size: (30.0, 80.0),
            ..TrailerSpec::default()
        });
        let dec = HwDecoder::new(small);
        assert!(dec.decode_latency_ms(0) < 8.0);
    }

    #[test]
    fn pipelined_fps_is_bounded_by_the_slower_stage() {
        // decode 10ms, detect 5ms -> 100 fps; detect 20ms -> 50 fps.
        assert!((pipelined_fps(&[10.0; 4], &[5.0; 4]) - 100.0).abs() < 1e-9);
        assert!((pipelined_fps(&[10.0; 4], &[20.0; 4]) - 50.0).abs() < 1e-9);
        // The paper's case: ~9ms decode, ~5ms detect -> ~70-110 fps.
        let fps = pipelined_fps(&[9.0; 4], &[4.5; 4]);
        assert!(fps > 70.0);
    }

    #[test]
    fn pipelined_fps_of_an_empty_stream_is_zero() {
        assert_eq!(pipelined_fps(&[], &[]), 0.0);
        assert_eq!(pipelined_fps(&[0.0; 3], &[0.0; 3]), 0.0);
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_none() {
        let clean = HwDecoder::new(trailer());
        let mut planned = HwDecoder::new(trailer());
        planned.set_fault_plan(Some(DecodeFaultPlan::seeded(99)));
        for f in 0..12 {
            let a = clean.decode_frame(f);
            let b = planned.decode_frame(f);
            assert_eq!(a.luma.as_slice(), b.luma.as_slice(), "frame {f}");
            assert_eq!(a.decode_ms.to_bits(), b.decode_ms.to_bits());
            assert_eq!(b.fault, None);
        }
    }

    #[test]
    fn corrupt_frames_are_deterministic_and_visibly_garbled() {
        let mut dec = HwDecoder::new(trailer());
        dec.set_fault_plan(Some(DecodeFaultPlan::seeded(7).with_corrupt_frames(0.5)));
        let verdicts: Vec<_> = (0..12).map(|f| dec.frame_fault(f)).collect();
        assert!(verdicts.contains(&Some(DecodeFault::Corrupted)));
        assert!(verdicts.iter().any(|v| v.is_none()));
        // Same plan, fresh decoder: identical verdicts and identical pixels.
        let mut dec2 = HwDecoder::new(trailer());
        dec2.set_fault_plan(Some(DecodeFaultPlan::seeded(7).with_corrupt_frames(0.5)));
        for f in 0..12 {
            assert_eq!(dec.frame_fault(f), dec2.frame_fault(f));
            let a = dec.decode_frame(f);
            let b = dec2.decode_frame(f);
            assert_eq!(a.luma.as_slice(), b.luma.as_slice());
            if a.fault == Some(DecodeFault::Corrupted) {
                let clean = dec.trailer().render_frame(f);
                assert_ne!(a.luma.as_slice(), clean.as_slice(), "frame {f} not garbled");
            }
        }
    }

    #[test]
    fn seek_resumes_the_stream_bit_identically() {
        let mut full = HwDecoder::new(trailer());
        full.set_fault_plan(Some(DecodeFaultPlan::seeded(7).with_corrupt_frames(0.3)));
        let all: Vec<DecodedFrame> = full.by_ref().collect();

        let mut resumed = HwDecoder::new(trailer());
        resumed.set_fault_plan(Some(DecodeFaultPlan::seeded(7).with_corrupt_frames(0.3)));
        for _ in 0..5 {
            resumed.next();
        }
        let at = resumed.stream_position();
        assert_eq!(at, 5);
        // Simulate a restart: fresh decoder sought to the saved cursor.
        let mut fresh = HwDecoder::new(trailer());
        fresh.set_fault_plan(Some(DecodeFaultPlan::seeded(7).with_corrupt_frames(0.3)));
        fresh.seek(at);
        let rest: Vec<DecodedFrame> = fresh.collect();
        assert_eq!(rest.len(), 12 - 5);
        for (i, f) in rest.into_iter().enumerate() {
            let reference = &all[at + i];
            assert_eq!(f.index, reference.index);
            assert_eq!(f.luma.as_slice(), reference.luma.as_slice());
            assert_eq!(f.decode_ms.to_bits(), reference.decode_ms.to_bits());
            assert_eq!(f.fault, reference.fault);
        }
        // Seeking past the end clamps: iterator is immediately exhausted.
        let mut past = HwDecoder::new(trailer());
        past.seek(usize::MAX);
        assert!(past.next().is_none());
    }

    #[test]
    fn dropped_frames_come_out_blank_and_flagged() {
        let mut dec = HwDecoder::new(trailer());
        dec.set_fault_plan(Some(DecodeFaultPlan::seeded(3).with_dropped_frames(1.0)));
        let f = dec.decode_frame(0);
        assert_eq!(f.fault, Some(DecodeFault::Dropped));
        assert!(f.luma.as_slice().iter().all(|&p| p == 0.0));
    }
}
