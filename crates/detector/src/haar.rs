//! The paper's stage list: per pyramid level, eight kernels — scale,
//! filter, scan, transpose, scan, transpose, cascade, display — over one
//! level's workspaces, and a readback of the depth, score and hit maps.

use std::sync::Arc;

use fd_gpu::{
    BatchedKernel, ConstPtr, DevBuf, DeviceMemory, FusedChain, GeomClass, Gpu, Kernel,
    LaunchConfig, LaunchError, Readback, ShapeCache, Timeline, WorkspaceFill,
};
use fd_haar::encode::{encode_cascade, quantize_cascade};
use fd_haar::Cascade;
use fd_imgproc::{GrayImage, Rect};

use crate::backend::Backend;
use crate::detector::{DetectorConfig, RejectionHistogram};
use crate::error::DetectorError;
use crate::group::Detection;
use crate::kernels::cascade::{image_offsets, precompile, PreStage, StageOffsets};
use crate::kernels::scan::ScanInput;
use crate::kernels::{CascadeKernel, DisplayKernel, FilterKernel, ScanRowsKernel, TransposeKernel};
use crate::pipeline::{stage_constants, LevelGeom, LevelLaunch, Pipeline, StageList};

/// The paper's pipeline: the Haar cascade's stage list.
pub type FramePipeline = Pipeline<HaarStages>;

/// Readback of one pyramid level after a frame, copied to the host.
#[derive(Debug, Clone)]
pub struct ScaleOutput {
    pub level: usize,
    pub width: usize,
    pub height: usize,
    /// Multiply level coordinates by this to reach frame coordinates.
    pub scale: f64,
    /// Deepest stage reached per pixel.
    pub depth: Vec<u32>,
    /// Accumulated stage margin per pixel.
    pub score: Vec<f32>,
    /// Display-kernel hit mask.
    pub hits: Vec<u32>,
}

/// [`ScaleOutput`] borrowed from device memory: what
/// [`FramePipeline::readback`](crate::Pipeline::readback) yields. The maps
/// are [`DeviceMemory::download_view`]s.
pub struct ScaleView<'a> {
    pub level: usize,
    pub width: usize,
    pub height: usize,
    /// Multiply level coordinates by this to reach frame coordinates.
    pub scale: f64,
    /// Deepest stage reached per pixel.
    pub depth: Readback<'a, u32>,
    /// Accumulated stage margin per pixel.
    pub score: Readback<'a, f32>,
    /// Display-kernel hit mask.
    pub hits: Readback<'a, u32>,
}

impl ScaleView<'_> {
    /// Copy the level out of device memory.
    pub fn to_owned(&self) -> ScaleOutput {
        ScaleOutput {
            level: self.level,
            width: self.width,
            height: self.height,
            scale: self.scale,
            depth: self.depth.to_vec(),
            score: self.score.to_vec(),
            hits: self.hits.to_vec(),
        }
    }
}

/// Device workspaces for one pyramid level: eight `w * h` values in four
/// slots, each pair listed in the order its values are live.
pub struct LevelBufs {
    scaled: DevBuf<f32>,
    integral: DevBuf<u32>,
    filtered: DevBuf<f32>,
    depth: DevBuf<u32>,
    buf_a: DevBuf<u32>,
    score: DevBuf<f32>,
    buf_b: DevBuf<u32>,
    hits: DevBuf<u32>,
}

/// The Haar cascade as a [`StageList`].
pub struct HaarStages {
    /// The quantized cascade the device evaluates.
    cascade: Cascade,
    /// `cascade` precompiled for the cascade kernel, shared by every
    /// level's and slot's launch.
    stages: Arc<Vec<PreStage>>,
    const_ptr: ConstPtr,
    /// Per level of the bound plan, the cascade's corner offsets at the
    /// level's width.
    image_offs: Vec<Arc<StageOffsets>>,
    /// [`DetectorConfig::fusion`].
    fusion: bool,
    /// [`DetectorConfig::autotune`].
    autotune: bool,
    /// Tuned-shape memo, keyed by `(kernel, geometry class)` — shared by
    /// every level, frame and batch these stages run.
    shapes: ShapeCache,
}

/// The launch geometry for `kernel`, re-tiled through the shape cache
/// when the kernel advertises a family; the declared default otherwise.
fn tuned_cfg<K: Kernel>(
    shapes: &mut ShapeCache,
    kernel: &K,
    class: GeomClass,
    default_cfg: LaunchConfig,
) -> LaunchConfig {
    match kernel.shape_family() {
        Some(family) => {
            let c = shapes.choose(class, &family);
            LaunchConfig { grid: c.grid, block: c.block, shared_mem_bytes: c.shared_mem_bytes }
        }
        None => default_cfg,
    }
}

impl HaarStages {
    /// Launch the scale + smoothing + integral-image construction for
    /// one pyramid level, batched across request slots: bilinear scale,
    /// filter, then the scan → transpose → scan → transpose sequence
    /// that builds the integral image (paper §III-A/B). One code path
    /// serves both modes — unfused it issues the six batched launches of
    /// the baseline; fused it issues two combined launches
    /// (scale+filter+scan+transpose and scan+transpose), paying one
    /// launch overhead each and keeping the chain-internal intermediates
    /// (`scaled`, `filtered`, `buf_a`) off the global traffic ledger.
    /// Functional results are bit-identical either way.
    fn launch_pyramid_stages(
        &mut self,
        gpu: &mut Gpu,
        lv: &LevelLaunch<'_, LevelBufs>,
    ) -> Result<(), (&'static str, LaunchError)> {
        let (w, h, stream) = (lv.w, lv.h, lv.stream);
        let scales = lv.scale_kernels(|b| b.scaled);
        let filters: Vec<_> = lv
            .bufs()
            .map(|b| FilterKernel { src: b.scaled, dst: b.filtered, width: w, height: h })
            .collect();
        let scan1s: Vec<_> = lv
            .bufs()
            .map(|b| ScanRowsKernel {
                input: ScanInput::QuantizeF32(b.filtered),
                output: b.buf_a,
                width: w,
                height: h,
            })
            .collect();
        let t1s: Vec<_> = lv
            .bufs()
            .map(|b| TransposeKernel { src: b.buf_a, dst: b.buf_b, width: w, height: h })
            .collect();
        let scan2s: Vec<_> = lv
            .bufs()
            .map(|b| ScanRowsKernel {
                input: ScanInput::U32(b.buf_b),
                output: b.buf_a,
                width: h,
                height: w,
            })
            .collect();
        let t2s: Vec<_> = lv
            .bufs()
            .map(|b| TransposeKernel { src: b.buf_a, dst: b.integral, width: h, height: w })
            .collect();
        let mut sc_cfg = scales[0].config();
        let mut f_cfg = filters[0].config();
        let mut s1_cfg = scan1s[0].config();
        let t1_cfg = t1s[0].config();
        let mut s2_cfg = scan2s[0].config();
        let t2_cfg = t2s[0].config();
        // Fused chains keep their stacked default shapes: one thread
        // count across all chained stages is part of the fusion contract,
        // and per-stage re-tiling would break it. Unfused launches are
        // free to take the tuned shape per stage (the transpose has no
        // family — its diagonal tile is its identity).
        if self.autotune && !self.fusion {
            let shapes = &mut self.shapes;
            sc_cfg = tuned_cfg(shapes, &scales[0], GeomClass::of(w, h), sc_cfg);
            f_cfg = tuned_cfg(shapes, &filters[0], GeomClass::of(w, h), f_cfg);
            s1_cfg = tuned_cfg(shapes, &scan1s[0], GeomClass::of(w, h), s1_cfg);
            s2_cfg = tuned_cfg(shapes, &scan2s[0], GeomClass::of(h, w), s2_cfg);
        }

        if self.fusion {
            // Stack each stage across request slots first (grid.z), then
            // fuse the stacked stages; legality is validated per chain at
            // launch and any rejection surfaces as a launch error.
            let scb = BatchedKernel::new(scales, sc_cfg);
            let scb_cfg = scb.stacked_config(sc_cfg);
            let fb = BatchedKernel::new(filters, f_cfg);
            let fb_cfg = fb.stacked_config(f_cfg);
            let s1b = BatchedKernel::new(scan1s, s1_cfg);
            let s1b_cfg = s1b.stacked_config(s1_cfg);
            let t1b = BatchedKernel::new(t1s, t1_cfg);
            let t1b_cfg = t1b.stacked_config(t1_cfg);
            let chain_a = FusedChain::new("scale+filter+scan+transpose")
                .then(scb, scb_cfg)
                .then(fb, fb_cfg)
                .then(s1b, s1b_cfg)
                .then(t1b, t1b_cfg);
            gpu.launch_fused(chain_a, stream).map_err(|e| ("scale+filter+scan+transpose", e))?;

            let s2b = BatchedKernel::new(scan2s, s2_cfg);
            let s2b_cfg = s2b.stacked_config(s2_cfg);
            let t2b = BatchedKernel::new(t2s, t2_cfg);
            let t2b_cfg = t2b.stacked_config(t2_cfg);
            let chain_b = FusedChain::new("scan+transpose").then(s2b, s2b_cfg).then(t2b, t2b_cfg);
            gpu.launch_fused(chain_b, stream).map_err(|e| ("scan+transpose", e))?;
        } else {
            gpu.launch_batched(scales, sc_cfg, stream).map_err(|e| ("scale_bilinear", e))?;
            gpu.launch_batched(filters, f_cfg, stream).map_err(|e| ("filter_3tap", e))?;
            gpu.launch_batched(scan1s, s1_cfg, stream).map_err(|e| ("scan_rows", e))?;
            gpu.launch_batched(t1s, t1_cfg, stream).map_err(|e| ("transpose", e))?;
            gpu.launch_batched(scan2s, s2_cfg, stream).map_err(|e| ("scan_rows", e))?;
            gpu.launch_batched(t2s, t2_cfg, stream).map_err(|e| ("transpose", e))?;
        }
        Ok(())
    }
}

impl StageList for HaarStages {
    const BACKEND: Backend = Backend::Haar;
    type Model = Cascade;
    type LevelBufs = LevelBufs;
    type View<'a> = ScaleView<'a>;

    /// Validates the cascade ([`Cascade::validate`]), its window and the
    /// device's warp size, and stages the quantized cascade.
    fn stage(gpu: &mut Gpu, cascade: &Cascade) -> Result<Self, DetectorError> {
        cascade.validate().map_err(|source| DetectorError::InvalidCascade { source })?;
        if cascade.window != 24 {
            return Err(DetectorError::InvalidConfig {
                reason: "the cascade kernel is specialized for 24-px windows",
            });
        }
        // Its block family (`24 x h` threads, whole warps only at 32
        // lanes) and its 32-entry lane lists: any other warp size panics
        // or never terminates inside a launch.
        if gpu.spec.warp_size != 32 {
            return Err(DetectorError::InvalidConfig {
                reason: "the cascade kernel is specialized for 32-lane warps",
            });
        }
        let quantized = quantize_cascade(cascade);
        let const_ptr = stage_constants(
            gpu,
            &encode_cascade(&quantized),
            "staging the encoded cascade in constant memory",
        )?;
        Ok(Self {
            stages: precompile(&quantized),
            cascade: quantized,
            const_ptr,
            image_offs: Vec::new(),
            fusion: false,
            autotune: false,
            shapes: ShapeCache::new(gpu.spec.clone(), gpu.cost.clone()),
        })
    }

    /// The quantized cascade.
    fn model(&self) -> &Cascade {
        &self.cascade
    }

    fn window(&self) -> usize {
        self.cascade.window as usize
    }

    /// Four `w * h` slots of 4-byte elements, each holding one value and
    /// then another once the first is dead:
    /// - S: `scaled` (scale → filter), then `integral` (→ cascade);
    /// - F: `filtered` (filter → scan), then `depth` (cascade → display,
    ///   readback);
    /// - A: `buf_a` (both scans → transposes), then `score` (cascade →
    ///   readback);
    /// - B: `buf_b` (transpose → scan), then `hits` (display → readback).
    ///
    /// In both launch orders — eight launches, or the chains
    /// `scale+filter+scan+transpose` (S, F, A → B) and `scan+transpose`
    /// (B → A → S) — no launch reads and writes one slot, and the
    /// cascade and display kernels write every pixel of their outputs.
    fn level_bufs(src: &mut WorkspaceFill<'_>, w: usize, h: usize) -> LevelBufs {
        let n = w * h;
        let (s, f, a, b) = (src.buf(n), src.buf(n), src.buf(n), src.buf(n));
        LevelBufs {
            scaled: s,
            integral: s.cast(),
            filtered: f,
            depth: f.cast(),
            buf_a: a,
            score: a.cast(),
            buf_b: b,
            hits: b,
        }
    }

    fn bind_plan(&mut self, plan: &[(usize, usize)]) {
        self.image_offs = plan.iter().map(|&(w, h)| image_offsets(&self.stages, w, h)).collect();
    }

    fn launch_level(
        &mut self,
        gpu: &mut Gpu,
        lv: &LevelLaunch<'_, LevelBufs>,
    ) -> Result<(), (&'static str, LaunchError)> {
        self.launch_pyramid_stages(gpu, lv)?;
        let (w, h) = (lv.w, lv.h);
        let mut cascades: Vec<_> = lv
            .bufs()
            .map(|b| {
                CascadeKernel::with_stages(
                    Arc::clone(&self.stages),
                    Arc::clone(&self.image_offs[lv.level]),
                    b.integral,
                    w,
                    h,
                    b.depth,
                    b.score,
                    self.const_ptr,
                )
            })
            .collect();
        // The cascade's shape lives on the kernel (its tile height), so
        // re-tiling rebuilds the kernels, not just the config.
        if self.autotune {
            if let Some(family) = cascades[0].shape_family() {
                let bh = self.shapes.choose(GeomClass::of(w, h), &family).block.y;
                if bh != CascadeKernel::BLOCK {
                    cascades = cascades.into_iter().map(|k| k.with_block_h(bh)).collect();
                }
            }
        }
        let cfg = cascades[0].config();
        gpu.launch_batched(cascades, cfg, lv.stream).map_err(|e| ("cascade_eval", e))?;

        let displays: Vec<_> = lv
            .bufs()
            .map(|b| DisplayKernel {
                depth: b.depth,
                hits: b.hits,
                width: w,
                height: h,
                required_depth: self.cascade.depth(),
            })
            .collect();
        let cfg = displays[0].config();
        gpu.launch_batched(displays, cfg, lv.stream).map_err(|e| ("display", e))
    }

    /// Depth, score and hits, in that copy order.
    fn view<'a>(&self, mem: &'a DeviceMemory, at: LevelGeom, bufs: &LevelBufs) -> ScaleView<'a> {
        ScaleView {
            level: at.level,
            width: at.width,
            height: at.height,
            scale: at.scale,
            depth: mem.download_view(bufs.depth),
            score: mem.download_view(bufs.score),
            hits: mem.download_view(bufs.hits),
        }
    }

    /// Every pixel of a hit mask is a window origin; it reads the hit
    /// mask and the scores under the hits.
    fn extract_raw(&self, views: &[ScaleView<'_>]) -> Vec<Detection> {
        let window = self.window();
        let mut raw = Vec::new();
        for out in views {
            let size = (window as f64 * out.scale).round() as u32;
            for_each_hit(&out.hits, |i| {
                let (ox, oy) = (i % out.width, i / out.width);
                raw.push(Detection {
                    rect: Rect::new(
                        (ox as f64 * out.scale).round() as i32,
                        (oy as f64 * out.scale).round() as i32,
                        size,
                        size,
                    ),
                    score: out.score[i],
                    scale: out.level,
                });
            });
        }
        raw
    }

    fn histogram(&self, views: &[ScaleView<'_>]) -> RejectionHistogram {
        let n_stages = self.cascade.depth() as usize;
        let window = self.window();
        let mut counts = Vec::with_capacity(views.len());
        let mut windows = Vec::with_capacity(views.len());
        for out in views {
            let mut hist = vec![0u64; n_stages + 1];
            let mut total = 0u64;
            if out.width >= window && out.height >= window {
                for oy in 0..=out.height - window {
                    for ox in 0..=out.width - window {
                        let d = out.depth[oy * out.width + ox] as usize;
                        hist[d.min(n_stages)] += 1;
                        total += 1;
                    }
                }
            }
            counts.push(hist);
            windows.push(total);
        }
        RejectionHistogram { counts, windows_per_level: windows }
    }

    fn configure(&mut self, config: &DetectorConfig) {
        self.fusion = config.fusion.unwrap_or(false);
        self.autotune = config.autotune.unwrap_or(false);
    }
}

impl FramePipeline {
    /// Run the full pipeline on one luma frame and copy every level's
    /// maps to the host. Returns them with the frame's device timeline
    /// (its span is the detection latency).
    pub fn run_frame(
        &mut self,
        frame: &GrayImage,
    ) -> Result<(Vec<ScaleOutput>, Timeline), DetectorError> {
        let plan = self.plan_for(frame)?;
        let timeline = self.submit_batch_with_plan(&[frame], &plan)?;
        Ok((self.readback(0).iter().map(ScaleView::to_owned).collect(), timeline))
    }
}

/// Call `f` with the index of every nonzero word of a hit mask, in order.
/// A 1080p frame's masks hold 5.7 M words and about a hundred hits, so
/// the mask is walked in chunks and a chunk whose words OR to zero is
/// skipped without looking at its elements one by one.
fn for_each_hit(hits: &[u32], mut f: impl FnMut(usize)) {
    const CHUNK: usize = 64;
    for (c, chunk) in hits.chunks(CHUNK).enumerate() {
        if chunk.iter().fold(0, |any, &hit| any | hit) != 0 {
            for (j, _) in chunk.iter().enumerate().filter(|&(_, &hit)| hit != 0) {
                f(c * CHUNK + j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode};
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};
    use fd_imgproc::IntegralImage;

    fn simple_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 4096, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn test_frame() -> GrayImage {
        // A 96x72 frame with one strong edge pattern.
        GrayImage::from_fn(96, 72, |x, y| {
            if (20..32).contains(&x) && (10..34).contains(&y) {
                10.0
            } else if (32..44).contains(&x) && (10..34).contains(&y) {
                250.0
            } else {
                100.0
            }
        })
    }

    fn pipeline() -> FramePipeline {
        FramePipeline::new(
            Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent),
            &simple_cascade(),
            1.25,
        )
    }

    /// Every slot's levels of one batched submission, copied out.
    fn run_batch(
        p: &mut FramePipeline,
        frames: &[&GrayImage],
    ) -> (Vec<Vec<ScaleOutput>>, Timeline) {
        let plan = p.plan_for(frames[0]).unwrap();
        let timeline = p.submit_batch_with_plan(frames, &plan).unwrap();
        let outputs = (0..frames.len())
            .map(|slot| p.readback(slot).iter().map(ScaleView::to_owned).collect())
            .collect();
        (outputs, timeline)
    }

    #[test]
    fn pipeline_levels_match_host_reference() {
        let mut p = pipeline();
        let frame = test_frame();
        let (outputs, timeline) = p.run_frame(&frame).unwrap();
        assert!(outputs.len() >= 4, "96x72 at 1.25 should give several levels");
        assert!(timeline.span_us() > 0.0);

        // Reference: host-side scale+filter+integral+eval per level.
        for out in &outputs {
            let scaled = if out.level == 0 {
                frame.clone()
            } else {
                fd_imgproc::resize::resize_bilinear(&frame, out.width, out.height)
            };
            let filtered = fd_imgproc::filter::antialias_3tap(&scaled);
            let ii = IntegralImage::from_gray(&filtered);
            let cq = p.stages().model().clone();
            for oy in (0..=out.height - 24).step_by(7) {
                for ox in (0..=out.width - 24).step_by(7) {
                    let r = cq.eval_window(&ii, ox, oy);
                    assert_eq!(
                        out.depth[oy * out.width + ox],
                        r.depth,
                        "level {} window ({ox},{oy})",
                        out.level
                    );
                }
            }
        }
    }

    #[test]
    fn hits_are_thresholded_depths() {
        let mut p = pipeline();
        let (outputs, _) = p.run_frame(&test_frame()).unwrap();
        let req = p.stages().model().depth();
        for out in &outputs {
            for (d, h) in out.depth.iter().zip(&out.hits) {
                assert_eq!(*h, (*d >= req) as u32);
            }
        }
    }

    #[test]
    fn batched_launches_cut_the_per_request_latency() {
        let frame = test_frame();
        let mut p = pipeline();
        let (_, t1) = run_batch(&mut p, &[&frame]);
        let (_, t4) = run_batch(&mut p, &[&frame, &frame, &frame, &frame]);
        assert!(
            t4.span_us() < 4.0 * t1.span_us(),
            "a 4-batch must beat 4 sequential frames: {} vs 4x{}",
            t4.span_us(),
            t1.span_us()
        );
    }

    #[test]
    fn fused_frames_are_bit_identical_and_pay_fewer_launches() {
        let frame = test_frame();
        let run = |fusion: bool| {
            let mut p = pipeline();
            p.stages_mut().fusion = fusion;
            let (outputs, t) = p.run_frame(&frame).unwrap();
            let launches = p.gpu.profiler().traces().len();
            (outputs, t.span_us(), launches)
        };
        let (unfused, span_u, n_u) = run(false);
        let (fused, span_f, n_f) = run(true);
        for (a, b) in unfused.iter().zip(&fused) {
            assert_eq!(a.depth, b.depth, "level {}", a.level);
            assert_eq!(
                a.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "level {}",
                a.level
            );
            assert_eq!(a.hits, b.hits, "level {}", a.level);
        }
        // 8 launches per level unfused; fusion folds scale..transpose
        // into two, leaving chain A, chain B, cascade, display.
        assert_eq!(n_u % 8, 0);
        assert_eq!(n_f % 4, 0);
        assert_eq!(n_u / 8, n_f / 4, "same level count");
        assert!(
            span_f < span_u,
            "fusion must shorten the frame: fused {span_f} vs unfused {span_u}"
        );
    }

    #[test]
    fn fused_batches_match_unfused_batches() {
        let frame = test_frame();
        let run = |fusion: bool| {
            let mut p = pipeline();
            p.stages_mut().fusion = fusion;
            run_batch(&mut p, &[&frame, &frame, &frame])
        };
        let (unfused, tu) = run(false);
        let (fused, tf) = run(true);
        for (uf, ff) in unfused.iter().zip(&fused) {
            for (a, b) in uf.iter().zip(ff) {
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.hits, b.hits);
            }
        }
        assert!(tf.span_us() < tu.span_us(), "{} vs {}", tf.span_us(), tu.span_us());
    }

    #[test]
    fn fusion_credits_intermediate_traffic() {
        let frame = test_frame();
        let counters = |fusion: bool| {
            // Byte-for-byte ledger comparison needs both runs on the
            // default shapes (autotune off): re-tiling changes halo
            // traffic.
            let mut p = pipeline();
            p.stages_mut().fusion = fusion;
            let _ = p.run_frame(&frame).unwrap();
            let mut total = fd_gpu::KernelCounters::default();
            for prof in p.gpu.profiler().kernels().values() {
                total.add(&prof.counters);
            }
            total
        };
        let u = counters(false);
        let f = counters(true);
        assert_eq!(u.fused_bytes(), 0, "unfused frames have no fused traffic");
        assert!(f.fused_bytes() > 0, "fused frames credit intermediate traffic");
        assert_eq!(
            u.global_bytes() - f.global_bytes(),
            f.fused_bytes(),
            "every avoided global byte is accounted as fused"
        );
    }

    #[test]
    fn autotuned_frames_are_byte_identical_to_fixed_shapes() {
        let frame = test_frame();
        let run = |autotune: bool, fusion: bool| {
            let mut p = pipeline();
            p.stages_mut().autotune = autotune;
            p.stages_mut().fusion = fusion;
            let (outputs, t) = p.run_frame(&frame).unwrap();
            // Each launch's geometry: block count and residency.
            let shapes: Vec<_> =
                t.events.iter().map(|e| (e.blocks, e.occupancy.resident_warps)).collect();
            (outputs, p.stages().shapes.len(), shapes)
        };
        let (base, n_off, fixed) = run(false, false);
        assert_eq!(n_off, 0, "autotune off must not touch the shape cache");
        for fusion in [false, true] {
            let (tuned, n_on, shapes) = run(true, fusion);
            assert!(n_on > 0, "autotune must resolve at least one class");
            if !fusion {
                assert_eq!(shapes.len(), fixed.len(), "same launch count either way");
                assert_ne!(shapes, fixed, "autotune must re-tile at least one launch");
            }
            for (a, b) in base.iter().zip(&tuned) {
                assert_eq!(a.depth, b.depth, "level {}", a.level);
                assert_eq!(
                    a.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "level {}",
                    a.level
                );
                assert_eq!(a.hits, b.hits, "level {}", a.level);
            }
        }
    }

    #[test]
    fn pool_grows_to_the_largest_geometry_and_switches_without_allocating() {
        let (small, large) = (GrayImage::from_fn(64, 48, |x, _| (x * 3) as f32), test_frame());
        let fresh = |frame: &GrayImage| pipeline().run_frame(frame).unwrap().0;
        let (want_small, want_large) = (fresh(&small), fresh(&large));
        assert!(want_small.len() < want_large.len(), "the smaller frame has fewer levels");
        let same = |got: &[ScaleOutput], want: &[ScaleOutput]| {
            assert_eq!(got.len(), want.len());
            for (x, y) in got.iter().zip(want) {
                assert_eq!((x.width, x.height), (y.width, y.height));
                assert_eq!(x.depth, y.depth, "level {}", x.level);
                let bits =
                    |o: &ScaleOutput| o.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "level {}", x.level);
                assert_eq!(x.hits, y.hits, "level {}", x.level);
            }
        };

        // The small frame first: the large one then grows the pool once.
        let mut p = pipeline();
        same(&p.run_frame(&small).unwrap().0, &want_small);
        same(&p.run_frame(&large).unwrap().0, &want_large);
        let allocs = p.gpu.mem.alloc_count();
        let mut only_large = pipeline();
        only_large.run_frame(&large).unwrap();
        let largest = only_large.pooled_bytes();
        assert_eq!(p.pooled_bytes(), largest, "the pool holds the largest geometry's buffers");
        assert_eq!(p.gpu.mem.peak_bytes(), largest, "growth frees before it allocates");

        // Switching back and forth rebinds views and allocates nothing;
        // no level reads an element past its view.
        for _ in 0..2 {
            same(&p.run_frame(&small).unwrap().0, &want_small);
            same(&p.run_frame(&large).unwrap().0, &want_large);
        }
        assert_eq!(p.gpu.mem.alloc_count(), allocs, "a geometry switch allocates nothing");
        assert_eq!(p.gpu.mem.live_bytes(), largest);
    }

    #[test]
    fn a_level_pool_is_four_slots_of_the_level_area() {
        for (w, h) in [(1920, 1080), (640, 480), (64, 48)] {
            let area: usize =
                fd_imgproc::Pyramid::plan(w, h, 1.25, 24).iter().map(|&(lw, lh)| lw * lh).sum();
            let frame = GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 251) as f32);
            for fusion in [false, true] {
                let mut p = pipeline();
                p.stages_mut().fusion = fusion;
                p.run_frame(&frame).unwrap();
                assert_eq!(p.pooled_bytes(), 16 * area, "{w}x{h}, fusion {fusion}");
            }
        }
    }

    #[test]
    fn chunked_hit_walk_equals_the_element_walk() {
        // Hits on both sides of every chunk border, in a short last chunk,
        // nowhere, everywhere, and at random densities and lengths.
        let mut x = 0x5EED_u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let mut masks: Vec<Vec<u32>> = vec![vec![], vec![0; 200], vec![1; 200], vec![7; 1]];
        for len in [63, 64, 65, 127, 128, 129, 130, 1000] {
            let mut borders = vec![0u32; len];
            for i in (0..len).filter(|i| i % 64 == 0 || i % 64 == 63 || i + 1 == len) {
                borders[i] = 1 + i as u32;
            }
            masks.push(borders);
            let mut last_only = vec![0u32; len];
            last_only[len - 1] = u32::MAX;
            masks.push(last_only);
        }
        for _ in 0..200 {
            let (len, one_in) = (next() % 700, 1 + next() % 300);
            masks.push((0..len).map(|_| (next() % one_in == 0) as u32).collect());
        }
        for mask in masks {
            let want: Vec<usize> =
                mask.iter().enumerate().filter(|&(_, &hit)| hit != 0).map(|(i, _)| i).collect();
            let mut got = Vec::new();
            for_each_hit(&mask, |i| got.push(i));
            assert_eq!(got, want, "mask of {} words", mask.len());
        }
    }
}
