//! The compact CNN cascade model: fixed-point tensors and validation.
//!
//! Following the compact-CNN-cascade line of work (PAPERS.md), the model
//! is a three-stage sliding-window cascade over two small convolutional
//! feature extractors:
//!
//! ```text
//! luma  -> conv1 (1->4 ch, 3x3, ReLU) -> maxpool 2x2   [pooled1]
//! pooled1 -> conv2 (4->8 ch, 3x3, ReLU) -> maxpool 2x2 [pooled2]
//!
//! stage 1: per-channel energy gate over the window's pooled1 region
//! stage 2: dense spatial template over pooled2 channels 0..4
//! stage 3: dense spatial template over all 8 pooled2 channels
//! ```
//!
//! Windows slide over every pyramid level at stride [`WINDOW_STRIDE`],
//! which aligns exactly with both pooling grids (stride 2 in `pooled1`,
//! stride 1 in `pooled2`), so a window's receptive field is a contiguous
//! region of each feature map and no resampling is needed between
//! stages. A window must pass stage *k* to be evaluated by stage
//! *k + 1* — the early rejection that makes the cascade cheap on
//! background.
//!
//! # Fixed point
//!
//! All tensors are integers (`i16` conv taps, `i32` template weights,
//! `i64` thresholds) and the forward pass is pure integer arithmetic.
//! Integer addition is associative, so results are bit-identical at any
//! accumulation order — determinism across simulator host-thread counts
//! is structural, not scheduled.
//!
//! # Validation
//!
//! Like `Cascade::validate`, [`CnnModel::validate`] runs before any
//! device state exists and rejects corrupt or hand-edited models with a
//! typed [`CnnModelError`]. Two checks are semantic, not just shape:
//!
//! * every `conv1` filter must be zero-sum (DC-free): its input is raw
//!   luma, and a DC-sensitive tap set would make flat brightness look
//!   like texture, destroying the stage-1 gate;
//! * every stage-2/3 template channel must have a non-positive weight
//!   sum: a spatially uniform response (stripes, periodic texture — the
//!   classic cascade false positive) then scores at or below zero, so
//!   only *face-aligned* response patterns can pass.

use std::fmt;

use fd_imgproc::synth::SplitMix64;

/// Detection window side in pixels (shared with the Haar cascade, so
/// both backends slide over the same pyramid plans).
pub const WINDOW: usize = 24;
/// Window stride in level pixels. 4 px = stride 2 in `pooled1`, stride
/// 1 in `pooled2`.
pub const WINDOW_STRIDE: usize = 4;
/// `conv1` output channels.
pub const C1: usize = 4;
/// `conv2` output channels.
pub const C2: usize = 8;
/// Stage-2 template channels (the first `C2A` channels of `pooled2`).
pub const C2A: usize = 4;
/// Window region side in `pooled1` cells (24 px / pooling 2).
pub const REGION1: usize = WINDOW / 2;
/// Window region side in `pooled2` cells (24 px / pooling 4).
pub const REGION2: usize = WINDOW / 4;
/// Cascade depth: windows reaching depth 3 are detections.
pub const STAGES: u32 = 3;
/// Divisor mapping accumulated integer stage margins to the `f32`
/// detection scores the ROC machinery sweeps.
pub const SCORE_SCALE: f32 = 4096.0;

/// Absolute tap limit for conv filters.
pub const MAX_CONV_TAP: i16 = 64;
/// Absolute weight limit for stage templates.
pub const MAX_STAGE_WEIGHT: i32 = 64;

/// Why a model failed semantic validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CnnModelError {
    /// The window kernels are specialized for [`WINDOW`]-px windows.
    BadWindow { window: u32 },
    /// A tensor has the wrong number of elements.
    TensorLen { tensor: &'static str, expected: usize, got: usize },
    /// A conv tap or template weight exceeds its fixed-point range.
    WeightOutOfRange { tensor: &'static str, index: usize },
    /// A `conv1` filter is not zero-sum (module docs: DC-free contract).
    Conv1NotZeroSum { filter: usize, sum: i32 },
    /// The stage-1 gate needs non-negative weights, at least one positive
    /// (it is an energy gate; a negative or all-zero gate is
    /// unsatisfiable or vacuous).
    BadStageGate,
    /// A stage-2/3 template channel has a positive weight sum (module
    /// docs: uniform responses must not score positive).
    UniformResponsePasses { stage: u32, channel: usize, sum: i64 },
    /// A stage template is identically zero.
    AllZeroStage { stage: u32 },
}

impl fmt::Display for CnnModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadWindow { window } => {
                write!(f, "the CNN kernels are specialized for {WINDOW}-px windows, got {window}")
            }
            Self::TensorLen { tensor, expected, got } => {
                write!(f, "tensor `{tensor}` has {got} elements, expected {expected}")
            }
            Self::WeightOutOfRange { tensor, index } => {
                write!(f, "tensor `{tensor}` element {index} outside the fixed-point range")
            }
            Self::Conv1NotZeroSum { filter, sum } => {
                write!(
                    f,
                    "conv1 filter {filter} sums to {sum}; luma-facing filters must be DC-free"
                )
            }
            Self::BadStageGate => {
                write!(f, "stage-1 gate weights must be non-negative with at least one positive")
            }
            Self::UniformResponsePasses { stage, channel, sum } => write!(
                f,
                "stage {stage} template channel {channel} sums to {sum} > 0: \
                 a spatially uniform response would pass"
            ),
            Self::AllZeroStage { stage } => write!(f, "stage {stage} template is identically zero"),
        }
    }
}

impl std::error::Error for CnnModelError {}

/// The compact CNN cascade (module docs). All tensors row-major; conv
/// filters are `[out_ch][in_ch][3*3]` flattened, stage templates
/// `[channel][REGION2*REGION2]` flattened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnnModel {
    pub name: String,
    pub window: u32,
    /// `C1 * 1 * 9` taps.
    pub conv1: Vec<i16>,
    /// `C1` biases.
    pub conv1_bias: Vec<i32>,
    /// `C2 * C1 * 9` taps.
    pub conv2: Vec<i16>,
    /// `C2` biases.
    pub conv2_bias: Vec<i32>,
    /// `C1` per-channel gate weights over the window's `pooled1` region.
    pub stage1: Vec<i32>,
    pub stage1_threshold: i64,
    /// `C2A * REGION2 * REGION2` dense template over `pooled2`.
    pub stage2: Vec<i32>,
    pub stage2_threshold: i64,
    /// `C2 * REGION2 * REGION2` dense template over `pooled2`.
    pub stage3: Vec<i32>,
    pub stage3_threshold: i64,
}

impl CnnModel {
    /// Semantic validation (module docs). Called by the detector before
    /// any device state exists.
    pub fn validate(&self) -> Result<(), CnnModelError> {
        if self.window as usize != WINDOW {
            return Err(CnnModelError::BadWindow { window: self.window });
        }
        let shapes: [(&'static str, usize, usize); 7] = [
            ("conv1", self.conv1.len(), C1 * 9),
            ("conv1_bias", self.conv1_bias.len(), C1),
            ("conv2", self.conv2.len(), C2 * C1 * 9),
            ("conv2_bias", self.conv2_bias.len(), C2),
            ("stage1", self.stage1.len(), C1),
            ("stage2", self.stage2.len(), C2A * REGION2 * REGION2),
            ("stage3", self.stage3.len(), C2 * REGION2 * REGION2),
        ];
        for (tensor, got, expected) in shapes {
            if got != expected {
                return Err(CnnModelError::TensorLen { tensor, expected, got });
            }
        }
        for (tensor, taps) in [("conv1", &self.conv1), ("conv2", &self.conv2)] {
            if let Some(i) = taps.iter().position(|&w| w.abs() > MAX_CONV_TAP) {
                return Err(CnnModelError::WeightOutOfRange { tensor, index: i });
            }
        }
        for (tensor, ws) in
            [("stage1", &self.stage1), ("stage2", &self.stage2), ("stage3", &self.stage3)]
        {
            if let Some(i) = ws.iter().position(|&w| w.abs() > MAX_STAGE_WEIGHT) {
                return Err(CnnModelError::WeightOutOfRange { tensor, index: i });
            }
        }
        for filter in 0..C1 {
            let sum: i32 =
                self.conv1[filter * 9..(filter + 1) * 9].iter().map(|&w| i32::from(w)).sum();
            if sum != 0 {
                return Err(CnnModelError::Conv1NotZeroSum { filter, sum });
            }
        }
        if self.stage1.iter().any(|&w| w < 0) || self.stage1.iter().all(|&w| w == 0) {
            return Err(CnnModelError::BadStageGate);
        }
        let cells = REGION2 * REGION2;
        for (stage, template, channels) in [(2u32, &self.stage2, C2A), (3, &self.stage3, C2)] {
            if template.iter().all(|&w| w == 0) {
                return Err(CnnModelError::AllZeroStage { stage });
            }
            for channel in 0..channels {
                let sum: i64 = template[channel * cells..(channel + 1) * cells]
                    .iter()
                    .map(|&w| i64::from(w))
                    .sum();
                if sum > 0 {
                    return Err(CnnModelError::UniformResponsePasses { stage, channel, sum });
                }
            }
        }
        Ok(())
    }

    /// Deterministic seeded model: a hand-designed face template whose
    /// taps are perturbed by seed-drawn zero-sum tap swaps (+1 at one
    /// position, -1 at another, within the same filter or template
    /// channel), so every seed gives a distinct but valid model — the
    /// DC-free and uniform-rejection invariants survive by construction.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC33D_FACE_u64);
        let mut model = Self::base(seed);

        // Zero-sum tap swaps within each conv filter.
        for f in 0..C1 {
            for _ in 0..2 {
                swap_perturb_i16(&mut model.conv1[f * 9..(f + 1) * 9], &mut rng);
            }
        }
        for f in 0..C2 {
            let taps = &mut model.conv2[f * C1 * 9..(f + 1) * C1 * 9];
            for _ in 0..3 {
                swap_perturb_i16(taps, &mut rng);
            }
        }
        // Zero-sum cell swaps within each template channel.
        let cells = REGION2 * REGION2;
        for c in 0..C2A {
            swap_perturb_i32(&mut model.stage2[c * cells..(c + 1) * cells], &mut rng);
        }
        for c in 0..C2 {
            swap_perturb_i32(&mut model.stage3[c * cells..(c + 1) * cells], &mut rng);
        }
        debug_assert_eq!(model.validate(), Ok(()));
        model
    }

    /// The unperturbed hand-designed template (see `seeded`).
    fn base(seed: u64) -> Self {
        // conv1: DC-free 3x3 feature taps over raw luma.
        //   ch0 "edge_h"  — horizontal edges (vertical gradient),
        //   ch1 "edge_v"  — vertical edges,
        //   ch2 "bright"  — bright center-surround blobs,
        //   ch3 "dark"    — dark center-surround blobs (eye sockets).
        #[rustfmt::skip]
        let conv1: Vec<i16> = vec![
            -1, -2, -1,   0, 0, 0,   1, 2, 1,     // edge_h (Sobel-y)
            -1, 0, 1,   -2, 0, 2,   -1, 0, 1,     // edge_v (Sobel-x)
            -1, -1, -1,  -1, 8, -1,  -1, -1, -1,  // bright blob
             1, 1, 1,    1, -8, 1,    1, 1, 1,    // dark blob
        ];

        // conv2: 8 channels over (edge_h, edge_v, bright, dark). Inputs
        // are ReLU outputs (zero on flat luma), so these need not be
        // DC-free. g* channel roles:
        //   g0 eye      — smoothed dark-blob response,
        //   g1 hedge    — smoothed horizontal-edge response,
        //   g2 vedge    — smoothed vertical-edge response,
        //   g3 bright   — smoothed bright-blob response,
        //   g4 energy   — total edge energy,
        //   g5 hdom     — horizontally dominated texture,
        //   g6 vdom     — vertically dominated texture,
        //   g7 contrast — total center-surround contrast.
        let smooth: [i16; 9] = [1, 2, 1, 2, 4, 2, 1, 2, 1];
        let center = |w: i16| -> [i16; 9] { [0, 0, 0, 0, w, 0, 0, 0, 0] };
        let zero = [0i16; 9];
        let cat = |per_in: [[i16; 9]; C1]| -> Vec<i16> { per_in.concat().to_vec() };
        let mut conv2 = Vec::with_capacity(C2 * C1 * 9);
        conv2.extend(cat([zero, zero, zero, smooth])); // g0 eye
        conv2.extend(cat([smooth, zero, zero, zero])); // g1 hedge
        conv2.extend(cat([zero, smooth, zero, zero])); // g2 vedge
        conv2.extend(cat([zero, zero, smooth, zero])); // g3 bright
        conv2.extend(cat([center(2), center(2), zero, zero])); // g4 energy
        conv2.extend(cat([center(2), center(-1), zero, zero])); // g5 hdom
        conv2.extend(cat([center(-1), center(2), zero, zero])); // g6 vdom
        conv2.extend(cat([zero, zero, center(1), center(1)])); // g7 contrast

        // Stage templates are 6x6 cell grids over the 24-px window
        // (4 px per cell). Landmarks in cell coordinates: eyes (1,2) and
        // (4,2), brows row 1, nose/cheeks row 3, mouth (2..=3, 4).
        let mut stage2 = vec![0i32; C2A * REGION2 * REGION2];
        let mut stage3 = vec![0i32; C2 * REGION2 * REGION2];
        {
            let put = |t: &mut [i32], ch: usize, cells: &[(usize, usize)], w: i32| {
                for &(cx, cy) in cells {
                    t[ch * REGION2 * REGION2 + cy * REGION2 + cx] += w;
                }
            };
            // g0 eye: dark at the eyes and mouth, not at forehead/cheeks.
            for t in [&mut stage2[..], &mut stage3[..]] {
                put(t, 0, &[(1, 2), (4, 2)], 4);
                put(t, 0, &[(2, 4), (3, 4)], 2);
                put(t, 0, &[(2, 1), (3, 1), (1, 3), (4, 3)], -2);
                put(t, 0, &[(2, 2), (3, 2)], -1);
                // g1 hedge: brow/eye and mouth rows carry horizontal
                // edges; mid-face rows are smooth.
                put(t, 1, &[(1, 1), (2, 1), (3, 1), (4, 1)], 2);
                put(t, 1, &[(1, 4), (2, 4), (3, 4), (4, 4)], 2);
                put(t, 1, &[(1, 3), (2, 3), (3, 3), (4, 3)], -2);
                put(t, 1, &[(2, 2), (3, 2)], -2);
                // g2 vedge: head-oval flanks and the nose ridge.
                put(t, 2, &[(0, 1), (0, 2), (0, 3), (0, 4)], 2);
                put(t, 2, &[(5, 1), (5, 2), (5, 3), (5, 4)], 2);
                put(t, 2, &[(2, 2), (3, 2), (2, 3), (3, 3)], 1);
                put(t, 2, &[(1, 1), (4, 1), (1, 4), (4, 4)], -2);
                put(t, 2, &[(2, 1), (3, 1), (2, 4), (3, 4)], -2);
                put(t, 2, &[(1, 2), (4, 2)], -1);
                // g3 bright: nose tip and cheek highlights, dark eyes.
                put(t, 3, &[(2, 3), (3, 3), (1, 3), (4, 3)], 1);
                put(t, 3, &[(1, 2), (4, 2)], -1);
                put(t, 3, &[(2, 0), (3, 0)], -1);
            }
            // Stage-3 extras over g4..g7.
            let t = &mut stage3[..];
            // g4 energy: edges live at the brows/eyes and mouth.
            put(t, 4, &[(1, 2), (4, 2), (1, 1), (4, 1), (2, 4), (3, 4)], 1);
            put(t, 4, &[(2, 1), (3, 1), (1, 3), (4, 3)], -1);
            put(t, 4, &[(0, 0), (5, 0)], -1);
            // g5 hdom: brow and mouth rows, not the flanks.
            put(t, 5, &[(1, 1), (4, 1), (1, 4), (2, 4), (3, 4), (4, 4)], 1);
            put(t, 5, &[(0, 2), (0, 3), (5, 2), (5, 3)], -1);
            put(t, 5, &[(0, 0), (5, 0)], -1);
            // g6 vdom: flanks, not the mouth row.
            put(t, 6, &[(0, 2), (0, 3), (5, 2), (5, 3)], 1);
            put(t, 6, &[(1, 4), (2, 4), (3, 4), (4, 4)], -1);
            // g7 contrast: eyes and mouth, not the forehead.
            put(t, 7, &[(1, 2), (4, 2), (2, 4), (3, 4)], 1);
            put(t, 7, &[(2, 1), (3, 1), (0, 0), (5, 0)], -1);
        }
        // Force each template channel's weight sum non-positive by
        // draining any surplus into the corner cells (surround area).
        for (template, channels) in [(&mut stage2, C2A), (&mut stage3, C2)] {
            balance_template(template, channels);
        }

        Self {
            name: format!("seeded-cnn-{seed}"),
            window: WINDOW as u32,
            conv1,
            conv1_bias: vec![0; C1],
            conv2,
            conv2_bias: vec![0; C2],
            stage1: vec![2, 2, 1, 3],
            // Calibrated by `calibrate_stage_thresholds` (300 synthetic
            // faces at 24-30 px vs. 12k background windows across all
            // texture families): 94.7% of background windows die before
            // stage 3, 97% of best-aligned face windows reach depth 3.
            stage1_threshold: 52_000,
            stage2,
            stage2_threshold: 9_000,
            stage3,
            stage3_threshold: 9_000,
        }
    }

    /// Encode the model as the `u32` words staged in device constant
    /// memory: header, packed `i16` conv taps (two per word), then the
    /// `i32`/`i64` stage tensors. The kernels meter constant traffic
    /// against this region.
    pub fn encode(&self) -> Vec<u32> {
        let mut words = vec![
            0xC33D_0001u32, // magic + version
            self.window,
            (C1 as u32) << 16 | C2 as u32,
            STAGES,
        ];
        let pack_i16 = |words: &mut Vec<u32>, taps: &[i16]| {
            for pair in taps.chunks(2) {
                let lo = pair[0] as u16 as u32;
                let hi = pair.get(1).map_or(0, |&w| w as u16 as u32);
                words.push(hi << 16 | lo);
            }
        };
        pack_i16(&mut words, &self.conv1);
        words.extend(self.conv1_bias.iter().map(|&b| b as u32));
        pack_i16(&mut words, &self.conv2);
        words.extend(self.conv2_bias.iter().map(|&b| b as u32));
        for (template, threshold) in [
            (&self.stage1, self.stage1_threshold),
            (&self.stage2, self.stage2_threshold),
            (&self.stage3, self.stage3_threshold),
        ] {
            words.extend(template.iter().map(|&w| w as u32));
            words.push(threshold as u64 as u32);
            words.push((threshold as u64 >> 32) as u32);
        }
        words
    }

    /// Pure host reference of the full forward pass over one scaled
    /// pyramid level (`w x h` luma in row-major `f32`). Returns the
    /// window grid `(nx, ny)` with per-window cascade depth and
    /// accumulated integer margin — the oracle the GPU kernels are
    /// verified against, window for window.
    pub fn eval_level_host(&self, luma: &[f32], w: usize, h: usize) -> HostLevelEval {
        assert!(w >= WINDOW && h >= WINDOW);
        let q: Vec<i32> = luma.iter().map(|&v| v.round() as i32).collect();
        let conv1 = host_conv(&q, w, h, 1, C1, &self.conv1, &self.conv1_bias);
        let (pooled1, p1w, p1h) = host_pool(&conv1, w, h, C1);
        let conv2 = host_conv(&pooled1, p1w, p1h, C1, C2, &self.conv2, &self.conv2_bias);
        let (pooled2, p2w, p2h) = host_pool(&conv2, p1w, p1h, C2);

        let nx = (w - WINDOW) / WINDOW_STRIDE + 1;
        let ny = (h - WINDOW) / WINDOW_STRIDE + 1;
        let mut depth = vec![0u32; nx * ny];
        let mut score = vec![0i32; nx * ny];
        for gy in 0..ny {
            for gx in 0..nx {
                let s1 = stage1_score(&self.stage1, &pooled1, p1w, gx * 2, gy * 2);
                let i = gy * nx + gx;
                if s1 < self.stage1_threshold {
                    score[i] = sat(s1 - self.stage1_threshold);
                    continue;
                }
                depth[i] = 1;
                let mut acc = s1 - self.stage1_threshold;
                let s2 = template_score(&self.stage2, C2A, &pooled2, p2w, p2h, gx, gy);
                if s2 < self.stage2_threshold {
                    score[i] = sat(acc);
                    continue;
                }
                depth[i] = 2;
                acc += s2 - self.stage2_threshold;
                let s3 = template_score(&self.stage3, C2, &pooled2, p2w, p2h, gx, gy);
                if s3 >= self.stage3_threshold {
                    depth[i] = 3;
                    acc += s3 - self.stage3_threshold;
                }
                score[i] = sat(acc);
            }
        }
        HostLevelEval { nx, ny, depth, score }
    }
}

/// Result of [`CnnModel::eval_level_host`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostLevelEval {
    pub nx: usize,
    pub ny: usize,
    pub depth: Vec<u32>,
    pub score: Vec<i32>,
}

/// Saturating `i64 -> i32` (stage margins fit comfortably; saturation is
/// a guard, not a code path real models hit).
pub fn sat(v: i64) -> i32 {
    v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
}

/// Stage-1 gate: per-channel weighted energy over the window's
/// [`REGION1`]-sided `pooled1` region anchored at `(x0, y0)`.
pub fn stage1_score(weights: &[i32], pooled1: &[i32], p1w: usize, x0: usize, y0: usize) -> i64 {
    let plane = pooled1.len() / C1;
    let mut acc = 0i64;
    for (c, &wc) in weights.iter().enumerate() {
        let mut sum = 0i64;
        for dy in 0..REGION1 {
            let row = (y0 + dy) * p1w + x0;
            for dx in 0..REGION1 {
                sum += i64::from(pooled1[c * plane + row + dx]);
            }
        }
        acc += i64::from(wc) * sum;
    }
    acc
}

/// Dense template score over the window's [`REGION2`]-sided `pooled2`
/// region anchored at `(gx, gy)` (stride 1 in `pooled2`).
pub fn template_score(
    template: &[i32],
    channels: usize,
    pooled2: &[i32],
    p2w: usize,
    p2h: usize,
    gx: usize,
    gy: usize,
) -> i64 {
    let plane = p2w * p2h;
    let cells = REGION2 * REGION2;
    let mut acc = 0i64;
    for c in 0..channels {
        for dy in 0..REGION2 {
            let row = (gy + dy) * p2w + gx;
            for dx in 0..REGION2 {
                acc += i64::from(template[c * cells + dy * REGION2 + dx])
                    * i64::from(pooled2[c * plane + row + dx]);
            }
        }
    }
    acc
}

/// Host conv + ReLU with clamped borders over `in_ch` planes.
fn host_conv(
    src: &[i32],
    w: usize,
    h: usize,
    in_ch: usize,
    out_ch: usize,
    taps: &[i16],
    bias: &[i32],
) -> Vec<i32> {
    let plane = w * h;
    let mut out = vec![0i32; out_ch * plane];
    for oc in 0..out_ch {
        for y in 0..h {
            for x in 0..w {
                let mut acc = i64::from(bias[oc]);
                for ic in 0..in_ch {
                    for (t, (dy, dx)) in TAPS3X3.iter().enumerate() {
                        let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                        let sx = (x as isize + dx).clamp(0, w as isize - 1) as usize;
                        acc += i64::from(taps[(oc * in_ch + ic) * 9 + t])
                            * i64::from(src[ic * plane + sy * w + sx]);
                    }
                }
                out[oc * plane + y * w + x] = sat(acc.max(0));
            }
        }
    }
    out
}

/// Host 2x2 stride-2 max pool over `ch` planes.
fn host_pool(src: &[i32], w: usize, h: usize, ch: usize) -> (Vec<i32>, usize, usize) {
    let (dw, dh) = (w / 2, h / 2);
    let plane = w * h;
    let dplane = dw * dh;
    let mut out = vec![0i32; ch * dplane];
    for c in 0..ch {
        for y in 0..dh {
            for x in 0..dw {
                let i = c * plane + 2 * y * w + 2 * x;
                out[c * dplane + y * dw + x] =
                    src[i].max(src[i + 1]).max(src[i + w]).max(src[i + w + 1]);
            }
        }
    }
    (out, dw, dh)
}

/// 3x3 tap offsets in `(dy, dx)`, row-major — shared by the host
/// reference and the device kernel so tap order matches exactly.
pub const TAPS3X3: [(isize, isize); 9] =
    [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)];

fn swap_perturb_i16(taps: &mut [i16], rng: &mut SplitMix64) {
    let a = (rng.next_u64() % taps.len() as u64) as usize;
    let b = (rng.next_u64() % taps.len() as u64) as usize;
    if a != b && taps[a] < MAX_CONV_TAP && taps[b] > -MAX_CONV_TAP {
        taps[a] += 1;
        taps[b] -= 1;
    }
}

fn swap_perturb_i32(ws: &mut [i32], rng: &mut SplitMix64) {
    let a = (rng.next_u64() % ws.len() as u64) as usize;
    let b = (rng.next_u64() % ws.len() as u64) as usize;
    if a != b && ws[a] < MAX_STAGE_WEIGHT && ws[b] > -MAX_STAGE_WEIGHT {
        ws[a] += 1;
        ws[b] -= 1;
    }
}

/// Drain any positive per-channel weight surplus into the corner cells.
fn balance_template(template: &mut [i32], channels: usize) {
    let cells = REGION2 * REGION2;
    let corners = [0, REGION2 - 1, (REGION2 - 1) * REGION2, REGION2 * REGION2 - 1];
    for c in 0..channels {
        let ws = &mut template[c * cells..(c + 1) * cells];
        let mut sum: i64 = ws.iter().map(|&w| i64::from(w)).sum();
        let mut k = 0;
        while sum > 0 {
            ws[corners[k % corners.len()]] -= 1;
            sum -= 1;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_models_validate_and_differ_by_seed() {
        let a = CnnModel::seeded(7);
        let b = CnnModel::seeded(7);
        let c = CnnModel::seeded(8);
        assert_eq!(a, b, "same seed, same model");
        assert_ne!(a, c, "different seed, different taps");
        a.validate().unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_semantic_corruption() {
        let mut m = CnnModel::seeded(3);
        m.window = 20;
        assert!(matches!(m.validate(), Err(CnnModelError::BadWindow { window: 20 })));

        let mut m = CnnModel::seeded(3);
        m.conv1[0] += 1; // breaks the zero-sum contract
        assert!(matches!(m.validate(), Err(CnnModelError::Conv1NotZeroSum { filter: 0, .. })));

        let mut m = CnnModel::seeded(3);
        m.stage2[0] = MAX_STAGE_WEIGHT + 1;
        assert!(matches!(
            m.validate(),
            Err(CnnModelError::WeightOutOfRange { tensor: "stage2", index: 0 })
        ));

        let mut m = CnnModel::seeded(3);
        let cells = REGION2 * REGION2;
        for w in &mut m.stage3[..cells] {
            *w = 1; // uniform positive channel: stripes would pass
        }
        assert!(matches!(
            m.validate(),
            Err(CnnModelError::UniformResponsePasses { stage: 3, channel: 0, .. })
        ));

        let mut m = CnnModel::seeded(3);
        m.stage1 = vec![0; C1];
        assert!(matches!(m.validate(), Err(CnnModelError::BadStageGate)));

        let mut m = CnnModel::seeded(3);
        m.stage1.pop();
        assert!(matches!(m.validate(), Err(CnnModelError::TensorLen { tensor: "stage1", .. })));
    }

    #[test]
    fn encode_is_stable_and_sized() {
        let m = CnnModel::seeded(2);
        let words = m.encode();
        assert_eq!(words, m.encode());
        // header + conv1 (18) + bias (4) + conv2 (144) + bias (8)
        // + stage1 (4+2) + stage2 (144+2) + stage3 (288+2)
        assert_eq!(words.len(), 4 + 18 + 4 + 144 + 8 + 6 + 146 + 290);
        assert!(words.len() * 4 < 64 * 1024, "fits constant memory");
    }

    #[test]
    fn host_eval_rejects_flat_luma_at_stage_one() {
        let m = CnnModel::seeded(0);
        let (w, h) = (32, 32);
        let flat = vec![128.0f32; w * h];
        let eval = m.eval_level_host(&flat, w, h);
        assert_eq!(eval.nx, 3);
        assert_eq!(eval.ny, 3);
        assert!(eval.depth.iter().all(|&d| d == 0), "flat luma must die at the gate");
        assert!(eval.score.iter().all(|&s| s < 0));
    }

    /// Calibration harness behind `--ignored`: prints raw per-stage score
    /// distributions for synthetic faces vs. background windows, used to
    /// pick the baked thresholds in [`CnnModel::base`]. Re-run after any
    /// change to the base filters or templates.
    #[test]
    #[ignore = "prints stage-score distributions for threshold calibration"]
    fn calibrate_stage_thresholds() {
        use fd_imgproc::synth::{render_background, BackgroundKind, FaceParams};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let model = CnnModel::seeded(0);
        let raw_scores = |luma: &[f32], w: usize, h: usize| -> Vec<[i64; 3]> {
            let q: Vec<i32> = luma.iter().map(|&v| v.round() as i32).collect();
            let conv1 = host_conv(&q, w, h, 1, C1, &model.conv1, &model.conv1_bias);
            let (pooled1, p1w, p1h) = host_pool(&conv1, w, h, C1);
            let conv2 = host_conv(&pooled1, p1w, p1h, C1, C2, &model.conv2, &model.conv2_bias);
            let (pooled2, p2w, p2h) = host_pool(&conv2, p1w, p1h, C2);
            let nx = (w - WINDOW) / WINDOW_STRIDE + 1;
            let ny = (h - WINDOW) / WINDOW_STRIDE + 1;
            let mut out = Vec::with_capacity(nx * ny);
            for gy in 0..ny {
                for gx in 0..nx {
                    out.push([
                        stage1_score(&model.stage1, &pooled1, p1w, gx * 2, gy * 2),
                        template_score(&model.stage2, C2A, &pooled2, p2w, p2h, gx, gy),
                        template_score(&model.stage3, C2, &pooled2, p2w, p2h, gx, gy),
                    ]);
                }
            }
            out
        };

        // Positives: best-aligned window per rendered face, over the
        // pyramid's size-quantization band (the detector sees each face
        // at 24..30 px after its nearest pyramid level).
        let mut face: Vec<Vec<i64>> = vec![Vec::new(); 3];
        let mut rng = StdRng::seed_from_u64(1234);
        for i in 0..300u64 {
            let mut frng = StdRng::seed_from_u64(i);
            let params = FaceParams::sample(&mut frng);
            let size = 24 + (i % 7) as usize;
            let side = 36usize;
            let mut img = render_background(&mut rng, side, side, BackgroundKind::ValueNoise);
            let off = ((side - size) / 2) as i32;
            img.blit(&params.render(size), off, off);
            let windows = raw_scores(img.as_slice(), side, side);
            let best = windows.iter().max_by_key(|s| s[0] + s[1] + s[2]).unwrap();
            for k in 0..3 {
                face[k].push(best[k]);
            }
        }

        // Negatives: every window of every background family.
        let kinds = [
            BackgroundKind::ValueNoise,
            BackgroundKind::Gradient,
            BackgroundKind::Stripes,
            BackgroundKind::Blocks,
            BackgroundKind::BlobField,
        ];
        let mut bg: Vec<[i64; 3]> = Vec::new();
        for kind in kinds {
            for _ in 0..20 {
                let img = render_background(&mut rng, 64, 64, kind);
                bg.extend(raw_scores(img.as_slice(), 64, 64));
            }
        }

        let pct = |sorted: &[i64], p: f64| -> i64 {
            sorted[((sorted.len() - 1) as f64 * p).round() as usize]
        };
        for k in 0..3 {
            let mut f = face[k].clone();
            f.sort_unstable();
            let mut b: Vec<i64> = bg.iter().map(|s| s[k]).collect();
            b.sort_unstable();
            println!(
                "stage{}: face min {} p02 {} p10 {} p50 {} | bg p50 {} p90 {} p95 {} p99 {} max {}",
                k + 1,
                f[0],
                pct(&f, 0.02),
                pct(&f, 0.10),
                pct(&f, 0.50),
                pct(&b, 0.50),
                pct(&b, 0.90),
                pct(&b, 0.95),
                pct(&b, 0.99),
                b[b.len() - 1],
            );
        }

        // Candidate sweep: joint cascade behavior per threshold triple.
        for t1 in [48_000i64, 52_000, 56_000, 60_000, 64_000] {
            for t2 in [3_000i64, 6_000, 9_000, 12_000] {
                for t3 in [3_000i64, 6_000, 9_000] {
                    let total = bg.len();
                    let past2 = bg.iter().filter(|s| s[0] >= t1 && s[1] >= t2).count();
                    let past3 =
                        bg.iter().filter(|s| s[0] >= t1 && s[1] >= t2 && s[2] >= t3).count();
                    let faces_pass = face[0]
                        .iter()
                        .zip(&face[1])
                        .zip(&face[2])
                        .filter(|((&a, &b2), &c)| a >= t1 && b2 >= t2 && c >= t3)
                        .count();
                    println!(
                        "cand ({t1}, {t2}, {t3}): pre-final rej {:.2}% bg-final {past3} \
                         faces {faces_pass}/{}",
                        100.0 * (1.0 - past2 as f64 / total as f64),
                        face[0].len(),
                    );
                }
            }
        }

        // Joint cascade rejection at the baked thresholds.
        let (t1, t2, t3) = (model.stage1_threshold, model.stage2_threshold, model.stage3_threshold);
        let total = bg.len();
        let past1 = bg.iter().filter(|s| s[0] >= t1).count();
        let past2 = bg.iter().filter(|s| s[0] >= t1 && s[1] >= t2).count();
        let past3 = bg.iter().filter(|s| s[0] >= t1 && s[1] >= t2 && s[2] >= t3).count();
        let faces_pass = face[0]
            .iter()
            .zip(&face[1])
            .zip(&face[2])
            .filter(|((&a, &b2), &c)| a >= t1 && b2 >= t2 && c >= t3)
            .count();
        println!(
            "baked thresholds ({t1}, {t2}, {t3}): bg {total} -> past1 {past1} past2 {past2} \
             past3 {past3} (pre-final rejection {:.1}%) | faces pass {faces_pass}/{}",
            100.0 * (1.0 - past2 as f64 / total as f64),
            face[0].len(),
        );
    }
}
