//! Detection grouping (paper §VI-B).
//!
//! "For each face in an image, the proposed face detection pipeline
//! results in a large number of detection windows at slightly different
//! positions and scales."
//!
//! Grouping follows the paper: two detections overlap when
//! `S_eyes(d_i, d_j) < 0.5` (Eq. 6, the eye-distance metric); an iterative
//! process merges the most-overlapping pairs by averaging until no
//! overlapping pair remains. Groups below a neighbour threshold are
//! discarded as unstable single-window firings.

use fd_imgproc::{PointF, Rect};

/// Normalized eye positions within a detection window. The detector and
/// the synthetic ground truth share this convention
/// (`fd_imgproc::synth::EYE_LEFT` / `EYE_RIGHT`).
pub const EYE_LEFT_UV: (f64, f64) = fd_imgproc::synth::EYE_LEFT;
/// See [`EYE_LEFT_UV`].
pub const EYE_RIGHT_UV: (f64, f64) = fd_imgproc::synth::EYE_RIGHT;

/// One raw detection window mapped back to frame coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    pub rect: Rect,
    /// Accumulated cascade margin (confidence).
    pub score: f32,
    /// Pyramid level the window was found at.
    pub scale: usize,
}

impl Detection {
    /// Predicted eye centers from the window geometry.
    pub fn eyes(&self) -> (PointF, PointF) {
        let map = |(u, v): (f64, f64)| PointF {
            x: self.rect.x as f64 + u * self.rect.w as f64,
            y: self.rect.y as f64 + v * self.rect.h as f64,
        };
        (map(EYE_LEFT_UV), map(EYE_RIGHT_UV))
    }

    /// Inter-eye pixel distance implied by the window size.
    pub fn eye_distance(&self) -> f64 {
        (EYE_RIGHT_UV.0 - EYE_LEFT_UV.0) * self.rect.w as f64
    }
}

/// The paper's Eq. 6: normalized sum of eye displacement distances.
/// Smaller is a better match; `< 0.5` counts as overlapping.
pub fn s_eyes(a: &Detection, b: &Detection) -> f64 {
    let (al, ar) = a.eyes();
    let (bl, br) = b.eyes();
    let dle = al.distance(&bl);
    let dre = ar.distance(&br);
    let denom = a.eye_distance().min(b.eye_distance());
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    (dle + dre) / denom
}

/// Eq. 6 evaluated between a detection and annotated eye positions.
pub fn s_eyes_to_truth(
    d: &Detection,
    truth_eyes: (PointF, PointF),
    truth_eye_distance: f64,
) -> f64 {
    let (dl, dr) = d.eyes();
    let dle = dl.distance(&truth_eyes.0);
    let dre = dr.distance(&truth_eyes.1);
    let denom = d.eye_distance().min(truth_eye_distance);
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    (dle + dre) / denom
}

/// A merged group of overlapping detections.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedDetection {
    /// Averaged window.
    pub rect: Rect,
    /// Best (maximum) member score.
    pub score: f32,
    /// Number of raw windows merged into this group.
    pub neighbors: usize,
}

impl GroupedDetection {
    /// View as a [`Detection`] for metric computations.
    pub fn as_detection(&self) -> Detection {
        Detection { rect: self.rect, score: self.score, scale: 0 }
    }
}

#[derive(Debug, Clone)]
struct Cluster {
    // Running sums for averaging.
    sx: f64,
    sy: f64,
    sw: f64,
    sh: f64,
    n: usize,
    score: f32,
}

impl Cluster {
    fn from_detection(d: &Detection) -> Self {
        Self {
            sx: d.rect.x as f64,
            sy: d.rect.y as f64,
            sw: d.rect.w as f64,
            sh: d.rect.h as f64,
            n: 1,
            score: d.score,
        }
    }

    fn mean(&self) -> Detection {
        Detection {
            rect: Rect::new(
                (self.sx / self.n as f64).round() as i32,
                (self.sy / self.n as f64).round() as i32,
                (self.sw / self.n as f64).round().max(1.0) as u32,
                (self.sh / self.n as f64).round().max(1.0) as u32,
            ),
            score: self.score,
            scale: 0,
        }
    }

    fn absorb(&mut self, other: &Cluster) {
        self.sx += other.sx;
        self.sy += other.sy;
        self.sw += other.sw;
        self.sh += other.sh;
        self.n += other.n;
        self.score = self.score.max(other.score);
    }
}

/// `S_eyes` of every pair of clusters, stored once per unordered pair.
struct PairTable {
    n: usize,
    s: Vec<f64>,
}

impl PairTable {
    fn idx(&self, a: usize, b: usize) -> usize {
        let (a, b) = (a.min(b), a.max(b));
        a * (2 * self.n - a - 1) / 2 + b - a - 1
    }

    fn get(&self, a: usize, b: usize) -> f64 {
        self.s[self.idx(a, b)]
    }

    fn set(&mut self, a: usize, b: usize, v: f64) {
        let i = self.idx(a, b);
        self.s[i] = v;
    }
}

/// The exact phase: merge the most-overlapping pair of clusters — the
/// smallest `S_eyes` below `threshold`, the first in `(i, j)` order among
/// equals — until no pair overlaps. Each pair's `S_eyes` is computed once,
/// and again only after a merge changes one of its clusters (quadratic
/// overall); each row keeps its best partner to the right, so picking a
/// pair is linear and a merge rescans only the rows whose best partner it
/// changed. The merges are those of the full rescan, in the same order.
fn merge_exact(clusters: &mut Vec<Cluster>, threshold: f64) {
    let mut means: Vec<Detection> = clusters.iter().map(Cluster::mean).collect();
    let mut n = clusters.len();
    let mut pairs = PairTable { n, s: vec![0.0; n * n.saturating_sub(1) / 2] };
    for a in 0..n {
        for b in a + 1..n {
            pairs.set(a, b, s_eyes(&means[a], &means[b]));
        }
    }
    let row_best = |pairs: &PairTable, k: usize, n: usize| {
        let mut best: Option<(usize, f64)> = None;
        for c in k + 1..n {
            let s = pairs.get(k, c);
            if s < threshold && best.is_none_or(|(_, bs)| s < bs) {
                best = Some((c, s));
            }
        }
        best
    };
    let mut best: Vec<Option<(usize, f64)>> = (0..n).map(|k| row_best(&pairs, k, n)).collect();
    loop {
        let mut pick: Option<(usize, usize, f64)> = None;
        for (k, row) in best[..n].iter().enumerate() {
            if let Some((c, s)) = *row {
                if pick.is_none_or(|(_, _, ps)| s < ps) {
                    pick = Some((k, c, s));
                }
            }
        }
        let Some((i, j, _)) = pick else { break };
        let other = clusters.swap_remove(j);
        clusters[i].absorb(&other);
        means.swap_remove(j);
        means[i] = clusters[i].mean();
        let last = n - 1;
        // The last cluster moved to `j`: its pairs move with it.
        if j != last {
            for c in (0..last).filter(|&c| c != j) {
                pairs.set(j, c, pairs.get(last, c));
            }
        }
        n = last;
        for c in (0..n).filter(|&c| c != i) {
            let (a, b) = (i.min(c), i.max(c));
            pairs.set(a, b, s_eyes(&means[a], &means[b]));
        }
        // A row whose best partner changed or moved is rescanned; any
        // other row only has new values in columns `i` and `j`.
        for (k, row) in best[..n].iter_mut().enumerate() {
            let moved = |c: usize| c == i || c == j || c == last;
            if k == i || k == j || row.is_some_and(|(c, _)| moved(c)) {
                *row = row_best(&pairs, k, n);
                continue;
            }
            for c in [i, j].into_iter().filter(|&c| c > k && c < n) {
                let s = pairs.get(k, c);
                if s < threshold && row.is_none_or(|(bc, bs)| s < bs || (s == bs && c < bc)) {
                    *row = Some((c, s));
                }
            }
        }
    }
}

/// Group raw detections by iteratively averaging the most-overlapping
/// pairs (S_eyes < `overlap_threshold`, paper uses 0.5), then drop groups
/// with fewer than `min_neighbors` members.
///
/// The exact best-pair iteration is quadratic in the number of clusters,
/// so large raw sets (possible with heavily truncated cascades) first go
/// through a linear greedy pass that folds each detection into the first
/// cluster whose running mean it overlaps; the paper's iterative
/// averaging then runs over the resulting cluster means.
pub fn group_detections(
    detections: &[Detection],
    overlap_threshold: f64,
    min_neighbors: usize,
) -> Vec<GroupedDetection> {
    group_with(detections, overlap_threshold, min_neighbors, merge_exact)
}

/// [`group_detections`] with its exact phase, `exact`, as a parameter.
fn group_with(
    detections: &[Detection],
    overlap_threshold: f64,
    min_neighbors: usize,
    exact: fn(&mut Vec<Cluster>, f64),
) -> Vec<GroupedDetection> {
    // Greedy pre-clustering keeps the exact phase tractable.
    const EXACT_LIMIT: usize = 192;
    let mut clusters: Vec<Cluster> = if detections.len() > EXACT_LIMIT {
        let mut acc: Vec<Cluster> = Vec::new();
        for d in detections {
            match acc.iter_mut().find(|c| s_eyes(&c.mean(), d) < overlap_threshold) {
                Some(c) => c.absorb(&Cluster::from_detection(d)),
                None => acc.push(Cluster::from_detection(d)),
            }
        }
        acc
    } else {
        detections.iter().map(Cluster::from_detection).collect()
    };

    // Exact phase: repeatedly merge the most-overlapping pair. Quadratic
    // in the cluster count, so when pre-clustering still leaves a very
    // large set (degenerate cascades that accept almost everything), fall
    // back to greedy cluster-into-cluster folding first.
    if clusters.len() > EXACT_LIMIT {
        let mut folded: Vec<Cluster> = Vec::new();
        for c in clusters {
            match folded.iter_mut().find(|f| s_eyes(&f.mean(), &c.mean()) < overlap_threshold) {
                Some(f) => f.absorb(&c),
                None => folded.push(c),
            }
        }
        clusters = folded;
    }
    if clusters.len() <= 2 * EXACT_LIMIT {
        exact(&mut clusters, overlap_threshold);
    } // else degenerate input: the greedy result stands

    let mut out: Vec<GroupedDetection> = clusters
        .into_iter()
        .filter(|c| c.n >= min_neighbors)
        .map(|c| {
            let d = c.mean();
            GroupedDetection { rect: d.rect, score: c.score, neighbors: c.n }
        })
        .collect();
    // Deterministic order: by score descending, then position.
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.rect.x.cmp(&b.rect.x))
            .then(a.rect.y.cmp(&b.rect.y))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact phase as it was before the pair table: every pair
    /// rescanned, with fresh means, after each merge.
    fn merge_exact_reference(clusters: &mut Vec<Cluster>, threshold: f64) {
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..clusters.len() {
                let di = clusters[i].mean();
                for (j, cj) in clusters.iter().enumerate().skip(i + 1) {
                    let s = s_eyes(&di, &cj.mean());
                    if s < threshold && best.is_none_or(|(_, _, bs)| s < bs) {
                        best = Some((i, j, s));
                    }
                }
            }
            let Some((i, j, _)) = best else { break };
            let other = clusters.swap_remove(j);
            clusters[i].absorb(&other);
        }
    }

    /// A raw set of `n` windows from `seed`: origins on a grid of pitch
    /// `pitch` (1 px gives near-duplicates, 64 px isolated windows), a
    /// few sizes and scores, so equal `S_eyes` values and equal pairs are
    /// common.
    fn raw_set(n: usize, pitch: i32, seed: u64) -> Vec<Detection> {
        let mut x = seed | 1;
        let mut next = move |m: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        (0..n)
            .map(|_| {
                let (gx, gy) = (next(24) as i32 * pitch, next(16) as i32 * pitch);
                let size = [24, 30, 48][next(3) as usize];
                det(gx, gy, size, next(5) as f32)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The pair table merges the same pairs in the same order as the
        /// rescan: the exact phase on raw sets up to the 384-cluster
        /// limit, and whole groupings around the 192 / 384 limits, where
        /// the greedy pre-pass and the fold run first.
        #[test]
        fn pair_table_merges_like_the_full_rescan(
            band in 0usize..4,
            offset in 0usize..200,
            pitch in 0usize..4,
            seed in any::<u64>(),
            min_neighbors in 1usize..3,
        ) {
            // Below the pre-pass, around the 192 limit, around 384, far
            // past both.
            let n = [offset % 48, 186 + offset % 14, 378 + offset % 14, 700 + offset][band];
            let raw = raw_set(n, [1, 3, 9, 64][pitch], seed);
            if n <= 384 {
                let fold = |exact: fn(&mut Vec<Cluster>, f64)| {
                    let mut c: Vec<Cluster> = raw.iter().map(Cluster::from_detection).collect();
                    exact(&mut c, 0.5);
                    c.iter().map(|c| (c.sx, c.sy, c.sw, c.sh, c.n, c.score)).collect::<Vec<_>>()
                };
                prop_assert_eq!(fold(merge_exact), fold(merge_exact_reference));
            }
            prop_assert_eq!(
                group_with(&raw, 0.5, min_neighbors, merge_exact),
                group_with(&raw, 0.5, min_neighbors, merge_exact_reference)
            );
        }
    }

    fn det(x: i32, y: i32, s: u32, score: f32) -> Detection {
        Detection { rect: Rect::new(x, y, s, s), score, scale: 0 }
    }

    #[test]
    fn s_eyes_is_zero_for_identical_windows() {
        let a = det(10, 10, 48, 1.0);
        assert_eq!(s_eyes(&a, &a), 0.0);
    }

    #[test]
    fn s_eyes_grows_with_displacement() {
        let a = det(0, 0, 48, 1.0);
        let near = det(2, 0, 48, 1.0);
        let far = det(30, 0, 48, 1.0);
        assert!(s_eyes(&a, &near) < s_eyes(&a, &far));
        // Displacement by one inter-eye distance in x on both eyes gives
        // S_eyes ~ 2 * d / d = 2... displacing by the full eye distance:
        let shifted = det((0.4 * 48.0) as i32, 0, 48, 1.0);
        assert!(s_eyes(&a, &shifted) > 1.5);
    }

    #[test]
    fn s_eyes_is_scale_sensitive() {
        // Same center, very different size: eyes land far apart relative
        // to the smaller window.
        let a = det(0, 0, 40, 1.0);
        let b = det(-20, -20, 80, 1.0);
        assert!(s_eyes(&a, &b) > 0.5, "s = {}", s_eyes(&a, &b));
    }

    #[test]
    fn overlapping_detections_merge_to_one_group() {
        let dets = vec![
            det(100, 100, 50, 1.0),
            det(102, 101, 50, 2.0),
            det(99, 99, 52, 1.5),
            det(101, 100, 48, 0.5),
        ];
        let groups = group_detections(&dets, 0.5, 2);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.neighbors, 4);
        assert_eq!(g.score, 2.0);
        // The averaged window is near the inputs.
        assert!((g.rect.x - 100).abs() <= 2);
        assert!((g.rect.w as i32 - 50).abs() <= 2);
    }

    #[test]
    fn distant_detections_stay_separate() {
        let dets = vec![det(0, 0, 50, 1.0), det(400, 300, 50, 1.0)];
        let groups = group_detections(&dets, 0.5, 1);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn min_neighbors_filters_lone_windows() {
        let dets = vec![
            det(0, 0, 50, 1.0), // lone firing
            det(300, 300, 50, 1.0),
            det(302, 301, 50, 1.0),
        ];
        let groups = group_detections(&dets, 0.5, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].neighbors, 2);
        assert!(groups[0].rect.x > 200);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(group_detections(&[], 0.5, 1).is_empty());
    }

    #[test]
    fn groups_are_sorted_by_score() {
        let dets = vec![det(0, 0, 50, 1.0), det(300, 300, 50, 9.0)];
        let groups = group_detections(&dets, 0.5, 1);
        assert!(groups[0].score >= groups[1].score);
    }

    #[test]
    fn large_raw_sets_group_in_reasonable_time() {
        // A heavily truncated cascade can emit thousands of raw windows;
        // grouping must stay tractable (greedy pre-clustering path).
        let mut dets = Vec::new();
        for k in 0..2000 {
            let cx = (k % 40) * 30;
            let cy = (k / 40) * 9;
            dets.push(det(cx, cy, 48, (k % 7) as f32));
        }
        let t0 = std::time::Instant::now();
        let groups = group_detections(&dets, 0.5, 1);
        assert!(!groups.is_empty());
        assert!(groups.len() <= dets.len());
        assert!(t0.elapsed().as_secs_f64() < 5.0, "grouping 2000 windows took {:?}", t0.elapsed());
    }

    #[test]
    fn eyes_follow_window_geometry() {
        let d = det(100, 200, 100, 0.0);
        let (l, r) = d.eyes();
        assert!((l.x - 130.0).abs() < 1e-9);
        assert!((r.x - 170.0).abs() < 1e-9);
        assert!((l.y - 238.0).abs() < 1e-9);
        assert!((d.eye_distance() - 40.0).abs() < 1e-9);
    }
}
