//! Weak-classifier fitting on bucketed feature responses.
//!
//! Fitting a stump exactly would require sorting every feature's responses
//! (`O(n log n)` per feature per round). Like production boosting
//! implementations, responses are instead bucketed into `n_bins` equal-width
//! bins — one `O(n)` accumulation pass followed by an `O(n_bins)` split
//! scan. Thresholds land on bin boundaries; with 256 bins the loss in split
//! resolution is far below the label noise of any real corpus.
//!
//! Two objectives share the accumulation:
//! * [`fit_regression_stump`] — GentleBoost's weighted least squares
//!   (leaves are the weighted class means on each side of the split);
//! * [`fit_discrete_stump`] — discrete AdaBoost's weighted error with the
//!   best polarity.

/// Result of fitting one stump to one feature's responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StumpFit {
    /// Split point: samples with `response < threshold` go left.
    pub threshold: i32,
    /// Left-leaf output.
    pub left: f32,
    /// Right-leaf output.
    pub right: f32,
    /// Objective value (weighted SSE, or weighted error): lower is better.
    pub loss: f64,
}

struct Bins {
    sw: Vec<f64>,
    swy: Vec<f64>,
    min: i32,
    range: i64,
}

fn accumulate(responses: &[i32], labels: &[f32], weights: &[f64], n_bins: usize) -> Option<Bins> {
    debug_assert_eq!(responses.len(), labels.len());
    debug_assert_eq!(responses.len(), weights.len());
    let (mut min, mut max) = (i32::MAX, i32::MIN);
    for &v in responses {
        min = min.min(v);
        max = max.max(v);
    }
    if min >= max {
        return None; // empty or constant responses: nothing to split
    }
    let range = max as i64 - min as i64 + 1;
    let mut sw = vec![0.0f64; n_bins];
    let mut swy = vec![0.0f64; n_bins];
    for i in 0..responses.len() {
        let b = ((responses[i] as i64 - min as i64) * n_bins as i64 / range) as usize;
        sw[b] += weights[i];
        swy[b] += weights[i] * labels[i] as f64;
    }
    Some(Bins { sw, swy, min, range })
}

/// Threshold value such that `response < threshold` iff the response's bin
/// index is `< b`.
fn bin_threshold(bins: &Bins, b: usize, n_bins: usize) -> i32 {
    let up = (b as i64 * bins.range + n_bins as i64 - 1) / n_bins as i64;
    (bins.min as i64 + up) as i32
}

/// Fit a GentleBoost regression stump minimizing weighted squared error
/// `sum_i w_i (y_i - f(v_i))^2`.
pub fn fit_regression_stump(
    responses: &[i32],
    labels: &[f32],
    weights: &[f64],
    n_bins: usize,
) -> StumpFit {
    let total_w: f64 = weights.iter().sum();
    let total_wy: f64 = weights.iter().zip(labels).map(|(&w, &y)| w * y as f64).sum();
    let total_wyy: f64 =
        weights.iter().zip(labels).map(|(&w, &y)| w * (y as f64) * (y as f64)).sum();

    let Some(bins) = accumulate(responses, labels, weights, n_bins) else {
        // No split possible: a single leaf at the weighted mean.
        let mean = if total_w > 0.0 { total_wy / total_w } else { 0.0 };
        let loss = total_wyy - total_w * mean * mean;
        return StumpFit {
            threshold: responses.first().copied().unwrap_or(0),
            left: mean as f32,
            right: mean as f32,
            loss,
        };
    };

    let mut best: Option<StumpFit> = None;
    let mut wl = 0.0f64;
    let mut wyl = 0.0f64;
    for b in 1..n_bins {
        wl += bins.sw[b - 1];
        wyl += bins.swy[b - 1];
        let wr = total_w - wl;
        let wyr = total_wy - wyl;
        if wl <= 0.0 || wr <= 0.0 {
            continue;
        }
        // SSE = sum w y^2 - wyl^2/wl - wyr^2/wr (leaves at weighted means).
        let loss = total_wyy - wyl * wyl / wl - wyr * wyr / wr;
        if best.is_none_or(|f| loss < f.loss) {
            best = Some(StumpFit {
                threshold: bin_threshold(&bins, b, n_bins),
                left: (wyl / wl) as f32,
                right: (wyr / wr) as f32,
                loss,
            });
        }
    }
    best.unwrap_or(StumpFit {
        threshold: bins.min,
        left: (total_wy / total_w) as f32,
        right: (total_wy / total_w) as f32,
        loss: total_wyy - total_wy * total_wy / total_w,
    })
}

/// Fit a discrete AdaBoost stump minimizing the weighted classification
/// error over both polarities. Leaves are `-/+1` votes (scaled to `alpha`
/// by the caller).
pub fn fit_discrete_stump(
    responses: &[i32],
    labels: &[f32],
    weights: &[f64],
    n_bins: usize,
) -> StumpFit {
    let total_w: f64 = weights.iter().sum();
    let total_wp: f64 =
        weights.iter().zip(labels).filter(|&(_, &y)| y > 0.0).map(|(&w, _)| w).sum();
    let total_wn = total_w - total_wp;

    let Some(bins) = accumulate(responses, labels, weights, n_bins) else {
        // Constant responses: predict the heavier class everywhere.
        let (left, loss) = if total_wp >= total_wn { (1.0, total_wn) } else { (-1.0, total_wp) };
        return StumpFit {
            threshold: responses.first().copied().unwrap_or(0),
            left,
            right: left,
            loss,
        };
    };

    let mut best: Option<StumpFit> = None;
    let mut wpl = 0.0f64; // positive weight left of the split
    let mut wnl = 0.0f64;
    for b in 1..n_bins {
        // sw = wp + wn, swy = wp - wn per bin.
        wpl += (bins.sw[b - 1] + bins.swy[b - 1]) / 2.0;
        wnl += (bins.sw[b - 1] - bins.swy[b - 1]) / 2.0;
        // Polarity +1: predict -1 left, +1 right.
        let err_pos = wpl + (total_wn - wnl);
        // Polarity -1: the complement.
        let err_neg = total_w - err_pos;
        let (err, left, right) =
            if err_pos <= err_neg { (err_pos, -1.0, 1.0) } else { (err_neg, 1.0, -1.0) };
        if best.is_none_or(|f| err < f.loss) {
            best = Some(StumpFit {
                threshold: bin_threshold(&bins, b, n_bins),
                left,
                right,
                loss: err,
            });
        }
    }
    best.expect("n_bins >= 2 guarantees at least one candidate split")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Perfectly separable data: positives respond high, negatives low.
    fn separable() -> (Vec<i32>, Vec<f32>, Vec<f64>) {
        let responses = vec![-100, -80, -60, 60, 80, 100];
        let labels = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        let weights = vec![1.0 / 6.0; 6];
        (responses, labels, weights)
    }

    #[test]
    fn regression_stump_separates_separable_data() {
        let (r, y, w) = separable();
        let fit = fit_regression_stump(&r, &y, &w, 64);
        assert!(fit.threshold > -60 && fit.threshold <= 60, "thr {}", fit.threshold);
        assert!((fit.left + 1.0).abs() < 1e-6, "left {}", fit.left);
        assert!((fit.right - 1.0).abs() < 1e-6);
        assert!(fit.loss < 1e-9, "separable data must fit exactly, loss {}", fit.loss);
    }

    #[test]
    fn discrete_stump_separates_separable_data() {
        let (r, y, w) = separable();
        let fit = fit_discrete_stump(&r, &y, &w, 64);
        assert!(fit.loss < 1e-12);
        assert_eq!((fit.left, fit.right), (-1.0, 1.0));
    }

    #[test]
    fn discrete_stump_picks_reversed_polarity() {
        let (r, mut y, w) = separable();
        for v in &mut y {
            *v = -*v;
        }
        let fit = fit_discrete_stump(&r, &y, &w, 64);
        assert!(fit.loss < 1e-12);
        assert_eq!((fit.left, fit.right), (1.0, -1.0));
    }

    #[test]
    fn regression_leaves_are_weighted_means() {
        // One negative outweighs two positives on the same side.
        let responses = vec![0, 0, 0, 100];
        let labels = vec![1.0, 1.0, -1.0, 1.0];
        let weights = vec![0.1, 0.1, 0.6, 0.2];
        let fit = fit_regression_stump(&responses, &labels, &weights, 16);
        // Split separates 0s from 100: left mean = (0.1+0.1-0.6)/0.8 = -0.5.
        assert!((fit.left + 0.5).abs() < 1e-6, "left {}", fit.left);
        assert!((fit.right - 1.0).abs() < 1e-6);
    }

    #[test]
    fn constant_responses_yield_single_leaf() {
        let responses = vec![42, 42, 42];
        let labels = vec![1.0, -1.0, 1.0];
        let weights = vec![1.0 / 3.0; 3];
        let fit = fit_regression_stump(&responses, &labels, &weights, 32);
        assert_eq!(fit.left, fit.right);
        assert!((fit.left - 1.0 / 3.0).abs() < 1e-6);
        let d = fit_discrete_stump(&responses, &labels, &weights, 32);
        assert_eq!(d.left, d.right);
        assert!((d.loss - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighting_moves_the_split() {
        // Two interleaved points; up-weighting one pair dominates the fit.
        let responses = vec![0, 10, 20, 30];
        let labels = vec![-1.0, 1.0, -1.0, 1.0];
        let heavy_late = vec![0.05, 0.05, 0.45, 0.45];
        let fit = fit_regression_stump(&responses, &labels, &heavy_late, 64);
        // The split must separate 20 from 30.
        assert!(fit.threshold > 20 && fit.threshold <= 30, "thr {}", fit.threshold);
    }

    #[test]
    fn threshold_respects_bucket_semantics() {
        // All predictions must agree with re-evaluating `v < thr`.
        let responses = vec![-7, -3, 1, 2, 9, 11, 40];
        let labels = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0];
        let weights = vec![1.0 / 7.0; 7];
        let fit = fit_regression_stump(&responses, &labels, &weights, 8);
        // Recompute the SSE from the returned stump and compare.
        let mut sse = 0.0f64;
        for (&v, &y) in responses.iter().zip(&labels) {
            let f = if v < fit.threshold { fit.left } else { fit.right };
            let d = y as f64 - f as f64;
            sse += d * d / 7.0;
        }
        assert!((sse - fit.loss).abs() < 1e-9, "reported {} recomputed {}", fit.loss, sse);
    }
}
