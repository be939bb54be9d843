//! Shared fixtures for the crate's unit tests.

use crate::dataset::TrainingSet;
use fd_haar::{enumerate_kind, EnumerationRule, FeatureKind, HaarFeature};
use fd_imgproc::GrayImage;

/// Tiny corpus: faces are left-dark/right-bright 24x24 windows, negatives
/// are flat. An EdgeH feature separates them perfectly.
pub(crate) fn toy_set() -> TrainingSet {
    let mut imgs = Vec::new();
    for i in 0..8 {
        let hi = 200.0 + i as f32 * 5.0;
        imgs.push((GrayImage::from_fn(24, 24, move |x, _| if x < 12 { 20.0 } else { hi }), 1.0f32));
    }
    for i in 0..8 {
        let v = 60.0 + i as f32 * 10.0;
        imgs.push((GrayImage::from_fn(24, 24, move |_, _| v), -1.0f32));
    }
    let refs: Vec<(&GrayImage, f32)> = imgs.iter().map(|(i, l)| (i, *l)).collect();
    TrainingSet::from_samples(refs)
}

/// EdgeH features only, subsampled for speed.
pub(crate) fn small_pool() -> Vec<HaarFeature> {
    enumerate_kind(FeatureKind::EdgeH, 24, EnumerationRule::Icpp2012)
        .into_iter()
        .step_by(97)
        .collect()
}
