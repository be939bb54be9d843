//! # fd-haar — Haar-like features and boosted cascades
//!
//! The feature machinery of the reproduction:
//!
//! * [`feature`] — the four Haar-like feature families of the paper's
//!   Table I (edge, line, center-surround, diagonal), evaluated on integral
//!   images with the exact rectangle-lookup counts the paper reports
//!   (9 memory accesses per rectangle);
//! * [`enumerate`] — exhaustive enumeration over the 24x24 training window.
//!   [`enumerate::EnumerationRule::Icpp2012`] replicates the paper's loop
//!   bounds and reproduces Table I exactly: 55 660 edge, 31 878 line,
//!   3 969 center-surround and 12 100 diagonal combinations;
//! * [`stump`] — regression stumps (GentleBoost weak classifiers; discrete
//!   AdaBoost stumps are the `+/- alpha` special case);
//! * [`cascade`] — attentional cascades organized in stages with early
//!   rejection, the structure whose evaluation the GPU kernel parallelizes;
//! * [`encode`] — the paper's §III-C constant-memory compression: each
//!   stump's geometry, threshold and leaf values re-encoded into a few
//!   32-bit words holding packed 16-bit/5-bit fields;
//! * [`io`] — a line-oriented text format for saving/loading cascades.
//!
//! Soft cascades, the paper's §VII future work, are an experiment outside
//! the product: `fd_bench::experiments::soft`.

pub mod cascade;
pub mod encode;
pub mod enumerate;
pub mod feature;
pub mod io;
pub mod stump;

pub use cascade::{Cascade, CascadeError, CascadeEval, Stage};
pub use encode::{decode_stump, encode_stump, PackedStump};
pub use enumerate::{enumerate_features, enumerate_kind, table1_counts, EnumerationRule};
pub use feature::{FeatureKind, HaarFeature, HaarRect};
pub use stump::Stump;

/// The training/detection window side used throughout the paper.
pub const WINDOW: u32 = 24;
