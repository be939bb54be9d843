//! # fd-boost — boosted-cascade training (paper §IV)
//!
//! Reimplements the paper's offline training pipeline from scratch:
//!
//! * [`dataset`] — the paper's data layout: every 24x24 training image is
//!   stored as one *column* of a big matrix whose rows are integral-image
//!   entries, so a Haar feature evaluates as a handful of row
//!   gathers/AXPYs over the whole training set at once (their Eigen/SSE4
//!   vectorization; here the rows are contiguous slices the compiler
//!   auto-vectorizes);
//! * [`lut`] — features lowered to (row index, coefficient) terms with
//!   shared corners collapsed (the paper's Fig. 4 evaluates an edge
//!   feature with 8 row references; merging shared corners leaves 6);
//! * [`regression`] — weighted regression-stump fitting on bucketed
//!   responses (GentleBoost) and weighted-error stumps (discrete AdaBoost);
//! * [`gentle`] / [`ada`] — the two boosting algorithms; GentleBoost is
//!   the paper's choice, discrete AdaBoost trains the "OpenCV-like"
//!   baseline cascade;
//! * [`trainer`] — the attentional-cascade builder: per-stage detection /
//!   false-positive goals, stage-threshold calibration on the positive
//!   set, and bootstrapping of hard negatives between stages (the paper's
//!   "additional bootstrapping routine");
//! * [`synthdata`] — synthetic training corpora built on
//!   `fd_imgproc::synth` (see DESIGN.md substitutions);
//! * [`smp`] — Fig. 8: the feature sweep's thread count, set per call
//!   ([`smp::run_with_threads`]) and measured on the host's cores, beside
//!   a model of the paper's machines: the iteration's parallel and serial
//!   work are counted from the real implementation and replayed through
//!   calibrated machine profiles (dual Xeon E5472, Core i7-2600K).
//!
//! Task parallelism over feature combinations (`#pragma omp parallel for`
//! of the paper's Fig. 4) runs on `std::thread::scope` workers over fixed
//! chunks of the feature pool; the bootstrapping routine overlaps
//! candidate generation with filtering through a bounded
//! `std::sync::mpsc` channel. The crate needs no threading library.

pub mod ada;
pub mod dataset;
pub mod gentle;
pub mod lut;
pub mod regression;
pub mod smp;
pub mod synthdata;
pub mod trainer;

#[cfg(test)]
pub(crate) mod testsupport;

pub use ada::AdaBoost;
pub use dataset::TrainingSet;
pub use gentle::{initial_weights, update_weights, FeaturePool, GentleBoost, WeakLearner};
pub use lut::FeatureLut;
pub use regression::{fit_discrete_stump, fit_regression_stump, StumpFit};
pub use synthdata::{synth_faces, NegativeSource};
pub use trainer::{train_cascade, StageGoals, TrainedCascade, TrainerConfig};
