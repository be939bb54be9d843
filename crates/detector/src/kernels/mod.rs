//! The pipeline's device kernels.
//!
//! Each kernel is a [`fd_gpu::Kernel`] implementation: the functional body
//! computes bit-exact results against device memory, and metering calls
//! describe the SIMT work (warp instructions, memory transactions,
//! divergence) that the timing model schedules.

pub mod cascade;
pub mod display;
pub mod filter;
pub mod rearrange;
#[cfg(test)]
mod reference;
pub mod scale;
pub mod scan;
pub mod transpose;

pub use cascade::CascadeKernel;
pub use display::DisplayKernel;
pub use rearrange::{run_rearranged_level, CascadeSegmentKernel, CompactKernel};
pub use filter::FilterKernel;
pub use scale::ScaleKernel;
pub use scan::ScanRowsKernel;
pub use transpose::TransposeKernel;
