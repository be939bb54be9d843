//! The pipeline's device kernels.
//!
//! Each kernel is a [`fd_gpu::Kernel`] implementation: the functional body
//! computes bit-exact results against device memory, and metering calls
//! describe the SIMT work (warp instructions, memory transactions,
//! divergence) that the timing model schedules.

pub mod cascade;
pub mod display;
pub mod filter;
#[cfg(test)]
mod reference;
pub mod scale;
pub mod scan;
pub mod transpose;

pub use cascade::CascadeKernel;
pub use display::DisplayKernel;
pub use filter::FilterKernel;
pub use scale::ScaleKernel;
pub use scan::ScanRowsKernel;
pub use transpose::TransposeKernel;

fd_gpu::mutation_switch! {
    /// Deliberate bugs in the kernel bodies that the oracle sweeps of
    /// `reference.rs` must catch, besides the two of `fd_gpu::BandMutation`;
    /// only a test build can switch one on.
    enum Mutation {
        /// The cascade takes a block row whose tile ends one row past the
        /// image for one that lies inside it.
        InsideRow,
    }
}
