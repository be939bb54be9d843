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

/// Deliberate bugs in the kernel bodies that the oracle sweeps of
/// `reference.rs` must catch, besides the two of `fd_gpu::BandMutation`;
/// only a test build can switch one on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// The cascade takes a block row whose tile ends one row past the
    /// image for one that lies inside it.
    InsideRow,
}

#[cfg(test)]
thread_local! {
    static MUTATION: std::cell::Cell<Option<Mutation>> = const { std::cell::Cell::new(None) };
}

/// Run `sweep` on this thread with `mutation` switched on.
#[cfg(test)]
fn with_mutation(mutation: Mutation, sweep: impl FnOnce()) {
    MUTATION.set(Some(mutation));
    sweep();
    MUTATION.set(None);
}

/// Whether `mutation` is switched on: never outside a test build.
fn mutated(mutation: Mutation) -> bool {
    #[cfg(test)]
    return MUTATION.get() == Some(mutation);
    #[cfg(not(test))]
    {
        let _ = mutation;
        false
    }
}
