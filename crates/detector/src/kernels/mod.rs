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

use std::ops::Range;

use fd_gpu::{Dim3, KernelCounters};

/// Deliberate bugs in the band bodies that the oracle sweeps of
/// `reference.rs` must catch; only a test build can switch one on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// A band that reaches the right edge of an image wider than a block
    /// stops one column short.
    BandEdge,
    /// The last block of a grid row is metered like a full one.
    EdgeCostClass,
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

/// The part of a `w x h` image that a rectangle of blocks covers when `bw
/// x bh` blocks tile it: what [`fd_gpu::LaunchCtx::rectangles`] yields, in
/// pixels. The tiled kernels process it as whole image rows.
struct Band {
    rows: Range<usize>,
    cols: Range<usize>,
    /// Blocks per grid row of the rectangle, and the shape of one.
    len: usize,
    bw: usize,
    bh: usize,
}

impl Band {
    fn of(
        (first, len, rows): (Dim3, u32, u32),
        (bw, bh): (usize, usize),
        (w, h): (usize, usize),
    ) -> Self {
        let (x0, y0) = (first.x as usize * bw, first.y as usize * bh);
        let w = w - (mutated(Mutation::BandEdge) && w > bw) as usize;
        Self {
            rows: y0..(y0 + rows as usize * bh).min(h),
            cols: x0..(x0 + len as usize * bw).min(w),
            len: len as usize,
            bw,
            bh,
        }
    }

    /// Hand `sink` the counters of every block of the rectangle, row by
    /// row, left to right: `class(cw, ch)` for a block that covers `cw x
    /// ch` pixels. Only the last block of a row can be narrower and only
    /// the last row shorter than the others, so a launch has at most four
    /// classes.
    fn emit(
        &self,
        class: impl Fn(usize, usize) -> KernelCounters,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        let mut last_cw = self.cols.len() - (self.len - 1) * self.bw;
        if mutated(Mutation::EdgeCostClass) {
            last_cw = self.bw;
        }
        for y0 in self.rows.clone().step_by(self.bh) {
            let ch = (self.rows.end - y0).min(self.bh);
            let full = class(self.bw, ch);
            for _ in 1..self.len {
                sink(&full);
            }
            sink(&if last_cw == self.bw { full } else { class(last_cw, ch) });
        }
    }
}
