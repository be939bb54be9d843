//! Kernel bodies at the host's vector width.
//!
//! The workspace targets baseline x86-64 (SSE2: four 32-bit lanes), so a
//! binary runs on any x86-64 CPU. A compute-bound functional body can run
//! twice as wide on a CPU with AVX2: [`at_vector_width`] runs one body
//! compiled twice from one source, the copy inside an
//! `#[target_feature(enable = "avx2")]` frame where the CPU has AVX2, the
//! portable copy everywhere else. The choice depends only on the CPU.
//!
//! Both copies compute the same bits as long as the body uses wrapping
//! integer arithmetic and IEEE `f32` add, subtract, compare and select in
//! source order: the target feature changes the instructions, not the
//! operations, and Rust never contracts `a * b + c` into a fused
//! multiply-add (nor is `fma` enabled here).

/// Runs `body` once, at the host's vector width: compiled for AVX2 on an
/// x86-64 CPU that has it (detected once per process by
/// `is_x86_feature_detected!`, which caches), for the target otherwise.
///
/// `body` is inlined into the AVX2 frame only if the inliner takes it:
/// pass an `#[inline(always)]` closure whose callees on the hot path are
/// `#[inline(always)]` too, or the body stays a baseline function that
/// the frame merely calls.
#[inline(always)]
pub fn at_vector_width<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` only requires a CPU with AVX2, which this one has.
        return unsafe { avx2(body) };
    }
    body()
}

/// `body`, compiled for AVX2 along with whatever is inlined into it.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_the_body_exactly_once_and_returns_its_result() {
        let mut runs = 0;
        let out = at_vector_width(|| {
            runs += 1;
            [1.5f32, 2.25].map(|v| v + 0.25)
        });
        assert_eq!(out, [1.75, 2.5]);
        assert_eq!(runs, 1);
    }
}
