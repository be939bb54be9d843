//! CUDA-style streams.
//!
//! A stream is an in-order queue of kernel launches. Launches in different
//! streams have no ordering constraint: the paper's pipeline runs one
//! stream per pyramid level with no cross-stream synchronisation. The
//! scheduler ([`crate::sched`]) enforces stream order (on a one-slot device,
//! issue order); this module only provides the identifier.

/// Identifier of a stream. `StreamId::DEFAULT` is the legacy default stream,
/// which on the simulated device behaves like any other stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// The default stream (stream 0).
    pub const DEFAULT: StreamId = StreamId(0);

    /// Raw index, useful for labelling trace rows.
    pub fn index(&self) -> u32 {
        self.0
    }

    /// Construct a stream id from a raw index. Streams used with a live
    /// [`crate::Gpu`] should come from `Gpu::create_stream`; this
    /// constructor exists for building [`crate::LaunchRecord`]s directly
    /// against the scheduler (tests, benchmarks, external harnesses).
    pub fn from_raw(index: u32) -> Self {
        StreamId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stream_is_zero() {
        assert_eq!(StreamId::DEFAULT.index(), 0);
    }
}
