//! Typed errors for the detection pipeline.
//!
//! Every fallible step — kernel launches, device memory operations,
//! decode faults, user-supplied geometry — surfaces as a
//! [`DetectorError`] instead of a panic, so a streaming caller can
//! distinguish *transient* faults (worth a bounded retry) from
//! *unrecoverable* ones (skip the frame, keep the stream alive).

use std::error::Error;
use std::fmt;

use fd_gpu::{LaunchError, MemoryError};
use fd_haar::CascadeError;
use fd_video::DecodeFault;

/// Error produced anywhere in the detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorError {
    /// A kernel launch failed. `level` is the pyramid level whose chain
    /// was being built (`None` outside per-level work), `frame` the
    /// stream frame index when known.
    Launch { kernel: &'static str, level: Option<usize>, frame: Option<usize>, source: LaunchError },
    /// A device memory operation failed (constant staging, texture
    /// binding, host↔device copy).
    Memory { context: &'static str, source: MemoryError },
    /// The hardware decoder faulted on a frame.
    Decode { frame: usize, fault: DecodeFault },
    /// Frame smaller than the cascade's detection window.
    FrameTooSmall { width: usize, height: usize, window: usize },
    /// Pyramid scale factor must be finite and > 1.
    BadScaleFactor { scale_factor: f64 },
    /// Playback rate must be finite and > 0.
    BadPlaybackFps { fps: f64 },
    /// A structurally invalid configuration (zero GPUs, zero-stage
    /// segments, unsupported cascade window, ...).
    InvalidConfig { reason: &'static str },
    /// The cascade failed semantic validation (out-of-window features,
    /// non-finite thresholds, unsatisfiable stages, ...). Raised by
    /// [`FaceDetector::try_new`](crate::FaceDetector::try_new) before any
    /// device state is touched, so a corrupt model can never reach a
    /// kernel.
    InvalidCascade { source: CascadeError },
}

impl DetectorError {
    /// `true` when a bounded retry of the same work can succeed (the
    /// fault-injection layer's transient launch failures).
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::Launch { source, .. } if source.is_transient())
    }

    /// Attach a stream frame index to errors that carry one.
    pub fn at_frame(mut self, frame_idx: usize) -> Self {
        match &mut self {
            Self::Launch { frame, .. } => *frame = Some(frame_idx),
            Self::Decode { frame, .. } => *frame = frame_idx,
            _ => {}
        }
        self
    }

    /// For an injected launch fault on a batched submission, the batch
    /// slot (frame index within the batch) the device attributed the
    /// fault to. `None` for every other error and for plain launches.
    pub fn batch_slot(&self) -> Option<usize> {
        match self {
            Self::Launch { source, .. } => source.batch_slot(),
            _ => None,
        }
    }

    /// `true` when the error is a *device-side* fault (an injected launch
    /// failure) rather than a request-caused rejection (bad geometry,
    /// invalid configuration, ...). A serving layer's retry and health
    /// machinery only reacts to device faults: retrying a malformed
    /// request cannot succeed and must not trip a breaker.
    pub fn is_device_fault(&self) -> bool {
        matches!(
            self,
            Self::Launch {
                source: LaunchError::InjectedTimeout { .. } | LaunchError::InjectedTransient { .. },
                ..
            }
        )
    }
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Launch { kernel, level, frame, source } => {
                write!(f, "kernel `{kernel}` failed to launch")?;
                if let Some(l) = level {
                    write!(f, " at pyramid level {l}")?;
                }
                if let Some(fr) = frame {
                    write!(f, " (frame {fr})")?;
                }
                write!(f, ": {source}")
            }
            Self::Memory { context, source } => write!(f, "{context}: {source}"),
            Self::Decode { frame, fault } => {
                write!(f, "decode fault on frame {frame}: {fault:?}")
            }
            Self::FrameTooSmall { width, height, window } => {
                write!(f, "frame {width}x{height} smaller than the {window}-px detection window")
            }
            Self::BadScaleFactor { scale_factor } => {
                write!(f, "pyramid scale factor must be finite and > 1, got {scale_factor}")
            }
            Self::BadPlaybackFps { fps } => {
                write!(f, "playback fps must be finite and > 0, got {fps}")
            }
            Self::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Self::InvalidCascade { source } => write!(f, "invalid cascade: {source}"),
        }
    }
}

impl Error for DetectorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Launch { source, .. } => Some(source),
            Self::Memory { source, .. } => Some(source),
            Self::InvalidCascade { source } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_follows_the_launch_error() {
        let transient = DetectorError::Launch {
            kernel: "cascade_eval",
            level: Some(3),
            frame: None,
            source: LaunchError::InjectedTransient { kernel: "cascade_eval", batch_slot: None },
        };
        assert!(transient.is_transient());
        assert!(transient.is_device_fault());
        assert_eq!(transient.batch_slot(), None);
        let timeout = DetectorError::Launch {
            kernel: "cascade_eval",
            level: Some(3),
            frame: None,
            source: LaunchError::InjectedTimeout { kernel: "cascade_eval", batch_slot: Some(2) },
        };
        assert!(!timeout.is_transient());
        assert!(timeout.is_device_fault());
        assert_eq!(timeout.batch_slot(), Some(2));
        assert!(!DetectorError::BadPlaybackFps { fps: f64::NAN }.is_transient());
        assert!(!DetectorError::BadPlaybackFps { fps: f64::NAN }.is_device_fault());
        let too_small = DetectorError::FrameTooSmall { width: 8, height: 8, window: 20 };
        assert!(!too_small.is_device_fault(), "request-caused errors are not device faults");
    }

    #[test]
    fn at_frame_annotates_launch_errors() {
        let e = DetectorError::Launch {
            kernel: "scale_bilinear",
            level: Some(0),
            frame: None,
            source: LaunchError::InjectedTransient { kernel: "scale_bilinear", batch_slot: None },
        }
        .at_frame(17);
        let msg = e.to_string();
        assert!(msg.contains("frame 17"), "{msg}");
        assert!(msg.contains("scale_bilinear"), "{msg}");
        assert!(msg.contains("level 0"), "{msg}");
    }
}
