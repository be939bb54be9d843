//! What the paper compares its §III pipeline against, for `repro_all`'s
//! ablations: the alternatives of its §II, its §VII future work and the
//! naive record layout of §III-C. Each is built on the product's public
//! API and nothing in the product calls it.
//!
//! * [`rearrange`] — Herout et al.'s thread rearrangement: cascade
//!   segments with survivor compaction between them;
//! * [`multi_gpu`] — Hefenbrock et al.'s split of the pyramid's scales
//!   over several GPUs;
//! * [`soft`] — soft cascades (Bourdev & Brandt), per-stump rejection;
//! * [`records`] — the cascade kernel re-metered for uncompressed stump
//!   records in constant memory.

pub mod multi_gpu;
pub mod rearrange;
pub mod records;
pub mod soft;
