//! Device memory spaces: global buffers, constant memory and textures.
//!
//! Global memory is a typed arena. Buffers are addressed through copyable
//! [`DevBuf<T>`] handles so kernels can capture them without borrowing the
//! device.
//!
//! # Concurrency and the disjoint-write contract
//!
//! The functional phase executes thread blocks in parallel across host
//! threads, so the arena is shared (`DeviceMemory` is `Sync`) and buffer
//! views are handed out through [`DevRead`]/[`DevWrite`] guards backed by
//! an `UnsafeCell` per slot. The CUDA memory model is the contract:
//!
//! - any number of blocks may *read* a buffer concurrently;
//! - any number of blocks may *write* a buffer concurrently **only if
//!   they write disjoint elements** (the standard CUDA requirement for a
//!   correct kernel — e.g. every block of the cascade kernel writes its
//!   own output tile);
//! - a buffer must never be read and written in the same launch.
//!
//! The guards enforce the checkable part of this at buffer granularity
//! with atomic reader/writer counts: taking a read view while a write
//! view exists (or vice versa) panics, which corresponds to a data race
//! under the CUDA memory model. Element-level overlap between concurrent
//! writers is *not* detectable at this granularity and remains the
//! kernel author's obligation, exactly as on real hardware. Within one
//! launch the simulator never reorders a kernel's loads/stores, so a
//! contract-respecting kernel produces bit-identical results at any host
//! thread count.
//!
//! Constant memory is a single 64 KiB bank of 32-bit words with bump
//! allocation, matching how the detector stages its compressed Haar feature
//! records before launching evaluation kernels. Textures are read-only 2D
//! single-channel surfaces with clamp addressing and optional bilinear
//! filtering, the `tex2D` path used by the scaling kernel.

use std::any::{Any, TypeId};
use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::fault::{fault_bits, fault_draw, FaultDomain};

thread_local! {
    /// Set while this thread is executing kernel blocks on behalf of the
    /// asynchronous drain (see [`KernelScope`]); exempts it from the
    /// deferred-launch host-access guard.
    static IN_KERNEL_SCOPE: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker entered by the execution engine around kernel block
/// execution. While launches are deferred ([`DeviceMemory::set_deferred_launches`]),
/// buffer access from threads *outside* such a scope panics — it would
/// observe pre-launch memory state that serial issue order never exposed.
pub(crate) struct KernelScope {
    prev: bool,
}

impl KernelScope {
    pub(crate) fn enter() -> Self {
        let prev = IN_KERNEL_SCOPE.with(|f| f.replace(true));
        Self { prev }
    }
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_KERNEL_SCOPE.with(|f| f.set(prev));
    }
}

/// Typed errors for host-visible memory operations that previously
/// aborted on `assert!` (constant-bank overflow, malformed textures,
/// copy-size mismatches on user-supplied geometry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Constant-memory bank overflow (`cudaMemcpyToSymbol` past 64 KiB).
    ConstOverflow { used_words: usize, requested_words: usize, capacity_words: usize },
    /// Texture dimensions and data length disagree, or an extent is zero.
    BadTexture { width: usize, height: usize, data_len: usize },
    /// Host↔device copy with mismatched element counts.
    CopyLengthMismatch { buf_len: usize, host_len: usize },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::ConstOverflow { used_words, requested_words, capacity_words } => write!(
                f,
                "constant memory overflow: {used_words} + {requested_words} words > {capacity_words}"
            ),
            MemoryError::BadTexture { width, height, data_len } => write!(
                f,
                "texture {width}x{height} incompatible with {data_len} data elements"
            ),
            MemoryError::CopyLengthMismatch { buf_len, host_len } => {
                write!(f, "copy length mismatch: buffer holds {buf_len}, host side {host_len}")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Scalar element types storable in device buffers.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {}
impl DeviceScalar for u8 {}
impl DeviceScalar for u16 {}
impl DeviceScalar for u32 {}
impl DeviceScalar for u64 {}
impl DeviceScalar for i8 {}
impl DeviceScalar for i16 {}
impl DeviceScalar for i32 {}
impl DeviceScalar for i64 {}
impl DeviceScalar for f32 {}
impl DeviceScalar for f64 {}

/// Typed handle to a global-memory buffer. Cheap to copy into kernels.
pub struct DevBuf<T> {
    pub(crate) id: usize,
    pub(crate) len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DevBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DevBuf<T> {}

impl<T> std::fmt::Debug for DevBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DevBuf#{}[len={}]", self.id, self.len)
    }
}

impl<T> DevBuf<T> {
    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The arena slot index, for correlating [`CopyFault`] records with
    /// the buffers they poisoned.
    pub fn raw_id(&self) -> usize {
        self.id
    }

    /// The buffer's first `len` elements as a handle of their own: reads,
    /// writes, downloads and copy-fault draws through it see exactly
    /// `len` elements, and access sets name the whole buffer. Panics if
    /// the buffer is shorter.
    pub fn prefix(self, len: usize) -> Self {
        assert!(len <= self.len, "prefix of {len} elements of {self:?}");
        Self { len, ..self }
    }
}

/// The device buffers a kernel launch reads and writes, declared through
/// [`crate::Kernel::access`]. The pending-launch graph builds
/// read/write hazard edges from these sets: a reader is ordered after the
/// buffer's last writer, a writer after the last writer *and* every
/// reader since. A kernel that does not (or cannot) declare its accesses
/// is **opaque** and acts as a full barrier — it executes after every
/// earlier queued launch and before every later one, which is always
/// safe, merely slow.
///
/// A declared set is a contract: it must cover *every* buffer the kernel
/// touches via [`BlockCtx::mem`](crate::BlockCtx), exactly as a CUDA
/// kernel's stream placement must reflect its true data flow. An
/// under-declared set can let two hazardous launches overlap, which the
/// arena's race checker reports only when the interleaving actually
/// collides.
#[derive(Debug, Clone, Default)]
pub struct AccessSet {
    reads: Vec<usize>,
    writes: Vec<usize>,
    opaque: bool,
}

impl AccessSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare that the kernel reads `buf`.
    pub fn reads<T: DeviceScalar>(&mut self, buf: DevBuf<T>) -> &mut Self {
        self.reads.push(buf.id);
        self
    }

    /// Declare that the kernel writes `buf` (fully or partially).
    pub fn writes<T: DeviceScalar>(&mut self, buf: DevBuf<T>) -> &mut Self {
        self.writes.push(buf.id);
        self
    }

    /// Declare the access set unknown: the launch orders against
    /// everything (the conservative default of [`crate::Kernel::access`]).
    pub fn mark_opaque(&mut self) -> &mut Self {
        self.opaque = true;
        self
    }

    /// Whether the kernel declined to enumerate its buffers.
    pub fn is_opaque(&self) -> bool {
        self.opaque
    }

    /// Arena slot ids of declared reads.
    pub(crate) fn read_ids(&self) -> &[usize] {
        &self.reads
    }

    /// Arena slot ids of declared writes.
    pub(crate) fn write_ids(&self) -> &[usize] {
        &self.writes
    }

    /// Untyped [`AccessSet::reads`], for tests that fabricate hazard
    /// graphs without allocating real buffers.
    #[cfg(test)]
    pub(crate) fn read_id(&mut self, id: usize) -> &mut Self {
        self.reads.push(id);
        self
    }

    /// Untyped [`AccessSet::writes`].
    #[cfg(test)]
    pub(crate) fn write_id(&mut self, id: usize) -> &mut Self {
        self.writes.push(id);
        self
    }

    /// Fold `other` into `self` (a batched launch is the union of its
    /// parts: opaque if any part is).
    pub(crate) fn union(&mut self, other: &AccessSet) {
        self.reads.extend_from_slice(&other.reads);
        self.writes.extend_from_slice(&other.writes);
        self.opaque |= other.opaque;
    }
}

struct Slot {
    /// The buffer contents. Shared mutable access from worker threads is
    /// mediated by the `readers`/`writers` counts below plus the
    /// module-level disjoint-write contract.
    data: UnsafeCell<Box<dyn Any + Send + Sync>>,
    bytes: usize,
    live: bool,
    /// Outstanding [`DevRead`] guards.
    readers: AtomicU32,
    /// Outstanding [`DevWrite`] guards.
    writers: AtomicU32,
}

// SAFETY: all access to `data` goes through `DeviceMemory::read`/`write`,
// which track outstanding views in `readers`/`writers` and panic on
// buffer-level read/write races; concurrent writers are only permitted
// under the documented disjoint-write contract (module docs). Structural
// mutation (alloc/free) takes `&mut DeviceMemory` and is therefore
// exclusive.
unsafe impl Sync for Slot {}

/// Shared view of a device buffer, obtained from [`DeviceMemory::read`].
/// Holding it blocks write views of the same buffer.
pub struct DevRead<'a, T: DeviceScalar> {
    elems: &'a [T],
    readers: &'a AtomicU32,
}

impl<T: DeviceScalar> Deref for DevRead<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.elems
    }
}

impl<T: DeviceScalar> Drop for DevRead<'_, T> {
    fn drop(&mut self) {
        self.readers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A device-to-host copy that borrows instead of cloning, obtained from
/// [`DeviceMemory::download_view`]. A clean copy is the arena's own
/// storage behind a read guard (write views of the buffer are blocked
/// while it lives); a copy the fault injector corrupted is an owned
/// vector with the poisoned region zeroed, exactly what
/// [`DeviceMemory::download`] would have returned.
pub enum Readback<'a, T: DeviceScalar> {
    Clean(DevRead<'a, T>),
    Corrupted(Vec<T>),
}

impl<T: DeviceScalar> Deref for Readback<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Readback::Clean(view) => view,
            Readback::Corrupted(copy) => copy,
        }
    }
}

/// Mutable view of a device buffer, obtained from [`DeviceMemory::write`].
/// Holding it blocks read views; other *write* views may coexist under
/// the disjoint-write contract (module docs), mirroring how CUDA blocks
/// of one launch write one output buffer.
pub struct DevWrite<'a, T: DeviceScalar> {
    elems: *mut [T],
    writers: &'a AtomicU32,
    _marker: PhantomData<&'a mut [T]>,
}

impl<T: DeviceScalar> Deref for DevWrite<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: the slot is live for 'a and read views are excluded
        // while any write view exists.
        unsafe { &*self.elems }
    }
}

impl<T: DeviceScalar> DerefMut for DevWrite<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: see `Deref`; concurrent writers touch disjoint elements
        // per the module-level contract.
        unsafe { &mut *self.elems }
    }
}

impl<T: DeviceScalar> Drop for DevWrite<'_, T> {
    fn drop(&mut self) {
        self.writers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Configuration for deterministic corruption of host↔device copies
/// (normally attached via [`crate::Gpu::set_fault_plan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyFaultConfig {
    pub seed: u64,
    /// Per-copy corruption probability in `[0, 1]`.
    pub rate: f64,
    /// Poisoned-region length in elements (clamped to the copy).
    pub region_len: usize,
}

/// Record of one injected copy corruption: the poisoned region of the
/// affected buffer. Drained by [`DeviceMemory::drain_copy_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyFault {
    /// Arena slot of the corrupted buffer ([`DevBuf::raw_id`]).
    pub buf_id: usize,
    /// First poisoned element.
    pub start: usize,
    /// Poisoned element count.
    pub len: usize,
}

/// Interior-mutable injector state: copies go through `&self` methods
/// (`download` is callable while kernels hold views), so the draw counter
/// and fault log live behind a mutex. Copies only happen from the host
/// thread; the mutex is uncontended.
#[derive(Default)]
struct CopyFaultState {
    config: Option<CopyFaultConfig>,
    draws: u64,
    events: Vec<CopyFault>,
    /// Poisoned regions per slot, kept until the buffer is fully
    /// overwritten or freed (the poisoned-region model: corruption is
    /// sticky, not a one-shot bit flip).
    poisoned: HashMap<usize, Vec<(usize, usize)>>,
}

/// The global-memory arena of a simulated device.
#[derive(Default)]
pub struct DeviceMemory {
    slots: Vec<Slot>,
    live_bytes: usize,
    peak_bytes: usize,
    alloc_count: u64,
    copy_faults: Mutex<CopyFaultState>,
    /// Launches enqueued but not yet functionally executed (maintained by
    /// [`crate::Gpu`]). While non-zero, host-side access to *existing*
    /// buffers panics — see [`DeviceMemory::assert_host_quiesced`].
    deferred_launches: AtomicU32,
}

impl DeviceMemory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record how many enqueued launches still await functional execution.
    pub(crate) fn set_deferred_launches(&self, n: u32) {
        self.deferred_launches.store(n, Ordering::Relaxed);
    }

    /// Guard against the host observing (or mutating) a buffer that a
    /// deferred launch may still read or write: under serial issue order
    /// those launches had already executed, so such an access would
    /// silently see different data. Allocating *new* buffers is exempt
    /// (deferred launches cannot reference them), as are the engine's own
    /// worker threads ([`KernelScope`]).
    fn assert_host_quiesced(&self) {
        let n = self.deferred_launches.load(Ordering::Relaxed);
        if n > 0 && !IN_KERNEL_SCOPE.with(|f| f.get()) {
            panic!(
                "host access to device memory while {n} launches are deferred; \
                 call Gpu::synchronize() or Gpu::flush() first"
            );
        }
    }

    /// Allocate a buffer of `len` default-initialized elements
    /// (`cudaMalloc` + `cudaMemset`).
    pub fn alloc<T: DeviceScalar>(&mut self, len: usize) -> DevBuf<T> {
        self.insert(vec![T::default(); len])
    }

    /// Allocate a buffer initialized from host data (`cudaMemcpyHostToDevice`).
    pub fn upload<T: DeviceScalar>(&mut self, data: &[T]) -> DevBuf<T> {
        self.insert(data.to_vec())
    }

    fn insert<T: DeviceScalar>(&mut self, data: Vec<T>) -> DevBuf<T> {
        let (len, bytes) = (data.len(), std::mem::size_of_val(data.as_slice()));
        let id = self.slots.len();
        self.slots.push(Slot {
            data: UnsafeCell::new(Box::new(data)),
            bytes,
            live: true,
            readers: AtomicU32::new(0),
            writers: AtomicU32::new(0),
        });
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.alloc_count += 1;
        DevBuf { id, len, _marker: PhantomData }
    }

    /// Release a buffer (all of it, through any prefix handle). Its
    /// handles become invalid; further access panics.
    pub fn free<T: DeviceScalar>(&mut self, buf: DevBuf<T>) {
        self.free_slot(buf.id);
    }

    fn free_slot(&mut self, id: usize) {
        self.assert_host_quiesced();
        let slot = &mut self.slots[id];
        assert!(slot.live, "double free of DevBuf#{id}");
        slot.live = false;
        self.live_bytes -= slot.bytes;
        *slot.data.get_mut() = Box::new(());
        let state = self.copy_faults.get_mut().unwrap_or_else(|e| e.into_inner());
        state.poisoned.remove(&id);
    }

    /// Shared view of a buffer (`cudaMemcpyDeviceToHost` without the copy).
    /// Panics if a write view is outstanding — a read/write race under the
    /// CUDA memory model.
    pub fn read<T: DeviceScalar>(&self, buf: DevBuf<T>) -> DevRead<'_, T> {
        self.assert_host_quiesced();
        let slot = &self.slots[buf.id];
        assert!(slot.live, "use after free of {buf:?}");
        slot.readers.fetch_add(1, Ordering::SeqCst);
        assert!(
            slot.writers.load(Ordering::SeqCst) == 0,
            "read/write race on {buf:?}: a write view is outstanding"
        );
        // SAFETY: no write view exists (checked above) and none can be
        // taken while our reader count is registered.
        let vec = unsafe { (*slot.data.get()).downcast_ref::<Vec<T>>() }
            .expect("device buffer type mismatch");
        DevRead { elems: &vec[..buf.len], readers: &slot.readers }
    }

    /// Mutable view of a buffer. Panics if a read view is outstanding;
    /// concurrent write views are permitted under the disjoint-write
    /// contract (module docs), as blocks of one kernel launch share
    /// output buffers but write disjoint elements.
    pub fn write<T: DeviceScalar>(&self, buf: DevBuf<T>) -> DevWrite<'_, T> {
        self.assert_host_quiesced();
        let slot = &self.slots[buf.id];
        assert!(slot.live, "use after free of {buf:?}");
        slot.writers.fetch_add(1, Ordering::SeqCst);
        assert!(
            slot.readers.load(Ordering::SeqCst) == 0,
            "read/write race on {buf:?}: a read view is outstanding"
        );
        // SAFETY: read views are excluded (checked above); overlap between
        // concurrent write views is governed by the disjoint-write
        // contract. The transient exclusive borrow here only downcasts and
        // takes the handle's (bounds-checked) prefix.
        let vec = unsafe { (*slot.data.get()).downcast_mut::<Vec<T>>() }
            .expect("device buffer type mismatch");
        let elems: *mut [T] = &mut vec[..buf.len];
        DevWrite { elems, writers: &slot.writers, _marker: PhantomData }
    }

    /// Attach (or detach) deterministic copy-corruption injection.
    /// Attaching resets the draw counter and clears the fault log.
    pub fn set_copy_faults(&mut self, config: Option<CopyFaultConfig>) {
        let state = self.copy_faults.get_mut().unwrap_or_else(|e| e.into_inner());
        *state = CopyFaultState { config, ..CopyFaultState::default() };
    }

    /// Copy-corruption verdicts drawn so far (zero when no injector is
    /// attached). One half of [`crate::FaultCursor`].
    pub fn copy_fault_draws(&self) -> u64 {
        self.copy_faults.lock().unwrap_or_else(|e| e.into_inner()).draws
    }

    /// Fast-forward the copy-corruption draw counter (checkpoint restore;
    /// see [`crate::Gpu::seek_fault_cursor`]). No-op without an injector.
    pub fn seek_copy_fault_draws(&mut self, draws: u64) {
        let state = self.copy_faults.get_mut().unwrap_or_else(|e| e.into_inner());
        if state.config.is_some() {
            state.draws = draws;
        }
    }

    /// Drain the copy-fault log: every corruption injected since the last
    /// drain (or plan attachment), in injection order. Callers poll this
    /// per frame to attribute corrupted readbacks to outputs.
    pub fn drain_copy_faults(&self) -> Vec<CopyFault> {
        let mut state = self.copy_faults.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut state.events)
    }

    /// Whether a buffer's elements (a prefix handle's: its first
    /// `buf.len()`) hold a poisoned region from a corrupted `upload_into`
    /// (cleared by a clean overwrite or free).
    pub fn is_poisoned<T: DeviceScalar>(&self, buf: DevBuf<T>) -> bool {
        let state = self.copy_faults.lock().unwrap_or_else(|e| e.into_inner());
        state.poisoned.get(&buf.id).is_some_and(|r| r.iter().any(|&(start, _)| start < buf.len))
    }

    /// Draw a corruption verdict for one copy touching `buf_id` over
    /// `len` elements. Returns the poisoned region, if any.
    fn draw_copy_fault(&self, buf_id: usize, len: usize) -> Option<(usize, usize)> {
        let mut state = self.copy_faults.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = state.config?;
        if cfg.rate <= 0.0 || len == 0 {
            return None;
        }
        let draw_idx = state.draws;
        state.draws += 1;
        if fault_draw(cfg.seed, FaultDomain::CopyCorruption, draw_idx) >= cfg.rate {
            return None;
        }
        let span = cfg.region_len.clamp(1, len);
        let start = (fault_bits(cfg.seed, FaultDomain::CorruptionOffset, draw_idx) as usize)
            % (len - span + 1);
        state.events.push(CopyFault { buf_id, start, len: span });
        Some((start, span))
    }

    /// Copy host data into an existing buffer. Subject to copy-fault
    /// injection: a corrupted upload zeroes a region of the destination
    /// and marks it poisoned. Panics on length mismatch; use
    /// [`DeviceMemory::try_upload_into`] for a typed error.
    pub fn upload_into<T: DeviceScalar>(&self, buf: DevBuf<T>, data: &[T]) {
        self.try_upload_into(buf, data).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`DeviceMemory::upload_into`].
    pub fn try_upload_into<T: DeviceScalar>(
        &self,
        buf: DevBuf<T>,
        data: &[T],
    ) -> Result<(), MemoryError> {
        let mut dst = self.write(buf);
        if dst.len() != data.len() {
            return Err(MemoryError::CopyLengthMismatch {
                buf_len: dst.len(),
                host_len: data.len(),
            });
        }
        dst.copy_from_slice(data);
        drop(dst);
        // A clean overwrite clears the poison it covers; a corrupted one
        // re-poisons its region.
        {
            let mut state = self.copy_faults.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(regions) = state.poisoned.get_mut(&buf.id) {
                regions.retain(|&(start, span)| start + span > buf.len);
            }
        }
        if let Some((start, span)) = self.draw_copy_fault(buf.id, buf.len) {
            let mut dst = self.write(buf);
            for v in &mut dst[start..start + span] {
                *v = T::default();
            }
            drop(dst);
            let mut state = self.copy_faults.lock().unwrap_or_else(|e| e.into_inner());
            state.poisoned.entry(buf.id).or_default().push((start, span));
        }
        Ok(())
    }

    /// Copy a buffer out to a host vector. Subject to copy-fault
    /// injection: a corrupted download returns data with a zeroed region
    /// (the device copy stays intact) and logs a [`CopyFault`].
    pub fn download<T: DeviceScalar>(&self, buf: DevBuf<T>) -> Vec<T> {
        match self.download_view(buf) {
            Readback::Clean(view) => view.to_vec(),
            Readback::Corrupted(copy) => copy,
        }
    }

    /// [`DeviceMemory::download`] without the copy: the same read guard,
    /// the same corruption draw and the same [`CopyFault`] log entry, but
    /// a clean readback borrows the buffer instead of cloning it. For
    /// callers that read a few elements of a large result.
    pub fn download_view<T: DeviceScalar>(&self, buf: DevBuf<T>) -> Readback<'_, T> {
        let view = self.read(buf);
        match self.draw_copy_fault(buf.id, view.len()) {
            None => Readback::Clean(view),
            Some((start, span)) => {
                let mut copy = view.to_vec();
                copy[start..start + span].fill(T::default());
                Readback::Corrupted(copy)
            }
        }
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Total number of buffer allocations ever performed (`alloc` +
    /// `upload`). Steady-state code paths (e.g. the frame pipeline's
    /// buffer pool) assert this stays constant across iterations.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }
}

/// Where a layout of device buffers comes from: [`DeviceMemory`]
/// allocates each one afresh, a [`Workspace`] fill reuses its own and a
/// [`ByteTally`] only counts.
pub trait BufSource {
    /// The layout's next buffer, `len` elements long.
    fn buf<T: DeviceScalar>(&mut self, len: usize) -> DevBuf<T>;
}

impl BufSource for DeviceMemory {
    fn buf<T: DeviceScalar>(&mut self, len: usize) -> DevBuf<T> {
        self.alloc(len)
    }
}

/// Device buffers that serve a layout at changing sizes. The `i`-th
/// buffer a [`Workspace::fill`] hands out is a [`DevBuf::prefix`] of the
/// workspace's `i`-th buffer, which only grows — freed, then allocated at
/// the requested length — when a request is longer than any before it.
/// A reused buffer keeps its stale contents.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per layout position: arena slot, element type, length, bytes.
    held: Vec<(usize, TypeId, usize, usize)>,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`BufSource`] over this workspace, from its first buffer on.
    pub fn fill<'a>(&'a mut self, mem: &'a mut DeviceMemory) -> WorkspaceFill<'a> {
        WorkspaceFill { ws: self, mem, next: 0 }
    }

    /// Device bytes held.
    pub fn bytes(&self) -> usize {
        self.held.iter().map(|h| h.3).sum()
    }

    /// Free every buffer held.
    pub fn free(self, mem: &mut DeviceMemory) {
        for (id, ..) in self.held {
            mem.free_slot(id);
        }
    }
}

/// A [`Workspace`] handing out its buffers in layout order.
pub struct WorkspaceFill<'a> {
    ws: &'a mut Workspace,
    mem: &'a mut DeviceMemory,
    next: usize,
}

impl BufSource for WorkspaceFill<'_> {
    fn buf<T: DeviceScalar>(&mut self, len: usize) -> DevBuf<T> {
        let (i, ty) = (self.next, TypeId::of::<T>());
        self.next += 1;
        match self.ws.held.get(i) {
            Some(&(id, t, cap, _)) if t == ty && cap >= len => {
                return DevBuf { id, len, _marker: PhantomData };
            }
            Some(&(id, ..)) => self.mem.free_slot(id),
            None => {}
        }
        let buf = self.mem.alloc::<T>(len);
        let held = (buf.id, ty, len, len * std::mem::size_of::<T>());
        match self.ws.held.get_mut(i) {
            Some(slot) => *slot = held,
            None => self.ws.held.push(held),
        }
        buf
    }
}

/// A [`BufSource`] that allocates nothing and adds up the bytes asked of
/// it: a layout's footprint before memory is committed to it. The
/// handles it returns name no buffer.
#[derive(Debug, Default)]
pub struct ByteTally(pub usize);

impl BufSource for ByteTally {
    fn buf<T: DeviceScalar>(&mut self, len: usize) -> DevBuf<T> {
        self.0 += len * std::mem::size_of::<T>();
        DevBuf { id: usize::MAX, len, _marker: PhantomData }
    }
}

/// Offset handle into the constant-memory bank (in 32-bit words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstPtr {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl ConstPtr {
    pub fn len(&self) -> usize {
        self.len
    }
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The 64 KiB constant-memory bank (bump allocated, explicitly resettable).
#[derive(Debug)]
pub struct ConstBank {
    words: Vec<u32>,
    capacity_words: usize,
}

impl ConstBank {
    pub fn new(capacity_bytes: u32) -> Self {
        Self { words: Vec::new(), capacity_words: capacity_bytes as usize / 4 }
    }

    /// Stage words into constant memory; panics when the bank overflows,
    /// like `cudaMemcpyToSymbol` past 64 KiB fails to compile. Use
    /// [`ConstBank::try_upload`] for a typed error.
    pub fn upload(&mut self, data: &[u32]) -> ConstPtr {
        self.try_upload(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ConstBank::upload`]: overflow of the 64 KiB bank by a
    /// user-supplied cascade is reported instead of aborting.
    pub fn try_upload(&mut self, data: &[u32]) -> Result<ConstPtr, MemoryError> {
        if self.words.len() + data.len() > self.capacity_words {
            return Err(MemoryError::ConstOverflow {
                used_words: self.words.len(),
                requested_words: data.len(),
                capacity_words: self.capacity_words,
            });
        }
        let offset = self.words.len();
        self.words.extend_from_slice(data);
        Ok(ConstPtr { offset, len: data.len() })
    }

    /// Reset the bump allocator (between cascades/configurations).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// View of one staged region.
    pub fn slice(&self, ptr: ConstPtr) -> &[u32] {
        &self.words[ptr.offset..ptr.offset + ptr.len]
    }

    /// Words currently staged.
    pub fn used_words(&self) -> usize {
        self.words.len()
    }

    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }
}

/// Handle to a bound texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TexId(pub(crate) usize);

/// A read-only single-channel 2D texture with clamp addressing.
#[derive(Debug, Clone)]
pub struct Texture2D {
    pub width: usize,
    pub height: usize,
    data: Vec<f32>,
}

impl Texture2D {
    /// Panicking constructor; use [`Texture2D::try_from_data`] when the
    /// geometry comes from untrusted input.
    pub fn from_data(width: usize, height: usize, data: Vec<f32>) -> Self {
        Self::try_from_data(width, height, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero extents and size mismatches.
    pub fn try_from_data(
        width: usize,
        height: usize,
        data: Vec<f32>,
    ) -> Result<Self, MemoryError> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(MemoryError::BadTexture { width, height, data_len: data.len() });
        }
        Ok(Self { width, height, data })
    }

    #[inline]
    fn texel(&self, x: isize, y: isize) -> f32 {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.data[yc * self.width + xc]
    }

    /// Nearest-neighbour fetch (`tex2D` with point filtering).
    #[inline]
    pub fn fetch_point(&self, x: f32, y: f32) -> f32 {
        self.texel(x.floor() as isize, y.floor() as isize)
    }

    /// Bilinear fetch (`tex2D` with linear filtering); texel centers at
    /// integer + 0.5 coordinates, following the CUDA convention.
    #[inline]
    pub fn fetch_bilinear(&self, x: f32, y: f32) -> f32 {
        let (tx, ty) = (self.tap_x(x), self.tap_y(y));
        let mut rows = [0.0; 2];
        self.blend_row(ty.lo(), &[tx], &mut rows[..1]);
        self.blend_row(ty.hi(), &[tx], &mut rows[1..]);
        ty.blend(rows[0], rows[1])
    }

    /// The horizontal half of a bilinear fetch at sample coordinate `x`.
    /// A tile that samples the same columns on every row computes its
    /// taps once and passes them to [`Self::blend_row`].
    #[inline]
    pub fn tap_x(&self, x: f32) -> BilinearTap {
        BilinearTap::at(x, self.width)
    }

    /// The vertical half of a bilinear fetch at sample coordinate `y`.
    #[inline]
    pub fn tap_y(&self, y: f32) -> BilinearTap {
        BilinearTap::at(y, self.height)
    }

    /// The horizontal blends of texel row `row` at `taps`. The bilinear
    /// fetch at `(x_i, y)` is `tap_y(y).blend(top[i], bot[i])` over the
    /// blends of rows `tap_y(y).lo()` and `.hi()`, bit for bit; a body
    /// that walks sample rows downwards reuses a texel row's blends for
    /// every sample row that falls next to it.
    #[inline]
    pub fn blend_row(&self, row: usize, taps: &[BilinearTap], out: &mut [f32]) {
        let texels = &self.data[row * self.width..][..self.width];
        for (o, tap) in out.iter_mut().zip(taps) {
            *o = tap.blend(texels[tap.lo()], texels[tap.hi()]);
        }
    }

    /// Replace the texels in place with a `width x height` image, keeping
    /// the storage (it only grows, for a larger extent than it has held).
    pub fn refill(&mut self, width: usize, height: usize, data: &[f32]) -> Result<(), MemoryError> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(MemoryError::BadTexture { width, height, data_len: data.len() });
        }
        (self.width, self.height) = (width, height);
        self.data.clear();
        self.data.extend_from_slice(data);
        Ok(())
    }
}

/// One axis of a bilinear fetch: the two clamped texel indices the sample
/// falls between and the blend weight of the second.
#[derive(Debug, Clone, Copy, Default)]
pub struct BilinearTap {
    lo: u32,
    hi: u32,
    frac: f32,
}

impl BilinearTap {
    #[inline]
    fn at(coord: f32, extent: usize) -> Self {
        let c = coord - 0.5;
        let c0 = c.floor();
        let i = c0 as isize;
        let last = extent as isize - 1;
        Self { lo: i.clamp(0, last) as u32, hi: (i + 1).clamp(0, last) as u32, frac: c - c0 }
    }

    /// The texel index at or before the sample.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo as usize
    }

    /// The texel index after the sample (`lo` again at the far border).
    #[inline]
    pub fn hi(&self) -> usize {
        self.hi as usize
    }

    /// The value at the sample between the values at `lo` and `hi`.
    #[inline]
    pub fn blend(&self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip() {
        let mut mem = DeviceMemory::new();
        let b = mem.upload(&[1u32, 2, 3]);
        assert_eq!(mem.download(b), vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
    }

    impl DeviceMemory {
        /// `download` as it was before it was built on `download_view`.
        fn download_reference<T: DeviceScalar>(&self, buf: DevBuf<T>) -> Vec<T> {
            let mut out = self.read(buf).to_vec();
            if let Some((start, span)) = self.draw_copy_fault(buf.id, out.len()) {
                for v in &mut out[start..start + span] {
                    *v = T::default();
                }
            }
            out
        }
    }

    #[test]
    fn readback_views_equal_owned_downloads_at_every_fault_rate() {
        for rate in [0.0, 0.3, 1.0] {
            let config = CopyFaultConfig { seed: 77, rate, region_len: 5 };
            // Three arenas with one history: views, downloads, and the
            // pre-view download body.
            let mut mems = [DeviceMemory::new(), DeviceMemory::new(), DeviceMemory::new()];
            let lens = [1usize, 4, 5, 6, 64, 300];
            let bufs: Vec<_> = lens
                .iter()
                .map(|&len| {
                    let data: Vec<u32> = (0..len as u32).map(|i| i * 7 + 1).collect();
                    mems.each_mut().map(|m| m.upload(&data))[0]
                })
                .collect();
            for m in &mut mems {
                m.set_copy_faults(Some(config));
            }
            let mut corrupted = 0;
            for copy in 0..240 {
                let buf = bufs[copy % bufs.len()];
                let view = mems[0].download_view(buf);
                corrupted += matches!(view, Readback::Corrupted(_)) as usize;
                let owned = mems[1].download(buf);
                assert_eq!(view.to_vec(), owned, "rate {rate}, copy {copy}");
                assert_eq!(owned, mems[2].download_reference(buf), "rate {rate}, copy {copy}");
                drop(view);
                // Interleave drains so the logs are compared piecewise too.
                if copy % 50 == 49 {
                    let logs = mems.each_ref().map(|m| m.drain_copy_faults());
                    assert!(logs[0] == logs[1] && logs[1] == logs[2], "rate {rate}: fault logs");
                }
            }
            let draws = mems.each_ref().map(|m| m.copy_fault_draws());
            assert_eq!(draws, [if rate > 0.0 { 240 } else { 0 }; 3], "rate {rate}: draws");
            let logs = mems.each_ref().map(|m| m.drain_copy_faults());
            assert!(logs[0] == logs[1] && logs[1] == logs[2], "rate {rate}: fault logs");
            match rate {
                0.0 => assert_eq!(corrupted, 0),
                1.0 => assert_eq!(corrupted, 240),
                _ => assert!((20..220).contains(&corrupted), "{corrupted} of 240 corrupted"),
            }
            // The device copy stays intact under any rate.
            assert_eq!(mems[0].read(bufs[1])[..], [1, 8, 15, 22]);
        }
    }

    #[test]
    fn a_clean_readback_view_blocks_writers_until_dropped() {
        let mut mem = DeviceMemory::new();
        let b = mem.upload(&[3u32, 4]);
        let view = mem.download_view(b);
        assert_eq!(&view[..], &[3, 4]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = mem.write(b);
        }));
        assert!(r.is_err(), "a write view under a live readback is a race");
        drop(view);
    }

    #[test]
    fn write_then_read_sees_update() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc::<f32>(4);
        mem.write(b)[2] = 7.5;
        assert_eq!(mem.read(b)[2], 7.5);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_confusion_panics() {
        let mut mem = DeviceMemory::new();
        let b = mem.upload(&[1u32, 2]);
        let fake = DevBuf::<f32> { id: b.id, len: b.len, _marker: PhantomData };
        let _ = mem.read(fake);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn use_after_free_panics() {
        let mut mem = DeviceMemory::new();
        let b = mem.upload(&[1u32]);
        mem.free(b);
        let _ = mem.read(b);
    }

    #[test]
    fn live_and_peak_bytes_track_allocations() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc::<u32>(100); // 400 bytes
        let b = mem.alloc::<u8>(50); // 50 bytes
        assert_eq!(mem.live_bytes(), 450);
        mem.free(a);
        assert_eq!(mem.live_bytes(), 50);
        assert_eq!(mem.peak_bytes(), 450);
        mem.free(b);
        assert_eq!(mem.live_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "read/write race")]
    fn read_while_write_outstanding_panics() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc::<u32>(4);
        let _w = mem.write(b);
        let _r = mem.read(b);
    }

    #[test]
    #[should_panic(expected = "read/write race")]
    fn write_while_read_outstanding_panics() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc::<u32>(4);
        let _r = mem.read(b);
        let _w = mem.write(b);
    }

    #[test]
    fn disjoint_concurrent_writers_are_allowed() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc::<u32>(8);
        {
            let mut w1 = mem.write(b);
            let mut w2 = mem.write(b);
            w1[0] = 1;
            w2[7] = 7;
        }
        let r = mem.read(b);
        assert_eq!((r[0], r[7]), (1, 7));
    }

    #[test]
    fn concurrent_reads_from_threads() {
        let mut mem = DeviceMemory::new();
        let b = mem.upload(&(0u32..256).collect::<Vec<_>>());
        let mem = std::sync::Arc::new(mem);
        let readers: Vec<_> = (0..4u32)
            .map(|t| {
                let mem = std::sync::Arc::clone(&mem);
                std::thread::spawn(move || assert_eq!(mem.read(b)[t as usize * 10], t * 10))
            })
            .collect();
        for r in readers {
            r.join().expect("reader thread");
        }
        assert_eq!(mem.read(b).len(), 256);
    }

    #[test]
    fn alloc_count_tracks_allocations_not_frees() {
        let mut mem = DeviceMemory::new();
        assert_eq!(mem.alloc_count(), 0);
        let a = mem.alloc::<u32>(4);
        let b = mem.upload(&[1u8, 2]);
        assert_eq!(mem.alloc_count(), 2);
        mem.free(a);
        mem.free(b);
        assert_eq!(mem.alloc_count(), 2, "frees do not change the alloc count");
    }

    #[test]
    fn a_prefix_handle_sees_exactly_its_elements() {
        let mut mem = DeviceMemory::new();
        let b = mem.upload(&[1u32, 2, 3, 4, 5]);
        let p = b.prefix(3);
        assert_eq!((p.len(), p.raw_id()), (3, b.raw_id()));
        assert_eq!(mem.download(p), vec![1, 2, 3]);
        mem.write(p).copy_from_slice(&[7, 8, 9]);
        assert_eq!(mem.download(b), vec![7, 8, 9, 4, 5], "the tail is untouched");
        assert!(mem.try_upload_into(p, &[0; 5]).is_err(), "uploads see the prefix length");
        // A corrupted copy draws its region inside the prefix.
        mem.set_copy_faults(Some(CopyFaultConfig { seed: 3, rate: 1.0, region_len: 2 }));
        for _ in 0..20 {
            assert_eq!(mem.download_view(p).len(), 3);
        }
        assert!(mem.drain_copy_faults().iter().all(|f| f.start + f.len <= 3));
    }

    #[test]
    fn a_workspace_grows_a_buffer_only_past_its_longest_request() {
        let mut mem = DeviceMemory::new();
        let mut ws = Workspace::new();
        let layout = |ws: &mut Workspace, mem: &mut DeviceMemory, n: usize| {
            let mut src = ws.fill(mem);
            (src.buf::<u32>(n), src.buf::<f32>(2 * n))
        };
        let (a, b) = layout(&mut ws, &mut mem, 10);
        assert_eq!((mem.alloc_count(), ws.bytes(), mem.live_bytes()), (2, 120, 120));
        // Shorter requests are prefixes of the same buffers.
        let (a2, b2) = layout(&mut ws, &mut mem, 4);
        assert_eq!((a2.raw_id(), a2.len(), b2.raw_id(), b2.len()), (a.raw_id(), 4, b.raw_id(), 8));
        assert_eq!(mem.alloc_count(), 2);
        // A longer one frees and reallocates each buffer in turn.
        let (a3, _) = layout(&mut ws, &mut mem, 20);
        assert_ne!(a3.raw_id(), a.raw_id());
        assert_eq!((mem.alloc_count(), ws.bytes(), mem.live_bytes()), (4, 240, 240));
        assert_eq!(mem.peak_bytes(), 240, "each buffer is freed before its successor");
        // The same position at another element type is a new buffer.
        let mut src = ws.fill(&mut mem);
        let c = src.buf::<u8>(4);
        assert_eq!((mem.alloc_count(), mem.live_bytes()), (5, 160 + 4));
        assert_eq!(mem.download(c), vec![0; 4]);
        ws.free(&mut mem);
        assert_eq!(mem.live_bytes(), 0);
    }

    #[test]
    fn a_texture_refill_may_change_its_extent() {
        let mut t = Texture2D::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        t.refill(3, 1, &[5.0, 6.0, 7.0]).unwrap();
        assert_eq!((t.width, t.height, t.fetch_point(2.0, 0.0)), (3, 1, 7.0));
        assert_eq!(t.fetch_point(0.0, 5.0), 5.0, "clamped to the new extent");
        assert!(t.refill(2, 2, &[0.0; 3]).is_err());
        assert!(t.refill(0, 3, &[]).is_err());
    }

    #[test]
    fn a_byte_tally_counts_what_a_layout_would_allocate() {
        let mut tally = ByteTally::default();
        let _: DevBuf<u32> = tally.buf(10);
        let _: DevBuf<u8> = tally.buf(3);
        assert_eq!(tally.0, 43);
    }

    #[test]
    fn const_bank_bump_allocates_and_overflows() {
        let mut bank = ConstBank::new(16); // 4 words
        let p = bank.upload(&[1, 2, 3]);
        assert_eq!(bank.slice(p), &[1, 2, 3]);
        assert_eq!(bank.used_words(), 3);
        let q = bank.upload(&[9]);
        assert_eq!(bank.slice(q), &[9]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bank.upload(&[0]);
        }));
        assert!(r.is_err(), "fifth word must overflow a 16-byte bank");
    }

    #[test]
    fn texture_point_fetch_clamps() {
        let t = Texture2D::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.fetch_point(-5.0, -5.0), 1.0);
        assert_eq!(t.fetch_point(10.0, 10.0), 4.0);
        assert_eq!(t.fetch_point(1.0, 0.0), 2.0);
    }

    impl Texture2D {
        /// `fetch_bilinear` as it was before the per-axis taps.
        fn fetch_bilinear_reference(&self, x: f32, y: f32) -> f32 {
            let xb = x - 0.5;
            let yb = y - 0.5;
            let x0 = xb.floor();
            let y0 = yb.floor();
            let fx = xb - x0;
            let fy = yb - y0;
            let x0 = x0 as isize;
            let y0 = y0 as isize;
            let t00 = self.texel(x0, y0);
            let t10 = self.texel(x0 + 1, y0);
            let t01 = self.texel(x0, y0 + 1);
            let t11 = self.texel(x0 + 1, y0 + 1);
            let top = t00 + (t10 - t00) * fx;
            let bot = t01 + (t11 - t01) * fx;
            top + (bot - top) * fy
        }
    }

    #[test]
    fn bilinear_row_fetch_equals_the_per_pixel_fetch_bit_for_bit() {
        // The fault injector's hash as a seeded stream for geometry,
        // texels and coordinates.
        let mut counter = 0u64;
        let mut next = move || {
            counter += 1;
            fault_bits(0xB111_EA20, FaultDomain::CorruptionOffset, counter)
        };
        for _ in 0..400 {
            let (w, h) = (1 + (next() % 40) as usize, 1 + (next() % 40) as usize);
            let data = (0..w * h).map(|_| (next() % 5120) as f32 / 16.0 - 32.0).collect();
            let tex = Texture2D::from_data(w, h, data);
            // Coordinates inside, on texel centres and edges, and far
            // outside the texture on both sides.
            let mut coord = |extent: usize| match next() % 4 {
                0 => (next() % (extent as u64 + 1)) as f32,
                1 => (next() % (extent as u64 + 1)) as f32 + 0.5,
                2 => (next() % 4096) as f32 / 64.0 - 12.0,
                _ => ((next() % 2000) as f32 - 1000.0) * 1e4,
            };
            let xs: Vec<f32> = (0..33).map(|_| coord(w)).collect();
            let taps: Vec<_> = xs.iter().map(|&x| tex.tap_x(x)).collect();
            let y = coord(h);
            let ty = tex.tap_y(y);
            let (mut top, mut bot) = (vec![0.0f32; xs.len()], vec![0.0f32; xs.len()]);
            tex.blend_row(ty.lo(), &taps, &mut top);
            tex.blend_row(ty.hi(), &taps, &mut bot);
            for (i, &x) in xs.iter().enumerate() {
                let got = ty.blend(top[i], bot[i]);
                let want = tex.fetch_bilinear_reference(x, y);
                assert_eq!(got.to_bits(), want.to_bits(), "{w}x{h} at ({x}, {y})");
                assert_eq!(tex.fetch_bilinear(x, y).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn texture_bilinear_interpolates_midpoints() {
        let t = Texture2D::from_data(2, 1, vec![0.0, 10.0]);
        // Texel centers at x=0.5 and x=1.5; x=1.0 is halfway.
        assert!((t.fetch_bilinear(1.0, 0.5) - 5.0).abs() < 1e-6);
        // At texel centers the fetch returns the texel exactly.
        assert!((t.fetch_bilinear(0.5, 0.5) - 0.0).abs() < 1e-6);
        assert!((t.fetch_bilinear(1.5, 0.5) - 10.0).abs() < 1e-6);
    }
}
