//! The session-based workload API: [`RpuBuilder`], [`RpuSession`],
//! [`KernelCache`], and [`PrimeTable`].
//!
//! Real RLWE traffic runs the *same* handful of kernels over and over —
//! the same ring degrees, the same RNS tower primes, forward and inverse
//! transforms, pointwise ciphertext arithmetic. A session amortizes
//! everything that is per-*kernel* rather than per-*run*: SPIRAL-style
//! program generation, functional verification against the golden model,
//! and the NTT-prime search. Beyond kernel caching, a session owns the
//! **device state** of a simulated RPU: ring data uploaded once lives in
//! a resident-buffer heap ([`RpuSession::alloc`] /
//! [`upload`](RpuSession::upload)) and a stream of compiled kernels is
//! [`dispatch`](RpuSession::dispatch)ed over it without any host round
//! trips — the paper's execution model (Section II), where the VDM holds
//! the working set and the host only uploads inputs and downloads final
//! results.
//!
//! ```
//! use rpu::{CodegenStyle, Direction, Rpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().geometry(128, 128).build()?;
//! let mut session = rpu.session();
//! let cold = session.ntt(1024, Direction::Forward, CodegenStyle::Optimized)?;
//! let warm = session.ntt(1024, Direction::Forward, CodegenStyle::Optimized)?;
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert_eq!(cold.stats.cycles, warm.stats.cycles);
//! # Ok(())
//! # }
//! ```
//!
//! A resident pipeline — upload once, dispatch a chain, download once:
//!
//! ```
//! use rpu::{CodegenStyle, ElementwiseOp, ElementwiseSpec, Rpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().build()?;
//! let mut s = rpu.session();
//! let q = s.primes_for(1024)?;
//! let mul = s.compile(&ElementwiseSpec::new(
//!     ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized))?;
//! let x = s.upload(&vec![3u128; 1024])?;        // host → device, once
//! let w = s.upload(&vec![5u128; 1024])?;
//! let y = s.alloc(1024)?;
//! s.dispatch(&mul, &[x, w], &[y])?;             // no host traffic
//! let r = s.dispatch(&mul, &[y, w], &[x])?;     // chain over residents
//! assert!(r.transfer.image_reused && r.transfer.host_to_device == 0);
//! assert_eq!(s.download(&x)?[0], 75);           // device → host, once
//! # Ok(())
//! # }
//! ```

use crate::buffer::{BufferAllocator, BufferError, DeviceBuffer, TransferStats};
use crate::run::{Rpu, RunReport};
use crate::snapshot::{self, SessionImage, SnapshotError};
use crate::trace::{self, DispatchEvent, TraceSink};
use crate::RpuError;
use rpu_codegen::{CodegenStyle, Direction, Kernel, KernelKey, KernelSpec, NttSpec};
use rpu_isa::AReg;
use rpu_model::{AreaModel, EnergyModel};
use rpu_sim::{FunctionalSim, RpuConfig, SimStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Default bit width of session-chosen NTT primes (the paper's 128-bit
/// coefficient pipeline leaves headroom for lazy reduction).
const DEFAULT_PRIME_BITS: u32 = 126;

/// Widest prime the 128-bit datapath supports: moduli must stay below
/// 2^127 for the lazy-reduction headroom the compute units assume.
const MAX_PRIME_BITS: u32 = 126;

/// Builder for a configured [`Rpu`]: microarchitecture, hardware models,
/// clock, and session policies (prime width, kernel-cache bound, device
/// heap size).
///
/// # Examples
///
/// ```
/// use rpu::Rpu;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's (128, 128) design point at its derived 1.68 GHz clock.
/// let rpu = Rpu::builder().build()?;
/// // A what-if: the same machine clocked at 2 GHz with 60-bit primes
/// // and a bounded kernel cache.
/// let fast = Rpu::builder()
///     .clock_ghz(2.0)
///     .prime_bits(60)
///     .kernel_cache_capacity(8)
///     .build()?;
/// assert!(fast.clock_ghz() > rpu.clock_ghz());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RpuBuilder {
    config: RpuConfig,
    area_model: AreaModel,
    energy_model: EnergyModel,
    clock_ghz: Option<f64>,
    prime_bits: u32,
    kernel_cache_capacity: Option<usize>,
    device_heap_elements: Option<usize>,
    lanes: usize,
    force_interpreter: bool,
    trace: Option<Arc<dyn TraceSink>>,
}

/// Most lanes a cluster may be built with: past this the simulated VDM
/// heaps dwarf any host the simulator runs on.
pub(crate) const MAX_LANES: usize = 64;

impl Default for RpuBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RpuBuilder {
    /// Starts from the paper's best design point ((128, 128), default
    /// models, VDM-derived clock).
    pub fn new() -> Self {
        RpuBuilder {
            config: RpuConfig::pareto_128x128(),
            area_model: AreaModel::default(),
            energy_model: EnergyModel::default(),
            clock_ghz: None,
            prime_bits: DEFAULT_PRIME_BITS,
            kernel_cache_capacity: None,
            device_heap_elements: None,
            lanes: 1,
            force_interpreter: false,
            trace: None,
        }
    }

    /// Sets the full microarchitectural configuration.
    pub fn config(mut self, config: RpuConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the (HPLEs, VDM banks) geometry, keeping other parameters at
    /// their defaults.
    pub fn geometry(mut self, hples: usize, banks: usize) -> Self {
        self.config = RpuConfig::with_geometry(hples, banks);
        self
    }

    /// Overrides the area model.
    pub fn area_model(mut self, model: AreaModel) -> Self {
        self.area_model = model;
        self
    }

    /// Overrides the energy model.
    pub fn energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// Overrides the clock. By default the clock is derived from the VDM
    /// geometry ([`RpuConfig::frequency_ghz`]); an explicit value models
    /// a different process corner without touching cycle counts.
    pub fn clock_ghz(mut self, ghz: f64) -> Self {
        self.clock_ghz = Some(ghz);
        self
    }

    /// Sets the bit width of session-chosen NTT primes (default 126).
    /// Narrower primes model cheaper RNS towers; widths above 126 are
    /// rejected at [`build`](RpuBuilder::build) because the 128-bit
    /// pipeline needs lazy-reduction headroom below 2^127.
    pub fn prime_bits(mut self, bits: u32) -> Self {
        self.prime_bits = bits;
        self
    }

    /// Bounds each session's kernel cache to at most `capacity` entries,
    /// evicted least-recently-used. Unbounded by default; a zero
    /// capacity is rejected at [`build`](RpuBuilder::build).
    pub fn kernel_cache_capacity(mut self, capacity: usize) -> Self {
        self.kernel_cache_capacity = Some(capacity);
        self
    }

    /// Sets the capacity, in 128-bit elements, of the device-resident
    /// buffer heap each session lays out above its kernel workspace
    /// (default: one configured-VDM's worth). Workspace + heap must fit
    /// the 32 MiB architectural VDM maximum.
    pub fn device_heap_elements(mut self, elements: usize) -> Self {
        self.device_heap_elements = Some(elements);
        self
    }

    /// Sets how many independent RPU lanes `Rpu::cluster` builds
    /// (default 1). Each lane is a full session — its own device heap,
    /// kernel cache, and functional simulator — so `k` lanes model `k`
    /// RPU dies fed by one host, the scale-out axis of the paper's RNS
    /// decomposition (every tower is independent work).
    pub fn lanes(mut self, k: usize) -> Self {
        self.lanes = k;
        self
    }

    /// Forces sessions to execute kernels with the step-by-step
    /// reference interpreter instead of the pre-decoded fast path.
    ///
    /// Dispatch results are bit-identical either way (the interpreter is
    /// the fast path's oracle — see `FunctionalSim`'s
    /// interpreter-as-oracle contract); this switch exists for
    /// differential testing and for debugging suspected fast-path
    /// divergences at the cost of much slower dispatches.
    pub fn force_interpreter(mut self, force: bool) -> Self {
        self.force_interpreter = force;
        self
    }

    /// Installs a structured dispatch-trace sink: every session (and
    /// every cluster lane) on the built RPU records one
    /// [`DispatchEvent`] per successful dispatch to it. The default
    /// [`RingTraceSink`](crate::RingTraceSink) keeps a bounded ring of
    /// recent events in faithful dispatch order; keep your own clone of
    /// the [`Arc`] to read them back.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Builds the [`Rpu`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] for invalid configurations, a
    /// non-positive clock override, an unsupported prime width, a
    /// zero-entry kernel-cache bound, a lane count outside
    /// `[1, 64]`, or a device heap that overflows the architectural VDM.
    pub fn build(self) -> Result<Rpu, RpuError> {
        if let Some(ghz) = self.clock_ghz {
            if !(ghz.is_finite() && ghz > 0.0) {
                return Err(RpuError::Config(format!(
                    "clock override must be a positive frequency, got {ghz}"
                )));
            }
        }
        if !(2..=MAX_PRIME_BITS).contains(&self.prime_bits) {
            return Err(RpuError::Config(format!(
                "prime_bits must be in [2, {MAX_PRIME_BITS}] (the 128-bit pipeline \
                 keeps moduli below 2^127 for lazy reduction), got {}",
                self.prime_bits
            )));
        }
        if self.kernel_cache_capacity == Some(0) {
            return Err(RpuError::Config(
                "kernel_cache_capacity must be at least 1".into(),
            ));
        }
        if !(1..=MAX_LANES).contains(&self.lanes) {
            return Err(RpuError::Config(format!(
                "lanes must be in [1, {MAX_LANES}], got {}",
                self.lanes
            )));
        }
        let max = rpu_isa::consts::VDM_MAX_BYTES / rpu_isa::consts::ELEM_BYTES;
        let workspace = self.config.vdm_elements();
        let heap = match self.device_heap_elements {
            Some(heap) => {
                if workspace + heap > max {
                    return Err(RpuError::Config(format!(
                        "workspace ({workspace}) + device heap ({heap}) elements exceed \
                         the {max}-element (32 MiB) architectural VDM"
                    )));
                }
                heap
            }
            // Default: one configured-VDM's worth, clamped so workspace +
            // heap never exceeds the architectural maximum.
            None => workspace.min(max.saturating_sub(workspace)),
        };
        Rpu::from_builder(
            self.config,
            self.area_model,
            self.energy_model,
            self.clock_ghz,
            self.prime_bits,
            self.kernel_cache_capacity,
            heap,
            self.lanes,
            self.force_interpreter,
            self.trace,
        )
    }
}

/// Memoized NTT-prime lookup: one [`rpu_arith::find_ntt_prime_u128`]
/// search per ring degree, shared by every spec the session builds.
#[derive(Debug, Clone)]
pub struct PrimeTable {
    primes: HashMap<usize, u128>,
    bits: u32,
}

impl Default for PrimeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PrimeTable {
    /// Creates an empty table of default (~126-bit) primes.
    pub fn new() -> Self {
        Self::with_bits(DEFAULT_PRIME_BITS)
    }

    /// Creates an empty table searching `bits`-bit primes (what sessions
    /// on an [`RpuBuilder::prime_bits`]-configured RPU use).
    pub fn with_bits(bits: u32) -> Self {
        PrimeTable {
            primes: HashMap::new(),
            bits,
        }
    }

    /// The prime width this table searches.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The table's NTT prime for ring degree `n` (`q ≡ 1 (mod 2n)`),
    /// memoized across calls. The search itself is bounded (see
    /// [`rpu_arith::find_ntt_prime_u128`]), and impossible requests —
    /// a degree that is not a power of two, or a `prime_bits` width too
    /// narrow to hold any `k·2n + 1` — come back as clean errors instead
    /// of panicking inside the searcher or walking forever.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] for a zero / non-power-of-two degree
    /// or a width outside `[2, 126]`, and [`RpuError::NoPrime`] if no
    /// prime `q < 2^bits` with `q ≡ 1 (mod 2n)` exists (e.g. 8-bit
    /// primes for n = 4096: the smallest candidate, `2n + 1 = 8193`,
    /// already overflows the width).
    pub fn ntt_prime(&mut self, n: usize) -> Result<u128, RpuError> {
        if let Some(&q) = self.primes.get(&n) {
            return Ok(q);
        }
        if n == 0 || !n.is_power_of_two() || n > 1 << 40 {
            return Err(RpuError::Config(format!(
                "NTT ring degree must be a power of two (got {n})"
            )));
        }
        if !(2..=MAX_PRIME_BITS).contains(&self.bits) {
            return Err(RpuError::Config(format!(
                "prime table width must be in [2, {MAX_PRIME_BITS}] bits, got {}",
                self.bits
            )));
        }
        // Reject widths that cannot even represent the smallest
        // candidate 2n + 1 up front — the stride search would scan
        // nothing, but the error should say *why*.
        if (1u128 << self.bits) <= 2 * n as u128 + 1 {
            return Err(RpuError::NoPrime { degree: n });
        }
        let q = rpu_arith::find_ntt_prime_u128(self.bits, 2 * n as u128)
            .ok_or(RpuError::NoPrime { degree: n })?;
        self.primes.insert(n, q);
        Ok(q)
    }
}

/// A cached kernel: the generated program bundle plus its (lazily
/// computed) functional-verification verdict.
#[derive(Debug, Clone)]
pub struct CachedKernel {
    /// The generated kernel.
    pub kernel: Arc<Kernel>,
    /// `Some(true)` once the kernel has been checked against its golden
    /// model; `None` if verification has not been requested yet.
    pub verified: Option<bool>,
}

/// Counters describing a [`KernelCache`]'s behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (no regeneration).
    pub hits: u64,
    /// Lookups that required generating a kernel.
    pub misses: u64,
    /// Kernels currently cached.
    pub entries: usize,
    /// Kernels evicted to stay within the LRU capacity.
    pub evictions: u64,
    /// The LRU bound, if the cache is bounded.
    pub capacity: Option<usize>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    cached: CachedKernel,
    /// Monotonic last-use stamp for LRU eviction.
    stamp: u64,
}

/// A cache of generated kernels keyed by [`KernelKey`] — the `(op, n, q,
/// direction, style)` identity of a spec.
///
/// Sessions own one internally; the figure-regeneration binaries share
/// one across sweeps. Generation is the expensive step (schedule
/// construction, emission, list scheduling, and optionally functional
/// verification), so a hit skips all of it. An optional capacity bounds
/// the cache with least-recently-used eviction so long-lived sessions
/// serving diverse traffic cannot grow without limit.
#[derive(Debug, Default)]
pub struct KernelCache {
    map: HashMap<KernelKey, CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    capacity: Option<usize>,
    tick: u64,
}

impl KernelCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded to `capacity` entries (LRU).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "kernel cache capacity must be at least 1");
        KernelCache {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// The LRU bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Returns the cached (or freshly generated) kernel for `spec`,
    /// plus whether it was a cache hit. With `verify` set, the entry is
    /// checked against its golden model on first need and the verdict is
    /// cached alongside the kernel. On a miss in a full bounded cache,
    /// the least-recently-used entry is evicted first.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Codegen`] if generation fails or
    /// [`RpuError::Exec`] if verification faults.
    pub fn get_or_generate<S: KernelSpec + ?Sized>(
        &mut self,
        spec: &S,
        verify: bool,
    ) -> Result<(CachedKernel, bool), RpuError> {
        let key = spec.key();
        self.tick += 1;
        let hit = self.map.contains_key(&key);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            let kernel = Arc::new(spec.generate()?);
            if let Some(cap) = self.capacity {
                while self.map.len() >= cap {
                    let lru = self
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(k, _)| *k)
                        .expect("cache is non-empty");
                    self.map.remove(&lru);
                    self.evictions += 1;
                }
            }
            self.map.insert(
                key,
                CacheEntry {
                    cached: CachedKernel {
                        kernel,
                        verified: None,
                    },
                    stamp: 0,
                },
            );
        }
        let tick = self.tick;
        let entry = self.map.get_mut(&key).expect("inserted above");
        entry.stamp = tick;
        if verify && entry.cached.verified.is_none() {
            entry.cached.verified = Some(entry.cached.kernel.verify().map_err(RpuError::Exec)?);
        }
        Ok((entry.cached.clone(), hit))
    }

    /// The cached entry for `key`, without counting a hit or touching
    /// LRU order — introspection only. (Verification verdicts travel on
    /// the kernel itself, [`Kernel::verification`]; sessions use `peek`
    /// to prune their timing memo after evictions.)
    pub fn peek(&self, key: &KernelKey) -> Option<&CachedKernel> {
        self.map.get(key).map(|e| &e.cached)
    }

    /// Hit/miss/occupancy/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            evictions: self.evictions,
            capacity: self.capacity,
        }
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The key of every cached kernel, sorted by wire encoding so the
    /// order (and thus a snapshot's bytes) is deterministic.
    pub fn keys(&self) -> Vec<KernelKey> {
        let mut keys: Vec<KernelKey> = self.map.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.to_bytes());
        keys
    }

    /// Replaces the cached kernels with `kernels` (snapshot restore):
    /// the map is cleared, each kernel is inserted unverified, and — for
    /// a bounded cache — least-recently-inserted entries are evicted if
    /// the restored set exceeds the capacity. Hit/miss counters are
    /// diagnostics, not device state, and are kept.
    pub(crate) fn reseed(&mut self, kernels: Vec<Arc<Kernel>>) {
        self.map.clear();
        for kernel in kernels {
            self.tick += 1;
            if let Some(cap) = self.capacity {
                while self.map.len() >= cap {
                    let lru = self
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(k, _)| *k)
                        .expect("cache is non-empty");
                    self.map.remove(&lru);
                    self.evictions += 1;
                }
            }
            self.map.insert(
                kernel.key(),
                CacheEntry {
                    cached: CachedKernel {
                        kernel,
                        verified: None,
                    },
                    stamp: self.tick,
                },
            );
        }
    }
}

/// The persistent device state of a session: the functional simulator
/// holding VDM/SDM contents across dispatches, the resident-buffer
/// allocator above the kernel workspace, and the identity of the kernel
/// image currently loaded in the workspace.
#[derive(Debug)]
struct DeviceState {
    sim: FunctionalSim,
    /// Elements reserved for kernel working sets at the bottom of the
    /// VDM (the configured VDM capacity).
    workspace: usize,
    heap: BufferAllocator,
    /// The kernel whose constant image currently occupies the
    /// workspace; dispatches of the same kernel skip the image rewrite.
    loaded: Option<KernelKey>,
}

impl DeviceState {
    fn new(workspace: usize, heap_elements: usize) -> Self {
        DeviceState {
            // Lazily grown: nothing is allocated until a dispatch or an
            // upload actually needs device memory.
            sim: FunctionalSim::new(0, 0),
            workspace,
            heap: BufferAllocator::new(workspace, heap_elements),
            loaded: None,
        }
    }

    /// Grows the simulator to cover the workspace requirement plus every
    /// heap offset ever allocated.
    fn ensure(&mut self, workspace_needed: usize, sdm_needed: usize) {
        self.sim
            .ensure_vdm(workspace_needed.max(self.heap.high_water_end()));
        self.sim.ensure_sdm(sdm_needed.max(16));
    }
}

/// A workload session on an [`Rpu`]: owns a [`KernelCache`], a
/// [`PrimeTable`], and the device state — resident buffers plus the
/// functional simulator they live in — so repeated, batched, and
/// pipelined runs amortize generation *and* data movement.
///
/// Created by [`Rpu::session`]. Two styles of use:
///
/// * **One-shot**: [`run`](RpuSession::run) / [`ntt`](RpuSession::ntt)
///   — upload-dispatch-download per call, kernel generation amortized by
///   the cache. Every call pays the full host round trip.
/// * **Resident**: [`upload`](RpuSession::upload) operands once,
///   [`compile`](RpuSession::compile) kernels once per shape, then
///   [`dispatch`](RpuSession::dispatch) chains over [`DeviceBuffer`]s;
///   an L-op pipeline costs 1 upload + L dispatches + 1
///   [`download`](RpuSession::download) instead of L round trips.
#[derive(Debug)]
pub struct RpuSession<'a> {
    rpu: &'a Rpu,
    cache: KernelCache,
    primes: PrimeTable,
    device: DeviceState,
    /// Memoized cycle-simulation results per kernel: timing is a pure
    /// function of the program, so warm dispatches skip re-simulation.
    timing: HashMap<KernelKey, SimStats>,
    /// Lane index recorded on this session's trace events (0 for a
    /// standalone session; clusters set per-lane indices).
    lane: usize,
}

impl<'a> RpuSession<'a> {
    pub(crate) fn new(rpu: &'a Rpu) -> Self {
        RpuSession {
            rpu,
            cache: match rpu.kernel_cache_capacity() {
                Some(cap) => KernelCache::with_capacity(cap),
                None => KernelCache::new(),
            },
            primes: PrimeTable::with_bits(rpu.prime_bits()),
            device: DeviceState::new(rpu.config().vdm_elements(), rpu.device_heap_elements()),
            timing: HashMap::new(),
            lane: 0,
        }
    }

    /// Sets the lane index stamped on this session's trace events.
    pub(crate) fn set_lane(&mut self, lane: usize) {
        self.lane = lane;
    }

    /// The RPU this session runs on.
    pub fn rpu(&self) -> &Rpu {
        self.rpu
    }

    /// The session's memoized default NTT prime for ring degree `n` —
    /// the prime [`ntt`](RpuSession::ntt) and the figure binaries use
    /// ([`Rpu::prime_bits`] wide).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::NoPrime`] if no such prime exists.
    pub fn primes_for(&mut self, n: usize) -> Result<u128, RpuError> {
        self.primes.ntt_prime(n)
    }

    // ------------------------------------------------------------------
    // Resident-buffer API
    // ------------------------------------------------------------------

    /// Allocates `len` elements of device-resident memory (contents
    /// undefined until written).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the heap is exhausted.
    pub fn alloc(&mut self, len: usize) -> Result<DeviceBuffer, RpuError> {
        let buf = self.device.heap.alloc(len)?;
        self.device.ensure(0, 0);
        Ok(buf)
    }

    /// Uploads `data` into a freshly allocated device buffer (the one
    /// host → device transfer of a resident pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the heap is exhausted.
    pub fn upload(&mut self, data: &[u128]) -> Result<DeviceBuffer, RpuError> {
        let buf = self.alloc(data.len())?;
        self.device
            .sim
            .write_vdm(buf.offset_elements(), data)
            .map_err(RpuError::Exec)?;
        Ok(buf)
    }

    /// Overwrites an existing device buffer with `data` (buffer reuse
    /// instead of free + upload).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles or a length
    /// mismatch.
    pub fn write(&mut self, buf: &DeviceBuffer, data: &[u128]) -> Result<(), RpuError> {
        let (offset, len) = self.device.heap.resolve(buf)?;
        if data.len() != len {
            return Err(BufferError::LengthMismatch {
                expected: len,
                got: data.len(),
            }
            .into());
        }
        self.device
            .sim
            .write_vdm(offset, data)
            .map_err(RpuError::Exec)?;
        Ok(())
    }

    /// Downloads a device buffer's contents (the one device → host
    /// transfer of a resident pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn download(&mut self, buf: &DeviceBuffer) -> Result<Vec<u128>, RpuError> {
        let (offset, len) = self.device.heap.resolve(buf)?;
        self.device
            .sim
            .read_vdm(offset, len)
            .map_err(RpuError::Exec)
    }

    /// Frees a device buffer; the handle becomes stale and the space is
    /// immediately reusable.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles (double frees
    /// included).
    pub fn free(&mut self, buf: DeviceBuffer) -> Result<(), RpuError> {
        Ok(self.device.heap.free(&buf)?)
    }

    /// `true` if `buf` is a live allocation of *this* session's heap
    /// (lane-locating probe for the cluster layer).
    pub(crate) fn owns(&self, buf: &DeviceBuffer) -> bool {
        self.device.heap.resolve(buf).is_ok()
    }

    /// Device-heap elements currently allocated.
    pub fn device_mem_in_use(&self) -> usize {
        self.device.heap.in_use()
    }

    /// Number of live device buffers.
    pub fn live_buffers(&self) -> usize {
        self.device.heap.live_buffers()
    }

    /// Device-heap capacity in elements
    /// ([`RpuBuilder::device_heap_elements`]).
    pub fn device_heap_capacity(&self) -> usize {
        self.device.heap.capacity()
    }

    /// Compiles (or recalls) the kernel for `spec` and verifies it once
    /// against its golden model — the per-*shape* step of the
    /// accelerator-runtime model. The result is what
    /// [`dispatch`](RpuSession::dispatch) binds data to.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation fails or verification
    /// *faults*. A clean verification mismatch is not an error: the
    /// verdict is memoized on the kernel ([`Kernel::verification`]) and
    /// surfaces as `verified: false` on every report.
    pub fn compile<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<Arc<Kernel>, RpuError> {
        let (entry, _) = self.cache.get_or_generate(spec, true)?;
        Ok(entry.kernel)
    }

    /// Dispatches a compiled kernel over device-resident buffers: binds
    /// `inputs` to the kernel's operand windows with on-device copies,
    /// executes the program on the session's persistent simulator, and
    /// writes the result into `outputs` — **no host data movement**.
    /// Consecutive dispatches of the same kernel also skip reloading its
    /// constant image (`transfer.image_reused`).
    ///
    /// `outputs` is one or more buffers whose lengths, in order, tile the
    /// kernel's output window ([`Kernel::output_range`]): the first
    /// buffer receives the window's leading elements, the next buffer
    /// the elements after those, and so on. One full-length buffer is
    /// the common case; a multi-output kernel such as the two-component
    /// key-switch digit kernel writes each component into its own
    /// buffer this way. Every handle and length is validated before any
    /// device state changes.
    ///
    /// The report's `verified` flag is the verdict memoized on the
    /// kernel itself ([`Kernel::verification`]), so it survives cache
    /// eviction; `cache_hit` is always `true` — a dispatch never
    /// generates anything.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles, an operand-count
    /// mismatch or an empty `outputs` ([`BufferError::ArityMismatch`]),
    /// operand lengths or output tiles that do not match the kernel
    /// ([`BufferError::LengthMismatch`]), or a kernel too large for the
    /// workspace, and [`RpuError::Exec`] if the program faults.
    pub fn dispatch(
        &mut self,
        kernel: &Arc<Kernel>,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<RunReport, RpuError> {
        let key = kernel.key();
        let verified = kernel.verification().unwrap_or(false);
        let cache_hit = true;
        let started = Instant::now();
        let transfer = self.dispatch_raw(kernel, inputs, outputs)?;
        let stats = self.timed(kernel);
        if let Some(sink) = self.rpu.trace_sink() {
            sink.record(DispatchEvent {
                seq: 0, // the sink assigns the real sequence number
                key,
                engine: kernel.engine(),
                lane: self.lane,
                inputs: inputs.iter().map(DeviceBuffer::id).collect(),
                outputs: outputs.iter().map(DeviceBuffer::id).collect(),
                cycles: stats.cycles,
                wall_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                tenant: trace::current_tenant(),
            });
        }
        let mut report =
            self.rpu
                .assemble_report(kernel.program(), key, Some(stats), verified, cache_hit);
        report.transfer = transfer;
        Ok(report)
    }

    /// The data-movement core of a dispatch (no timing, no report).
    fn dispatch_raw(
        &mut self,
        kernel: &Kernel,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<TransferStats, RpuError> {
        if inputs.len() != kernel.arity() {
            return Err(BufferError::ArityMismatch {
                expected: kernel.arity(),
                got: inputs.len(),
            }
            .into());
        }
        if outputs.is_empty() {
            return Err(BufferError::ArityMismatch {
                expected: 1,
                got: 0,
            }
            .into());
        }
        let workspace_needed = kernel.total_elements();
        if workspace_needed > self.device.workspace {
            return Err(BufferError::WorkspaceOverflow {
                required: workspace_needed,
                capacity: self.device.workspace,
            }
            .into());
        }
        // Resolve every handle before touching device state.
        let mut in_locs = Vec::with_capacity(inputs.len());
        for (buf, &(_, need)) in inputs.iter().zip(kernel.input_ranges()) {
            let (offset, len) = self.device.heap.resolve(buf)?;
            if len != need {
                return Err(BufferError::LengthMismatch {
                    expected: need,
                    got: len,
                }
                .into());
            }
            in_locs.push(offset);
        }
        // The output buffers tile the kernel's output window in order.
        let (out_ws, out_len) = kernel.output_range();
        let mut out_locs = Vec::with_capacity(outputs.len());
        for buf in outputs {
            out_locs.push(self.device.heap.resolve(buf)?);
        }
        let tiled: usize = out_locs.iter().map(|&(_, len)| len).sum();
        if tiled != out_len {
            return Err(BufferError::LengthMismatch {
                expected: out_len,
                got: tiled,
            }
            .into());
        }

        self.device.ensure(workspace_needed, kernel.sdm_elements());
        let mut transfer = TransferStats::default();

        // Load the kernel's constant image unless it is already resident.
        if self.device.loaded != Some(kernel.key()) {
            if let Err(e) = kernel.load_into(&mut self.device.sim) {
                // The workspace may hold a partial image now.
                self.device.loaded = None;
                return Err(RpuError::Exec(e));
            }
            transfer.image_elements = kernel.total_elements();
            self.device.loaded = Some(kernel.key());
        } else {
            transfer.image_reused = true;
        }

        // Bind operands: heap → workspace, entirely on-device.
        for (&src, &(dst, len)) in in_locs.iter().zip(kernel.input_ranges()) {
            self.device
                .sim
                .copy_vdm(dst, src, len)
                .map_err(RpuError::Exec)?;
            transfer.device_copies += len;
        }

        // Generated programs assume `a0 = 0`; re-assert it in case a
        // previous program loaded address registers.
        self.device.sim.set_arf(AReg::at(0), 0);
        // The pre-decoded fast path is the production executor; the
        // interpreter is the bit-exact oracle, selectable for
        // differential runs via `RpuBuilder::force_interpreter`.
        let ran = if self.rpu.force_interpreter() {
            self.device.sim.run(kernel.program())
        } else {
            self.device.sim.run_predecoded(kernel.predecoded())
        };
        if let Err(e) = ran {
            // The workspace may hold a partial image now.
            self.device.loaded = None;
            return Err(RpuError::Exec(e));
        }

        // Result write-back: workspace → heap, still on-device.
        let mut src = out_ws;
        for (dst, len) in out_locs {
            self.device
                .sim
                .copy_vdm(dst, src, len)
                .map_err(RpuError::Exec)?;
            src += len;
        }
        transfer.device_copies += out_len;
        Ok(transfer)
    }

    /// The memoized cycle-simulation result for a kernel.
    fn timed(&mut self, kernel: &Kernel) -> SimStats {
        let rpu = self.rpu;
        let key = kernel.key();
        let stats = self
            .timing
            .entry(key)
            .or_insert_with(|| rpu.time(kernel.program()))
            .clone();
        // With a bounded kernel cache, keep the timing memo bounded too:
        // once it outgrows the cache, drop timings for evicted kernels
        // (keeping the one just used, which may be dispatch-only).
        if let Some(cap) = self.cache.capacity() {
            if self.timing.len() > cap {
                let cache = &self.cache;
                self.timing
                    .retain(|k, _| *k == key || cache.peek(k).is_some());
            }
        }
        stats
    }

    // ------------------------------------------------------------------
    // One-shot conveniences (upload-dispatch-download per call)
    // ------------------------------------------------------------------

    /// Runs one workload spec on caller-supplied operands: compiles (or
    /// recalls) the kernel, uploads the operands, dispatches, and
    /// downloads the result — one full round trip. Chained workloads
    /// should hold [`DeviceBuffer`]s and [`dispatch`](RpuSession::dispatch)
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation, allocation, or execution
    /// fails, or if operand counts/lengths mismatch the kernel.
    pub fn run_with<S: KernelSpec + ?Sized>(
        &mut self,
        spec: &S,
        operands: &[&[u128]],
    ) -> Result<(Vec<u128>, RunReport), RpuError> {
        let (entry, hit) = self.cache.get_or_generate(spec, true)?;
        self.round_trip(entry, hit, operands)
    }

    /// Shared upload-dispatch-download core of [`run`](RpuSession::run)
    /// and [`run_with`](RpuSession::run_with) (one cache lookup already
    /// done by the caller).
    fn round_trip(
        &mut self,
        entry: CachedKernel,
        hit: bool,
        operands: &[&[u128]],
    ) -> Result<(Vec<u128>, RunReport), RpuError> {
        let kernel = entry.kernel;
        if operands.len() != kernel.arity() {
            return Err(BufferError::ArityMismatch {
                expected: kernel.arity(),
                got: operands.len(),
            }
            .into());
        }
        let mut transfer = TransferStats::default();
        let mut buffers = Vec::with_capacity(operands.len() + 1);
        let result: Result<Vec<u128>, RpuError> = (|| {
            let mut inputs = Vec::with_capacity(operands.len());
            for op in operands {
                let buf = self.upload(op)?;
                transfer.host_to_device += buf.len();
                buffers.push(buf);
                inputs.push(buf);
            }
            let out = self.alloc(kernel.output_range().1)?;
            buffers.push(out);
            let t = self.dispatch_raw(&kernel, &inputs, &[out])?;
            transfer.device_copies = t.device_copies;
            transfer.image_elements = t.image_elements;
            transfer.image_reused = t.image_reused;
            let data = self.download(&out)?;
            transfer.device_to_host += data.len();
            Ok(data)
        })();
        // Scratch buffers never outlive the call, success or not.
        for buf in buffers {
            let _ = self.device.heap.free(&buf);
        }
        let data = result?;
        let stats = self.timed(&kernel);
        let mut report = self.rpu.assemble_report(
            kernel.program(),
            kernel.key(),
            Some(stats),
            entry.verified.unwrap_or(false),
            hit,
        );
        report.transfer = transfer;
        Ok((data, report))
    }

    /// Runs one workload spec end to end on deterministic synthetic
    /// operands — a thin upload-dispatch-download convenience over the
    /// resident-buffer path. The first run of a spec pays kernel
    /// generation + golden-model verification; warm runs reuse the
    /// cached kernel and memoized cycle timing but still pay the full
    /// per-call data round trip, *including* a lane-exact functional
    /// execution of the kernel (that is what a run now is). Chained
    /// workloads should [`dispatch`](RpuSession::dispatch) over resident
    /// buffers; sweeps that only need cycle timing can hold the
    /// [`kernel`](RpuSession::kernel) and reuse one report's `stats`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation, verification, or execution
    /// fails.
    pub fn run<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<RunReport, RpuError> {
        let (entry, hit) = self.cache.get_or_generate(spec, true)?;
        let operands = entry.kernel.synthetic_operands();
        let refs: Vec<&[u128]> = operands.iter().map(Vec::as_slice).collect();
        let (_, report) = self.round_trip(entry, hit, &refs)?;
        Ok(report)
    }

    /// Runs a heterogeneous batch of specs in order, returning one
    /// report per spec. Duplicate specs within the batch hit the cache.
    ///
    /// # Errors
    ///
    /// Returns the first error; prior successful runs are discarded.
    pub fn run_batch(&mut self, specs: &[&dyn KernelSpec]) -> Result<Vec<RunReport>, RpuError> {
        specs.iter().map(|spec| self.run(*spec)).collect()
    }

    /// Convenience: run an NTT with the session's default prime for `n`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if no prime exists or generation fails.
    pub fn ntt(
        &mut self,
        n: usize,
        direction: Direction,
        style: CodegenStyle,
    ) -> Result<RunReport, RpuError> {
        let q = self.primes_for(n)?;
        self.run(&NttSpec::new(n, q, direction, style))
    }

    /// The cached kernel for `spec` (generated and verified on first
    /// use), for callers that want to execute it on their own data via
    /// [`Kernel::execute`] rather than just time it. Alias of
    /// [`compile`](RpuSession::compile).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation or verification fails.
    pub fn kernel<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<Arc<Kernel>, RpuError> {
        self.compile(spec)
    }

    /// Hit/miss/occupancy counters of the session's kernel cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the session's full persistent device state — VDM/SDM
    /// contents, the heap map (live and free blocks), the kernel-cache
    /// keys, and the loaded-image identity — as versioned `SNAP_V1`
    /// bytes (see `docs/snapshot-format.md`). Identical device state
    /// always produces identical bytes.
    ///
    /// Cache hit/miss counters and memoized cycle timings are
    /// diagnostics, not device state, and are not serialized; register
    /// files are not serialized either, because every generated program
    /// initializes the registers it reads.
    pub fn snapshot(&self) -> Vec<u8> {
        let vdm_len = self.device.sim.vdm_capacity();
        let sdm_len = self.device.sim.sdm_capacity();
        let vdm = self
            .device
            .sim
            .read_vdm(0, vdm_len)
            .expect("full-range VDM read is always in bounds");
        let sdm = self
            .device
            .sim
            .read_sdm(0, sdm_len)
            .expect("full-range SDM read is always in bounds");
        let image = SessionImage {
            workspace: self.device.workspace as u64,
            heap_base: self.device.heap.base() as u64,
            heap_capacity: self.device.heap.capacity() as u64,
            high_water: self.device.heap.high_water() as u64,
            vdm,
            sdm,
            live: self
                .device
                .heap
                .live_entries()
                .into_iter()
                .map(|(id, offset, len)| (id, offset as u64, len as u64))
                .collect(),
            free: self
                .device
                .heap
                .free_blocks()
                .into_iter()
                .map(|(offset, len)| (offset as u64, len as u64))
                .collect(),
            keys: self.cache.keys(),
            loaded: self.device.loaded,
        };
        snapshot::encode_session(&image)
    }

    /// Restores the session to a snapshotted state, returning handles
    /// to the buffers that were live when the snapshot was taken (same
    /// ids, offsets, and lengths — handles held since the snapshot keep
    /// resolving).
    ///
    /// Refuses to run while this session still has live buffers, so a
    /// handle can never silently outlive the state it pointed into; use
    /// [`restore_replacing`](RpuSession::restore_replacing) to swap
    /// state out from under live handles atomically.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] — [`SnapshotError::LiveBuffers`] when the
    /// session has live allocations, or any decode/geometry/kernel-
    /// rebuild failure (see [`SnapshotError`]). The session is
    /// unchanged on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<Vec<DeviceBuffer>, RpuError> {
        let live = self.live_buffers();
        if live > 0 {
            return Err(SnapshotError::LiveBuffers { live }.into());
        }
        self.restore_replacing(bytes)
    }

    /// Restores the session to a snapshotted state even if it has live
    /// buffers: the entire device state (heap map included) is replaced
    /// in one step, every buffer allocated after the snapshot becomes
    /// stale (its id is absent from the restored heap, so use returns
    /// [`BufferError::StaleHandle`] — never a double free), and ids are
    /// never recycled. Returns handles to the snapshot's live buffers.
    ///
    /// All fallible work (decode, geometry checks, kernel regeneration)
    /// happens before any mutation, so the session is unchanged on
    /// error.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt or future-version bytes, a
    /// geometry mismatch with this session, or a kernel that cannot be
    /// rebuilt.
    pub fn restore_replacing(&mut self, bytes: &[u8]) -> Result<Vec<DeviceBuffer>, RpuError> {
        let prepared = self.prepare_restore(bytes)?;
        Ok(self.apply_restore(prepared))
    }

    /// The fallible half of a restore: decode, geometry checks against
    /// this session, heap-map validation, and kernel regeneration — no
    /// mutation. Clusters prepare every lane before applying any, so a
    /// multi-lane restore is all-or-nothing.
    pub(crate) fn prepare_restore(&self, bytes: &[u8]) -> Result<PreparedRestore, RpuError> {
        let image = snapshot::decode_session(bytes)?;
        let checks: [(&'static str, u64, u64); 3] = [
            (
                "workspace size",
                image.workspace,
                self.device.workspace as u64,
            ),
            ("heap base", image.heap_base, self.device.heap.base() as u64),
            (
                "heap capacity",
                image.heap_capacity,
                self.device.heap.capacity() as u64,
            ),
        ];
        for (what, snap, target) in checks {
            if snap != target {
                return Err(SnapshotError::GeometryMismatch {
                    what,
                    snapshot: snap,
                    target,
                }
                .into());
            }
        }
        let (live, free, high_water) = convert_heap_map(&image)?;
        // Validate the heap map against a scratch allocator so applying
        // it later cannot fail.
        let mut scratch =
            BufferAllocator::new(self.device.heap.base(), self.device.heap.capacity());
        scratch
            .restore_state(live, free, high_water)
            .map_err(|detail| SnapshotError::Corrupt(format!("heap map: {detail}")))?;
        let mut kernels = Vec::with_capacity(image.keys.len());
        for key in &image.keys {
            let spec = rpu_codegen::spec_for_key(key).ok_or_else(|| {
                RpuError::from(SnapshotError::KernelRebuild {
                    detail: format!("no kernel spec reproduces the snapshotted key {key:?}"),
                })
            })?;
            let kernel = spec.generate().map_err(|e| SnapshotError::KernelRebuild {
                detail: format!("regenerating {key:?} failed: {e}"),
            })?;
            kernels.push(Arc::new(kernel));
        }
        Ok(PreparedRestore { image, kernels })
    }

    /// The infallible half of a restore: swaps the prepared state in
    /// and returns the snapshot's live-buffer handles.
    pub(crate) fn apply_restore(&mut self, prepared: PreparedRestore) -> Vec<DeviceBuffer> {
        let PreparedRestore { image, kernels } = prepared;
        let (live, free, high_water) =
            convert_heap_map(&image).expect("prepare validated the heap map");
        self.device
            .heap
            .restore_state(live.clone(), free, high_water)
            .expect("prepare validated the heap map");
        // Grow-only simulator: write the snapshotted contents and zero
        // any tail beyond them, so the restored device contents are
        // canonical even when this session's sim had grown larger.
        self.device.sim.ensure_vdm(image.vdm.len());
        self.device
            .sim
            .write_vdm(0, &image.vdm)
            .expect("ensured to cover the image");
        let vdm_tail = self.device.sim.vdm_capacity() - image.vdm.len();
        if vdm_tail > 0 {
            self.device
                .sim
                .write_vdm(image.vdm.len(), &vec![0u128; vdm_tail])
                .expect("tail is in bounds");
        }
        self.device.sim.ensure_sdm(image.sdm.len());
        self.device
            .sim
            .write_sdm(0, &image.sdm)
            .expect("ensured to cover the image");
        let sdm_tail = self.device.sim.sdm_capacity() - image.sdm.len();
        if sdm_tail > 0 {
            self.device
                .sim
                .write_sdm(image.sdm.len(), &vec![0u128; sdm_tail])
                .expect("tail is in bounds");
        }
        self.device.loaded = image.loaded;
        self.cache.reseed(kernels);
        live.into_iter()
            .map(|(id, offset, len)| DeviceBuffer::from_raw(id, offset, len))
            .collect()
    }
}

/// A decoded, validated, kernel-regenerated restore, ready to apply
/// infallibly (see [`RpuSession::prepare_restore`]).
#[derive(Debug)]
pub(crate) struct PreparedRestore {
    image: SessionImage,
    kernels: Vec<Arc<Kernel>>,
}

/// Converts a decoded image's heap map to allocator-native types,
/// rejecting values that overflow `usize`.
#[allow(clippy::type_complexity)]
fn convert_heap_map(
    image: &SessionImage,
) -> Result<(Vec<(u64, usize, usize)>, Vec<(usize, usize)>, usize), RpuError> {
    let overflow = || RpuError::from(SnapshotError::Corrupt("heap map overflows usize".into()));
    let mut live = Vec::with_capacity(image.live.len());
    for &(id, offset, len) in &image.live {
        live.push((
            id,
            usize::try_from(offset).map_err(|_| overflow())?,
            usize::try_from(len).map_err(|_| overflow())?,
        ));
    }
    let mut free = Vec::with_capacity(image.free.len());
    for &(offset, len) in &image.free {
        free.push((
            usize::try_from(offset).map_err(|_| overflow())?,
            usize::try_from(len).map_err(|_| overflow())?,
        ));
    }
    let high_water = usize::try_from(image.high_water).map_err(|_| overflow())?;
    Ok((live, free, high_water))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_codegen::{ElementwiseOp, ElementwiseSpec};

    #[test]
    fn builder_defaults_match_legacy_constructor() {
        let a = Rpu::builder().build().unwrap();
        let b = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
        assert_eq!(a.config(), b.config());
        assert_eq!(a.clock_ghz(), b.clock_ghz());
        assert_eq!(a.area().total(), b.area().total());
    }

    #[test]
    fn builder_rejects_bad_clock() {
        assert!(matches!(
            Rpu::builder().clock_ghz(0.0).build(),
            Err(RpuError::Config(_))
        ));
        assert!(matches!(
            Rpu::builder().clock_ghz(f64::NAN).build(),
            Err(RpuError::Config(_))
        ));
    }

    #[test]
    fn builder_validates_prime_bits() {
        for bad in [0, 1, 127, 128, 200] {
            assert!(
                matches!(
                    Rpu::builder().prime_bits(bad).build(),
                    Err(RpuError::Config(_))
                ),
                "prime_bits({bad}) must be rejected"
            );
        }
        let rpu = Rpu::builder().prime_bits(60).build().unwrap();
        assert_eq!(rpu.prime_bits(), 60);
        let q = rpu.session().primes_for(1024).unwrap();
        assert_eq!(q, rpu_arith::find_ntt_prime_u128(60, 2048).unwrap());
        assert!(q < 1u128 << 61);
    }

    #[test]
    fn builder_validates_cache_and_heap() {
        assert!(matches!(
            Rpu::builder().kernel_cache_capacity(0).build(),
            Err(RpuError::Config(_))
        ));
        // workspace (default 4 MiB = 262144 elements) + 2M-element heap
        // exceeds the 32 MiB architectural VDM
        assert!(matches!(
            Rpu::builder().device_heap_elements(2 << 20).build(),
            Err(RpuError::Config(_))
        ));
        let rpu = Rpu::builder().device_heap_elements(8192).build().unwrap();
        assert_eq!(rpu.session().device_heap_capacity(), 8192);
    }

    #[test]
    fn clock_override_scales_runtime_not_cycles() {
        let slow = Rpu::builder().build().unwrap();
        let fast = Rpu::builder()
            .clock_ghz(2.0 * slow.clock_ghz())
            .build()
            .unwrap();
        let spec = |rpu: &Rpu| {
            let mut s = rpu.session();
            s.ntt(1024, Direction::Forward, CodegenStyle::Optimized)
                .unwrap()
        };
        let a = spec(&slow);
        let b = spec(&fast);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert!((a.runtime_us / b.runtime_us - 2.0).abs() < 1e-9);
    }

    #[test]
    fn prime_table_memoizes() {
        let mut t = PrimeTable::new();
        let q1 = t.ntt_prime(1024).unwrap();
        let q2 = t.ntt_prime(1024).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(
            q1,
            rpu_arith::find_ntt_prime_u128(126, 2048).unwrap(),
            "table must agree with the direct search"
        );
    }

    #[test]
    fn prime_table_impossible_requests_error_cleanly() {
        // Regression: a width too narrow for q ≡ 1 (mod 2n) to exist —
        // e.g. 8-bit primes with n = 4096 — must come back as a prompt
        // NoPrime, and malformed widths/degrees as Config errors; none
        // of these may panic inside the searcher or spin.
        let mut t = PrimeTable::with_bits(8);
        assert!(matches!(
            t.ntt_prime(4096),
            Err(RpuError::NoPrime { degree: 4096 })
        ));
        assert!(matches!(
            PrimeTable::with_bits(0).ntt_prime(1024),
            Err(RpuError::Config(_))
        ));
        assert!(matches!(
            PrimeTable::with_bits(200).ntt_prime(1024),
            Err(RpuError::Config(_))
        ));
        let mut t = PrimeTable::new();
        assert!(matches!(t.ntt_prime(0), Err(RpuError::Config(_))));
        assert!(matches!(t.ntt_prime(1000), Err(RpuError::Config(_))));
        // narrow-but-possible widths still succeed (65537 ≡ 1 mod 8192)
        let mut t = PrimeTable::with_bits(17);
        let q = t.ntt_prime(4096).unwrap();
        assert!(q < 1 << 17 && q % 8192 == 1);
    }

    #[test]
    fn cache_hits_skip_generation() {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized);
        let first = s.run(&spec).unwrap();
        let second = s.run(&spec).unwrap();
        assert!(!first.cache_hit && second.cache_hit);
        assert!(first.verified && second.verified);
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // the one-shot path pays the round trip both times
        assert_eq!(first.transfer.host_to_device, 2048);
        assert_eq!(second.transfer.host_to_device, 2048);
        assert_eq!(second.transfer.device_to_host, 1024);
        // …but reuses the resident kernel image on the warm run
        assert!(!first.transfer.image_reused);
        assert!(second.transfer.image_reused);
        // scratch buffers are freed after each run
        assert_eq!(s.device_mem_in_use(), 0);
    }

    #[test]
    fn lru_eviction_is_counted_and_bounded() {
        let rpu = Rpu::builder().kernel_cache_capacity(2).build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let spec = |op| ElementwiseSpec::new(op, 1024, q, CodegenStyle::Optimized);
        s.run(&spec(ElementwiseOp::MulMod)).unwrap();
        s.run(&spec(ElementwiseOp::AddMod)).unwrap();
        // touch MulMod so AddMod is the LRU victim
        s.run(&spec(ElementwiseOp::MulMod)).unwrap();
        s.run(&spec(ElementwiseOp::SubMod)).unwrap(); // evicts AddMod
        let stats = s.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(2));
        // MulMod survived (hit); AddMod regenerates (miss + eviction)
        let before = s.cache_stats().misses;
        s.run(&spec(ElementwiseOp::MulMod)).unwrap();
        assert_eq!(s.cache_stats().misses, before);
        s.run(&spec(ElementwiseOp::AddMod)).unwrap();
        assert_eq!(s.cache_stats().misses, before + 1);
        assert_eq!(s.cache_stats().evictions, 2);
    }

    #[test]
    fn evicted_kernel_recompiles_and_reverifies_under_capacity_one() {
        // Regression: verify-once state lives on the kernel (and dies
        // with it), not on the cache slot — after an eviction the next
        // compile of the same spec must produce a *fresh* kernel and a
        // *fresh* golden-model verdict, and every eviction must be
        // counted exactly once.
        let rpu = Rpu::builder().kernel_cache_capacity(1).build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let mul = ElementwiseSpec::new(ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized);
        let add = ElementwiseSpec::new(ElementwiseOp::AddMod, 1024, q, CodegenStyle::Optimized);

        let first = s.compile(&mul).unwrap();
        assert_eq!(first.verification(), Some(true));
        s.compile(&add).unwrap(); // evicts mul
        let stats = s.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));

        let second = s.compile(&mul).unwrap(); // evicts add, regenerates mul
        assert!(
            !Arc::ptr_eq(&first, &second),
            "an evicted kernel must be regenerated, not resurrected"
        );
        assert_eq!(
            second.verification(),
            Some(true),
            "the recompiled kernel re-verifies against its golden model"
        );
        let stats = s.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 2, "one eviction per displaced entry");
        assert_eq!(stats.misses, 3, "every compile after an eviction is a miss");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.capacity, Some(1));

        // repeated compiles of the resident entry are hits, not
        // evictions — the counter must not drift
        s.compile(&mul).unwrap();
        s.compile(&mul).unwrap();
        let stats = s.cache_stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn resident_chain_avoids_host_traffic() {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let add = s
            .compile(&ElementwiseSpec::new(
                ElementwiseOp::AddMod,
                1024,
                q,
                CodegenStyle::Optimized,
            ))
            .unwrap();
        let ones = vec![1u128; 1024];
        let x = s.upload(&ones).unwrap();
        let acc = s.upload(&ones).unwrap();
        let tmp = s.alloc(1024).unwrap();
        // acc += x, seven times, ping-ponging acc <-> tmp
        let (mut cur, mut other) = (acc, tmp);
        for i in 0..7 {
            let r = s.dispatch(&add, &[cur, x], &[other]).unwrap();
            assert_eq!(r.transfer.host_to_device, 0, "dispatch is host-free");
            assert_eq!(r.transfer.device_to_host, 0);
            assert_eq!(r.transfer.image_reused, i > 0);
            std::mem::swap(&mut cur, &mut other);
        }
        assert_eq!(s.download(&cur).unwrap(), vec![8u128; 1024]);
        // the dispatch-path report carries the same timing as run()
        let via_run = s
            .run(&ElementwiseSpec::new(
                ElementwiseOp::AddMod,
                1024,
                q,
                CodegenStyle::Optimized,
            ))
            .unwrap();
        let via_dispatch = s.dispatch(&add, &[cur, x], &[other]).unwrap();
        assert_eq!(via_run.stats.cycles, via_dispatch.stats.cycles);
    }

    #[test]
    fn dispatch_verdict_survives_cache_eviction() {
        let rpu = Rpu::builder().kernel_cache_capacity(1).build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let mul = s
            .compile(&ElementwiseSpec::new(
                ElementwiseOp::MulMod,
                1024,
                q,
                CodegenStyle::Optimized,
            ))
            .unwrap();
        // evict the MulMod entry from the 1-entry cache…
        s.compile(&ElementwiseSpec::new(
            ElementwiseOp::AddMod,
            1024,
            q,
            CodegenStyle::Optimized,
        ))
        .unwrap();
        assert_eq!(s.cache_stats().evictions, 1);
        // …but the verdict travels with the Arc<Kernel>, not the cache
        let x = s.upload(&vec![2u128; 1024]).unwrap();
        let y = s.alloc(1024).unwrap();
        let report = s.dispatch(&mul, &[x, x], &[y]).unwrap();
        assert!(report.verified, "compile()'s verification must survive");
        assert_eq!(s.download(&y).unwrap(), vec![4u128; 1024]);
    }

    #[test]
    fn default_heap_respects_architectural_vdm() {
        // A maximal 32 MiB configured VDM leaves no room for a resident
        // heap: the default must clamp to zero rather than model 64 MiB.
        let config = RpuConfig {
            vdm_bytes: rpu_isa::consts::VDM_MAX_BYTES,
            ..RpuConfig::pareto_128x128()
        };
        let max_elems = rpu_isa::consts::VDM_MAX_BYTES / rpu_isa::consts::ELEM_BYTES;
        let rpu = Rpu::builder().config(config).build().unwrap();
        assert_eq!(rpu.device_heap_elements(), 0);
        // an explicit heap that would overflow is still an error
        assert!(matches!(
            Rpu::builder()
                .config(config)
                .device_heap_elements(1)
                .build(),
            Err(RpuError::Config(_))
        ));
        // a half-max VDM gets the full complementary heap by default
        let half = RpuConfig {
            vdm_bytes: rpu_isa::consts::VDM_MAX_BYTES / 2,
            ..RpuConfig::pareto_128x128()
        };
        let rpu = Rpu::builder().config(half).build().unwrap();
        assert_eq!(rpu.device_heap_elements(), max_elems / 2);
    }
}
