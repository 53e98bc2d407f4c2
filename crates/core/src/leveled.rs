//! Leveled RNS ciphertext pipelines executed end-to-end on the RPU —
//! depth-`L` homomorphic evaluation over device-resident tower buffers.
//!
//! [`LeveledEvaluator`] extends the single-modulus [`crate::RlweEvaluator`]
//! to a [`ModulusChain`]: a leveled ciphertext is `2·(level + 1)` ring
//! elements — mask and payload towers, one pair per live chain prime —
//! and every tower is independent work, so the evaluator shards them
//! round-robin across the cluster (`tower l` on `lane l % lanes`). All
//! per-tower kernel shapes (forward/inverse NTT, the three pointwise
//! ops, the fused key-switch digit program) are compiled and
//! golden-verified once per tower at construction; the fused rescale
//! kernel ([`RescaleSpec`]) is compiled lazily per `(dropped level,
//! surviving tower)` pair, since its identity includes the dropped prime.
//!
//! The dataflow mirrors the host oracle [`LeveledContext`] *exactly* —
//! the same pinned randomness streams, the same rounding corrections —
//! so downloaded device ciphertexts equal host ciphertexts bit-for-bit
//! at every step, on any lane count (`tests/tests/leveled.rs` pins this
//! at 1, 2, and 4 lanes):
//!
//! * `encrypt` — masks and payloads are sampled on the host (the stream
//!   [`LeveledContext::encrypt`] draws), then `b̂_l = â_l ⊙ ŝ_l ⊕ p̂_l`
//!   runs on each tower's lane;
//! * `add` / `sub` — one pointwise dispatch per component tower, with
//!   automatic level alignment (deeper operands use only their prefix
//!   towers);
//! * `mul` — per-tower degree-2 tensor, then RNS relinearization: the
//!   `c2` towers come back to the host for gadget decomposition and the
//!   digit products run tower-major as fused two-component key-switch
//!   dispatches (one per digit per live tower, updating both
//!   accumulators) against resident key material on every live tower's
//!   lane;
//! * `rescale` — the dropped tower is inverse-transformed and
//!   downloaded, the host derives the exact rounding correction `δ`
//!   ([`LeveledContext::rescale_correction`]), and each surviving tower
//!   runs one fused `(ĉ − NTT(δ))·p⁻¹` dispatch;
//! * `decrypt` / `measure_noise` — per-tower phase `b̂_l ⊖ â_l·ŝ_l`
//!   on-device, with only the phase coefficients downloaded for the
//!   host's CRT decode (or noise measurement).
//!
//! Every ciphertext carries its [`NoiseBudget`]; the tracker's
//! conservative estimate is validated against
//! [`measure_noise`](LeveledEvaluator::measure_noise) in the property
//! suite.

use crate::buffer::DeviceBuffer;
use crate::lanes::RpuCluster;
use crate::run::{Rpu, RunReport};
use crate::RpuError;
use rpu_arith::{gadget_decompose, ModulusChain};
use rpu_codegen::{
    CodegenStyle, Direction, ElementwiseOp, ElementwiseSpec, Kernel, KeySwitchSpec, NttSpec,
    RescaleSpec,
};
use rpu_ntt::leveled::{LeveledCiphertext, LeveledContext, LeveledSecretKey, NoiseBudget};
use rpu_ntt::rlwe::Splitmix;
use std::collections::HashMap;
use std::sync::Arc;

/// Default gadget digit base (`B = 2^16`) for leveled relinearization
/// keys — the same default as the single-modulus evaluator.
const DEFAULT_KSK_BASE_LOG: u32 = 16;

/// A leveled RNS ciphertext resident on the cluster: per live tower
/// `l ≤ level`, the evaluation-form mask `â_l` and payload `b̂_l` on
/// lane `l % lanes`, plus the tracked noise bound.
#[derive(Debug, Clone)]
pub struct DeviceLeveledCiphertext {
    level: usize,
    a: Vec<DeviceBuffer>,
    b: Vec<DeviceBuffer>,
    noise: NoiseBudget,
}

impl DeviceLeveledCiphertext {
    /// The ciphertext's level (`towers − 1`).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The resident mask towers `â_0 ..= â_level`.
    pub fn a_towers(&self) -> &[DeviceBuffer] {
        &self.a
    }

    /// The resident payload towers `b̂_0 ..= b̂_level`.
    pub fn b_towers(&self) -> &[DeviceBuffer] {
        &self.b
    }

    /// The tracked worst-case noise bound.
    pub fn noise(&self) -> NoiseBudget {
        self.noise
    }
}

/// Leveled relinearization key material resident on the cluster: for
/// each source tower `i` and gadget digit `j`, the full-RNS pair
/// `(â_{ij}, b̂_{ij})` with tower `k`'s polynomials on tower `k`'s lane.
/// Mod-dropping the key is implicit — a key switch at `level` simply
/// never touches towers above it.
#[derive(Debug)]
pub struct DeviceLeveledRelinKey {
    base_log: u32,
    /// `parts[i][j] = (a, b)`, each a per-tower buffer vector.
    parts: Vec<Vec<(Vec<DeviceBuffer>, Vec<DeviceBuffer>)>>,
}

impl DeviceLeveledRelinKey {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// Total digit products `Σ_{i ≤ level} ℓ_i` a key switch at `level`
    /// performs — the `parts` factor of the noise model.
    pub fn parts_at_level(&self, level: usize) -> usize {
        self.parts[..=level].iter().map(Vec::len).sum()
    }

    /// Total resident elements this key occupies across all lanes.
    pub fn resident_elements(&self) -> usize {
        self.all_handles().iter().map(DeviceBuffer::len).sum()
    }

    /// Every handle of the key, for bulk release.
    fn all_handles(&self) -> Vec<DeviceBuffer> {
        self.parts
            .iter()
            .flatten()
            .flat_map(|(a, b)| a.iter().chain(b.iter()).copied())
            .collect()
    }
}

/// The compiled kernel shapes of one chain tower (modulus `q_l`),
/// dispatched on that tower's lane.
#[derive(Debug)]
struct TowerKernels {
    fwd: Arc<Kernel>,
    inv: Arc<Kernel>,
    pwmul: Arc<Kernel>,
    pwadd: Arc<Kernel>,
    pwsub: Arc<Kernel>,
    ksw: Arc<Kernel>,
}

impl TowerKernels {
    fn compile(
        cluster: &mut RpuCluster<'_>,
        lane: usize,
        n: usize,
        q: u128,
        style: CodegenStyle,
    ) -> Result<Self, RpuError> {
        Ok(TowerKernels {
            fwd: cluster.compile_on(lane, &NttSpec::new(n, q, Direction::Forward, style))?,
            inv: cluster.compile_on(lane, &NttSpec::new(n, q, Direction::Inverse, style))?,
            pwmul: cluster.compile_on(
                lane,
                &ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, style),
            )?,
            pwadd: cluster.compile_on(
                lane,
                &ElementwiseSpec::new(ElementwiseOp::AddMod, n, q, style),
            )?,
            pwsub: cluster.compile_on(
                lane,
                &ElementwiseSpec::new(ElementwiseOp::SubMod, n, q, style),
            )?,
            ksw: cluster.compile_on(lane, &KeySwitchSpec::new(n, q, style))?,
        })
    }
}

/// Runs leveled RNS ciphertext operations as chains of kernel
/// dispatches over device-resident tower buffers, sharded round-robin
/// across the lanes of an [`RpuCluster`], with on-RPU rescaling and a
/// per-ciphertext [`NoiseBudget`] tracker.
#[derive(Debug)]
pub struct LeveledEvaluator<'a> {
    cluster: RpuCluster<'a>,
    ctx: LeveledContext,
    style: CodegenStyle,
    /// Per-tower compiled kernels (index = tower = chain level).
    kernels: Vec<TowerKernels>,
    /// Fused rescale kernels by `(dropped level, surviving tower)`.
    rescale_kernels: HashMap<(usize, usize), Arc<Kernel>>,
    /// The secret key in evaluation form, one resident buffer per tower.
    sk: Vec<DeviceBuffer>,
    /// Host copy of the secret key (derives key-switch material).
    host_sk: Option<LeveledSecretKey>,
    ksk_base_log: u32,
    relin: Option<DeviceLeveledRelinKey>,
    dispatches: u64,
    simulated_us: f64,
}

impl<'a> LeveledEvaluator<'a> {
    /// Builds an evaluator over `ctx`'s modulus chain: compiles and
    /// golden-verifies every per-tower kernel shape on that tower's
    /// lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Codegen`] if the ring degree is outside what
    /// the kernel generators support.
    pub fn new(rpu: &'a Rpu, ctx: LeveledContext, style: CodegenStyle) -> Result<Self, RpuError> {
        let mut cluster = rpu.cluster();
        let lanes = cluster.lane_count();
        let n = ctx.n();
        let kernels = (0..ctx.chain().levels())
            .map(|l| TowerKernels::compile(&mut cluster, l % lanes, n, ctx.chain().prime(l), style))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LeveledEvaluator {
            cluster,
            ctx,
            style,
            kernels,
            rescale_kernels: HashMap::new(),
            sk: Vec::new(),
            host_sk: None,
            ksk_base_log: DEFAULT_KSK_BASE_LOG,
            relin: None,
            dispatches: 0,
            simulated_us: 0.0,
        })
    }

    /// The host-side reference context (same chain, same plans).
    pub fn context(&self) -> &LeveledContext {
        &self.ctx
    }

    /// The modulus chain the evaluator runs over.
    pub fn chain(&self) -> &ModulusChain {
        self.ctx.chain()
    }

    /// The cluster the evaluator shards over.
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// The lane tower `l` is resident on.
    pub fn tower_lane(&self, l: usize) -> usize {
        l % self.cluster.lane_count()
    }

    /// Kernels dispatched so far, across every lane.
    pub fn dispatch_count(&self) -> u64 {
        self.dispatches
    }

    /// Total simulated on-RPU time of every dispatch, in microseconds —
    /// the sequential-equivalent cost.
    pub fn simulated_us(&self) -> f64 {
        self.simulated_us
    }

    /// The busiest lane's simulated time, in microseconds — the
    /// overlapped completion time of the multi-lane deployment.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
    }

    /// Serializes the underlying cluster's full device state — key
    /// material, resident ciphertext towers, kernel caches — as one
    /// `SNAP_V1` cluster snapshot ([`RpuCluster::snapshot_all`]).
    ///
    /// Every evaluator operation after key generation and encryption is
    /// deterministic (no fresh host randomness), so a mid-pipeline
    /// snapshot restored later and driven through the same remaining
    /// operations reproduces bit-identical ciphertext towers.
    pub fn snapshot(&self) -> Vec<u8> {
        self.cluster.snapshot_all()
    }

    /// Restores the underlying cluster to a snapshotted state
    /// ([`RpuCluster::restore_all_replacing`]): ciphertext and key
    /// handles captured at snapshot time become valid again, and
    /// buffers created after the snapshot become stale on their lane.
    /// Host-side state (contexts, noise trackers, handle structs) is
    /// the caller's to keep from snapshot time.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt bytes or a cluster mismatch;
    /// the evaluator is unchanged on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), RpuError> {
        self.cluster.restore_all_replacing(bytes)
    }

    /// Estimated noise budget left for `ct` in bits (tracker bound
    /// against the ciphertext's current live modulus). Negative means
    /// the tracker predicts decryption failure.
    pub fn remaining_bits(&self, ct: &DeviceLeveledCiphertext) -> f64 {
        ct.noise.remaining(self.ctx.chain().log2_q(ct.level))
    }

    /// One dispatch on `lane` with traffic accounting.
    fn dispatch(
        &mut self,
        lane: usize,
        kernel: &Arc<Kernel>,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<RunReport, RpuError> {
        let report = self.cluster.dispatch_on(lane, kernel, inputs, outputs)?;
        self.dispatches += 1;
        self.simulated_us += report.runtime_us;
        Ok(report)
    }

    /// Frees temporaries while unwinding an error path, then forwards
    /// the error (the handles are known-live, so the frees cannot fail).
    fn or_release<T>(
        &mut self,
        result: Result<T, RpuError>,
        temps: &[DeviceBuffer],
    ) -> Result<T, RpuError> {
        if result.is_err() {
            for buf in temps {
                let _ = self.cluster.free(*buf);
            }
        }
        result
    }

    /// Uploads coefficients to tower `l`'s lane and forward-transforms
    /// them on-device, returning the evaluation-form resident buffer.
    fn upload_eval(&mut self, l: usize, coeffs: &[u128]) -> Result<DeviceBuffer, RpuError> {
        let lane = self.tower_lane(l);
        let raw = self.cluster.upload_to(lane, coeffs)?;
        let alloc = self.cluster.alloc_on(lane, coeffs.len());
        let hat = self.or_release(alloc, &[raw])?;
        let fwd = Arc::clone(&self.kernels[l].fwd);
        let run = self.dispatch(lane, &fwd, &[raw], &[hat]).map(|_| ());
        self.or_release(run, &[raw, hat])?;
        self.cluster.free(raw)?;
        Ok(hat)
    }

    /// Inverse-transforms tower `l`'s resident evaluation-form buffer
    /// and downloads the natural-order coefficients.
    fn download_coeffs(&mut self, l: usize, hat: &DeviceBuffer) -> Result<Vec<u128>, RpuError> {
        let lane = self.tower_lane(l);
        let tmp = self.cluster.alloc_on(lane, hat.len())?;
        let inv = Arc::clone(&self.kernels[l].inv);
        let run = self.dispatch(lane, &inv, &[*hat], &[tmp]).map(|_| ());
        let coeffs = run.and_then(|()| self.cluster.download(&tmp));
        let coeffs = self.or_release(coeffs, &[tmp])?;
        self.cluster.free(tmp)?;
        Ok(coeffs)
    }

    /// One pointwise dispatch `out = op(x, y)` into a fresh buffer on
    /// tower `l`'s lane.
    fn pointwise(
        &mut self,
        l: usize,
        kernel: &Arc<Kernel>,
        x: &DeviceBuffer,
        y: &DeviceBuffer,
    ) -> Result<DeviceBuffer, RpuError> {
        let lane = self.tower_lane(l);
        let out = self.cluster.alloc_on(lane, x.len())?;
        let kernel = Arc::clone(kernel);
        let run = self.dispatch(lane, &kernel, &[*x, *y], &[out]).map(|_| ());
        self.or_release(run, &[out])?;
        Ok(out)
    }

    /// Samples a ternary secret key on the host (the stream
    /// [`LeveledContext::keygen`] draws), uploads each tower's
    /// coefficients, and transforms them on-device; the key stays
    /// resident per tower lane. Returns the host-form key for
    /// cross-checking against the oracle.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn keygen(&mut self, rng: &mut Splitmix) -> Result<LeveledSecretKey, RpuError> {
        let sk = self.ctx.keygen(rng);
        for old in std::mem::take(&mut self.sk) {
            self.cluster.free(old)?;
        }
        // Key-switch material under the previous key is now useless.
        if let Some(old) = self.relin.take() {
            self.release_device_key(old);
        }
        let mut uploaded = Vec::with_capacity(self.kernels.len());
        for l in 0..self.kernels.len() {
            let r = self.upload_eval(l, &sk.s_coeffs(l));
            let hat = self.or_release(r, &uploaded)?;
            uploaded.push(hat);
        }
        self.sk = uploaded;
        self.host_sk = Some(sk.clone());
        Ok(sk)
    }

    fn resident_key(&self, l: usize) -> Result<DeviceBuffer, RpuError> {
        self.sk.get(l).copied().ok_or_else(|| {
            RpuError::Config("no resident secret key: call LeveledEvaluator::keygen first".into())
        })
    }

    /// Best-effort release of a whole device key.
    fn release_device_key(&mut self, key: DeviceLeveledRelinKey) {
        for buf in key.all_handles() {
            let _ = self.cluster.free(buf);
        }
    }

    /// Encrypts a plaintext vector (coefficients mod `t`) at the top
    /// level: randomness on the host, then per tower
    /// `b̂_l = â_l ⊙ ŝ_l ⊕ payload̂_l` entirely on-device.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on heap exhaustion /
    /// dispatch failure.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(
        &mut self,
        message: &[u128],
        rng: &mut Splitmix,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        self.resident_key(self.kernels.len() - 1)?;
        let (masks, payloads) = self.ctx.sample_mask_and_payload(message, rng);
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        let mut a = Vec::with_capacity(self.kernels.len());
        let mut b = Vec::with_capacity(self.kernels.len());
        for (l, (mask, payload)) in masks.into_iter().zip(payloads).enumerate() {
            let sk = self.sk[l];
            let a_hat = {
                let r = self.upload_eval(l, &mask);
                self.or_release(r, &temps)?
            };
            temps.push(a_hat);
            let p_hat = {
                let r = self.upload_eval(l, &payload);
                self.or_release(r, &temps)?
            };
            temps.push(p_hat);
            let b_hat = {
                let pwmul = Arc::clone(&self.kernels[l].pwmul);
                let r = self.pointwise(l, &pwmul, &a_hat, &sk); // â ⊙ ŝ
                self.or_release(r, &temps)?
            };
            temps.push(b_hat);
            let add = Arc::clone(&self.kernels[l].pwadd);
            let lane = self.tower_lane(l);
            let r = self
                .dispatch(lane, &add, &[b_hat, p_hat], &[b_hat]) // ⊕ payload̂
                .map(|_| ());
            self.or_release(r, &temps)?;
            self.cluster.free(p_hat)?;
            temps.retain(|t| *t != p_hat);
            a.push(a_hat);
            b.push(b_hat);
        }
        Ok(DeviceLeveledCiphertext {
            level: self.ctx.max_level(),
            a,
            b,
            noise: NoiseBudget::fresh(self.ctx.chain().t()),
        })
    }

    /// Homomorphic addition with automatic level alignment: one
    /// pointwise dispatch per live tower, on that tower's lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn add(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        self.add_sub(x, y, false)
    }

    /// Homomorphic subtraction with automatic level alignment.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn sub(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        self.add_sub(x, y, true)
    }

    fn add_sub(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
        subtract: bool,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let level = x.level.min(y.level);
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        let mut a = Vec::with_capacity(level + 1);
        let mut b = Vec::with_capacity(level + 1);
        for l in 0..=level {
            let kernel = if subtract {
                Arc::clone(&self.kernels[l].pwsub)
            } else {
                Arc::clone(&self.kernels[l].pwadd)
            };
            let a_l = {
                let r = self.pointwise(l, &kernel, &x.a[l], &y.a[l]);
                self.or_release(r, &temps)?
            };
            temps.push(a_l);
            let b_l = {
                let r = self.pointwise(l, &kernel, &x.b[l], &y.b[l]);
                self.or_release(r, &temps)?
            };
            temps.push(b_l);
            a.push(a_l);
            b.push(b_l);
        }
        Ok(DeviceLeveledCiphertext {
            level,
            a,
            b,
            noise: x.noise.after_add(y.noise),
        })
    }

    /// Explicit mod-drop to a lower level: consumes the ciphertext,
    /// frees the towers above `level`, and returns the truncated rest.
    /// Exact while the phase magnitude stays below `Q_level / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Leveled`] if `level > ct.level` (the
    /// ciphertext is freed in full in that case — the handles would
    /// otherwise leak).
    pub fn mod_drop(
        &mut self,
        mut ct: DeviceLeveledCiphertext,
        level: usize,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        if level > ct.level {
            let requested = level;
            let max = ct.level;
            self.free_ciphertext(ct)?;
            return Err(RpuError::Leveled(
                rpu_ntt::leveled::LeveledError::LevelTooHigh { requested, max },
            ));
        }
        for buf in ct.a.drain(level + 1..).chain(ct.b.drain(level + 1..)) {
            self.cluster.free(buf)?;
        }
        ct.level = level;
        Ok(ct)
    }

    /// The fused rescale kernel for dropping `q_level` on surviving
    /// tower `i`, compiled on first use (the dropped prime is part of
    /// the kernel identity).
    fn rescale_kernel(&mut self, level: usize, i: usize) -> Result<Arc<Kernel>, RpuError> {
        if let Some(k) = self.rescale_kernels.get(&(level, i)) {
            return Ok(Arc::clone(k));
        }
        let spec = RescaleSpec::new(
            self.ctx.n(),
            self.ctx.chain().prime(i),
            self.ctx.chain().prime(level),
            self.style,
        );
        let lane = self.tower_lane(i);
        let kernel = self.cluster.compile_on(lane, &spec)?;
        self.rescale_kernels.insert((level, i), Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Rescales: divides (with rounding) by the last live prime,
    /// dropping one tower. Per component, the dropped tower is
    /// inverse-transformed and downloaded, the host derives the exact
    /// rounding correction `δ`, and every surviving tower runs one
    /// fused `(ĉ − NTT(δ̂))·p⁻¹` dispatch on its lane. The input
    /// ciphertext is untouched; the result is freshly allocated at
    /// `level − 1`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Leveled`] at level 0, or [`RpuError`] on
    /// heap exhaustion / dispatch failure.
    pub fn rescale(
        &mut self,
        ct: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        if ct.level == 0 {
            return Err(RpuError::Leveled(
                rpu_ntt::leveled::LeveledError::BottomLevel,
            ));
        }
        let level = ct.level;
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        let mut out: Vec<Vec<DeviceBuffer>> = vec![Vec::new(), Vec::new()];
        for (c, towers) in [&ct.a, &ct.b].into_iter().enumerate() {
            let dropped = {
                let r = self.download_coeffs(level, &towers[level]);
                self.or_release(r, &temps)?
            };
            let delta = self.ctx.rescale_correction(level, &dropped);
            for (i, delta_i) in delta.iter().enumerate() {
                let kernel = {
                    let r = self.rescale_kernel(level, i);
                    self.or_release(r, &temps)?
                };
                let lane = self.tower_lane(i);
                let d_buf = {
                    let r = self.cluster.upload_to(lane, delta_i);
                    self.or_release(r, &temps)?
                };
                temps.push(d_buf);
                let scaled = {
                    let r = self.cluster.alloc_on(lane, self.ctx.n());
                    self.or_release(r, &temps)?
                };
                temps.push(scaled);
                let r = self
                    .dispatch(lane, &kernel, &[d_buf, towers[i]], &[scaled])
                    .map(|_| ());
                self.or_release(r, &temps)?;
                self.cluster.free(d_buf)?;
                temps.retain(|t| *t != d_buf);
                out[c].push(scaled);
            }
        }
        let b = out.pop().expect("two components");
        let a = out.pop().expect("two components");
        Ok(DeviceLeveledCiphertext {
            level: level - 1,
            a,
            b,
            noise: ct.noise.after_rescale(
                self.ctx.chain().prime(level),
                self.ctx.n(),
                self.ctx.chain().t(),
            ),
        })
    }

    /// Generates a leveled relinearization key — host-side gadget
    /// encryptions of `s²` drawn from `rng` (the stream
    /// [`LeveledContext::relin_keygen`] uses, so host and device key
    /// material match bit-exactly) — and uploads every part's towers to
    /// their lanes, replacing any previous key.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on heap exhaustion /
    /// dispatch failure during upload.
    pub fn relin_keygen(&mut self, rng: &mut Splitmix) -> Result<(), RpuError> {
        let sk = self.host_sk.clone().ok_or_else(|| {
            RpuError::Config("no resident secret key: call LeveledEvaluator::keygen first".into())
        })?;
        let rk = self.ctx.relin_keygen(&sk, rng, self.ksk_base_log);
        let mut uploaded: Vec<DeviceBuffer> = Vec::new();
        let result = (|| {
            let mut parts = Vec::with_capacity(rk.parts().len());
            for digits in rk.parts() {
                let mut part_i = Vec::with_capacity(digits.len());
                for (a_towers, b_towers) in digits {
                    let mut a_dev = Vec::with_capacity(a_towers.len());
                    let mut b_dev = Vec::with_capacity(b_towers.len());
                    for (k, (a_k, b_k)) in a_towers.iter().zip(b_towers).enumerate() {
                        let a = self.upload_eval(k, &a_k.coeffs())?;
                        uploaded.push(a);
                        a_dev.push(a);
                        let b = self.upload_eval(k, &b_k.coeffs())?;
                        uploaded.push(b);
                        b_dev.push(b);
                    }
                    part_i.push((a_dev, b_dev));
                }
                parts.push(part_i);
            }
            Ok(DeviceLeveledRelinKey {
                base_log: rk.base_log(),
                parts,
            })
        })();
        let dev = self.or_release(result, &uploaded)?;
        if let Some(old) = self.relin.take() {
            self.release_device_key(old);
        }
        self.relin = Some(dev);
        Ok(())
    }

    /// The resident relinearization key, if generated.
    pub fn relin_key(&self) -> Option<&DeviceLeveledRelinKey> {
        self.relin.as_ref()
    }

    /// The gadget digit base exponent future
    /// [`relin_keygen`](Self::relin_keygen) calls use (`log2(B)`,
    /// default 16).
    pub fn key_base_log(&self) -> u32 {
        self.ksk_base_log
    }

    /// Overrides the gadget digit base for *future* key generations.
    /// Smaller bases mean more digits (more dispatches, less noise per
    /// digit). The host oracle must be given the same base for
    /// bit-exact cross-checks.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] outside `[1, 64]`.
    pub fn set_key_base_log(&mut self, base_log: u32) -> Result<(), RpuError> {
        if !(1..=64).contains(&base_log) {
            return Err(RpuError::Config(format!(
                "key-switch base_log must be in [1, 64], got {base_log}"
            )));
        }
        self.ksk_base_log = base_log;
        Ok(())
    }

    /// Ciphertext×ciphertext multiplication at the operands' common
    /// level: per-tower degree-2 tensor (five pointwise dispatches per
    /// tower), then RNS relinearization — the `c2` towers are
    /// inverse-transformed and downloaded, gadget-decomposed on the
    /// host, and every digit is uploaded once per lane. The digit
    /// products then run tower-major: for each live tower `k`, one
    /// fused two-component key-switch dispatch per (source tower,
    /// digit) transforms the digit once and folds it into both of
    /// tower `k`'s accumulators against the resident key, so a level-`L`
    /// multiply issues `(L + 1) · Σ_{i ≤ L} ℓ_i` key-switch dispatches
    /// and, on one lane, loads each tower's key-switch image once. The
    /// result stays at the same level; follow with
    /// [`rescale`](Self::rescale) (or use
    /// [`mul_rescale`](Self::mul_rescale)) to shed the noise growth.
    ///
    /// Bit-exactly equal to the host [`LeveledContext::mul`] on any
    /// lane count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a relinearization key, or
    /// [`RpuError`] on heap exhaustion / dispatch failure.
    pub fn mul(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let relin = self.relin.as_ref().ok_or_else(|| {
            RpuError::Config(
                "no relinearization key: call LeveledEvaluator::relin_keygen first".into(),
            )
        })?;
        let base_log = relin.base_log;
        let digit_counts: Vec<usize> = relin.parts.iter().map(Vec::len).collect();
        let key_parts: Vec<Vec<(Vec<DeviceBuffer>, Vec<DeviceBuffer>)>> = relin.parts.clone();
        let level = x.level.min(y.level);
        let parts_used = relin.parts_at_level(level);
        let n = self.ctx.n();
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        macro_rules! step {
            ($e:expr) => {{
                let r = $e;
                self.or_release(r, &temps)?
            }};
        }

        // Per-tower tensor; c2 comes back to coefficients for the
        // host-side gadget decomposition.
        let mut c0 = Vec::with_capacity(level + 1);
        let mut c1 = Vec::with_capacity(level + 1);
        let mut c2_coeffs = Vec::with_capacity(level + 1);
        for l in 0..=level {
            let pwmul = Arc::clone(&self.kernels[l].pwmul);
            let pwadd = Arc::clone(&self.kernels[l].pwadd);
            let c0_l = step!(self.pointwise(l, &pwmul, &x.b[l], &y.b[l]));
            temps.push(c0_l);
            c0.push(c0_l);
            let t1 = step!(self.pointwise(l, &pwmul, &x.a[l], &y.b[l]));
            temps.push(t1);
            let t2 = step!(self.pointwise(l, &pwmul, &x.b[l], &y.a[l]));
            temps.push(t2);
            let c1_l = step!(self.pointwise(l, &pwadd, &t1, &t2));
            temps.push(c1_l);
            c1.push(c1_l);
            for t in [t1, t2] {
                self.cluster.free(t)?;
                temps.retain(|b| *b != t);
            }
            let c2_l = step!(self.pointwise(l, &pwmul, &x.a[l], &y.a[l]));
            temps.push(c2_l);
            let coeffs = step!(self.download_coeffs(l, &c2_l));
            self.cluster.free(c2_l)?;
            temps.retain(|b| *b != c2_l);
            c2_coeffs.push(coeffs);
        }

        // Key switch: zero accumulators per live tower, then one fused
        // two-component NTT-multiply-accumulate dispatch per (live
        // tower, source tower, digit) against the resident key material.
        let zeros = vec![0u128; n];
        let mut acc_a = Vec::with_capacity(level + 1);
        let mut acc_b = Vec::with_capacity(level + 1);
        for k in 0..=level {
            let lane = self.tower_lane(k);
            let a = step!(self.cluster.upload_to(lane, &zeros));
            temps.push(a);
            acc_a.push(a);
            let b = step!(self.cluster.upload_to(lane, &zeros));
            temps.push(b);
            acc_b.push(b);
        }
        // Decompose every source tower and upload each digit once per
        // distinct lane (a digit is `< B`, valid in every tower, so one
        // copy serves all of that lane's towers). Towers `0..=level`
        // land on lanes `0..lanes_used`.
        let lanes_used = (level + 1).min(self.cluster.lane_count());
        let mut digit_bufs: Vec<Vec<Vec<DeviceBuffer>>> = Vec::with_capacity(level + 1);
        for (i, src) in c2_coeffs.iter().enumerate() {
            let mut per_digit = Vec::with_capacity(digit_counts[i]);
            for digit in gadget_decompose(src, base_log, digit_counts[i]) {
                let mut per_lane = Vec::with_capacity(lanes_used);
                for lane in 0..lanes_used {
                    let d = step!(self.cluster.upload_to(lane, &digit));
                    temps.push(d);
                    per_lane.push(d);
                }
                per_digit.push(per_lane);
            }
            digit_bufs.push(per_digit);
        }
        // Tower-major: all of tower `k`'s digit dispatches run back to
        // back, so on one lane its key-switch image stays resident.
        // Each accumulator still sums over `(i, j)` in the same order.
        for k in 0..=level {
            let lane = self.tower_lane(k);
            let ksw = Arc::clone(&self.kernels[k].ksw);
            for (i, per_digit) in digit_bufs.iter().enumerate() {
                for (j, per_lane) in per_digit.iter().enumerate() {
                    let (ka, kb) = (key_parts[i][j].0[k], key_parts[i][j].1[k]);
                    step!(self
                        .dispatch(
                            lane,
                            &ksw,
                            &[per_lane[lane], ka, kb, acc_a[k], acc_b[k]],
                            &[acc_a[k], acc_b[k]],
                        )
                        .map(|_| ()));
                }
            }
        }
        for d in digit_bufs.into_iter().flatten().flatten() {
            self.cluster.free(d)?;
            temps.retain(|b| *b != d);
        }

        // Combine: a = c1 + Σ d̂·â, b = c0 + Σ d̂·b̂, per tower.
        let mut a = Vec::with_capacity(level + 1);
        let mut b = Vec::with_capacity(level + 1);
        for l in 0..=level {
            let pwadd = Arc::clone(&self.kernels[l].pwadd);
            let a_l = step!(self.pointwise(l, &pwadd, &c1[l], &acc_a[l]));
            temps.push(a_l);
            a.push(a_l);
            let b_l = step!(self.pointwise(l, &pwadd, &c0[l], &acc_b[l]));
            temps.push(b_l);
            b.push(b_l);
        }

        // Success: everything except the result components goes back to
        // the heap.
        for buf in temps {
            if !a.contains(&buf) && !b.contains(&buf) {
                self.cluster.free(buf)?;
            }
        }
        Ok(DeviceLeveledCiphertext {
            level,
            a,
            b,
            noise: x
                .noise
                .after_mul(y.noise, n, self.ctx.chain().t(), parts_used, base_log),
        })
    }

    /// Fused level-aware multiply: [`mul`](Self::mul) followed by
    /// [`rescale`](Self::rescale), freeing the intermediate product.
    /// The result lives one level below the operands' common level.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as `mul` and `rescale` do (including
    /// [`RpuError::Leveled`] when the operands are already at level 0).
    pub fn mul_rescale(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let product = self.mul(x, y)?;
        let rescaled = self.rescale(&product);
        self.free_ciphertext(product)?;
        rescaled
    }

    /// Per-tower phase coefficients `b̂_l ⊖ â_l·ŝ_l` (natural order,
    /// downloaded) — the on-device front half of decryption and noise
    /// measurement.
    fn phase_towers(&mut self, ct: &DeviceLeveledCiphertext) -> Result<Vec<Vec<u128>>, RpuError> {
        self.resident_key(ct.level)?;
        let mut towers = Vec::with_capacity(ct.level + 1);
        for l in 0..=ct.level {
            let sk = self.sk[l];
            let pwmul = Arc::clone(&self.kernels[l].pwmul);
            let t = self.pointwise(l, &pwmul, &ct.a[l], &sk)?; // â ⊙ ŝ
            let lane = self.tower_lane(l);
            let sub = Arc::clone(&self.kernels[l].pwsub);
            let coeffs = {
                let r = self
                    .dispatch(lane, &sub, &[ct.b[l], t], &[t]) // b̂ ⊖ â·ŝ
                    .and_then(|_| self.download_coeffs(l, &t));
                self.or_release(r, &[t])?
            };
            self.cluster.free(t)?;
            towers.push(coeffs);
        }
        Ok(towers)
    }

    /// Decrypts a resident ciphertext with the resident secret key:
    /// per-tower phase on-device, CRT decode on the host.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on dispatch failure.
    pub fn decrypt(&mut self, ct: &DeviceLeveledCiphertext) -> Result<Vec<u128>, RpuError> {
        let towers = self.phase_towers(ct)?;
        Ok(self.ctx.decode_phase_towers(&towers))
    }

    /// Measures the actual noise of a resident ciphertext (floor-`log2`
    /// of the largest centered phase magnitude, in bits) — the debug
    /// path that validates the [`NoiseBudget`] tracker; measured never
    /// exceeds `ct.noise().bits()`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as [`decrypt`](Self::decrypt) does.
    pub fn measure_noise(&mut self, ct: &DeviceLeveledCiphertext) -> Result<f64, RpuError> {
        let towers = self.phase_towers(ct)?;
        Ok(self.ctx.phase_noise_bits(&towers))
    }

    /// Downloads a resident ciphertext into host form (via on-device
    /// inverse NTTs on each tower's lane), e.g. to cross-check ring
    /// elements against the [`LeveledContext`] oracle.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles or dispatch failure.
    pub fn download_ciphertext(
        &mut self,
        ct: &DeviceLeveledCiphertext,
    ) -> Result<LeveledCiphertext, RpuError> {
        let mut a = Vec::with_capacity(ct.level + 1);
        let mut b = Vec::with_capacity(ct.level + 1);
        for l in 0..=ct.level {
            a.push(self.download_coeffs(l, &ct.a[l])?);
            b.push(self.download_coeffs(l, &ct.b[l])?);
        }
        Ok(LeveledCiphertext::from_coeff_towers(
            &self.ctx, a, b, ct.noise,
        )?)
    }

    /// Frees every tower of a resident ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free_ciphertext(&mut self, ct: DeviceLeveledCiphertext) -> Result<(), RpuError> {
        for buf in ct.a.into_iter().chain(ct.b) {
            self.cluster.free(buf)?;
        }
        Ok(())
    }
}
