//! RLWE pipelines executed end-to-end on the RPU over device-resident
//! buffers — the ciphertext-level traffic the paper times (Fig. 1).
//!
//! [`RlweEvaluator`] keeps every ciphertext component resident in an
//! [`RpuCluster`] in the RPU's NTT (evaluation) form, so a whole
//! homomorphic computation is a chain of kernel dispatches with **no
//! host round trips** between operations. An RLWE ciphertext is two
//! independent ring elements — the mask `a` and the payload `b` — and
//! on a multi-lane cluster the evaluator shards exactly along that
//! seam: `a`-components live on one lane, `b`-components on another, so
//! the two pointwise dispatches of every `add`/`sub`/`mul_plain` land
//! on different devices and overlap (the secret key is replicated to
//! both lanes at `keygen`). With one lane both components share it and
//! the behavior is identical to a single session.
//!
//! * `encrypt` — sample on the host, then `b = a·s + payload` as
//!   forward NTTs plus pointwise dispatches on the `b` lane (the mask
//!   is uploaded to both lanes rather than moved between them);
//! * `add` / `sub` / `mul_plain` — per-component pointwise kernels,
//!   one lane each;
//! * `mul` — ciphertext×ciphertext: the degree-2 tensor as pointwise
//!   dispatches split across the component lanes, then relinearization
//!   as `ℓ` gadget-digit jobs ([`KeySwitchSpec`]: one dispatch of one
//!   fused program per digit, which forward-transforms the digit once
//!   and multiply-accumulates it into both the `a` and the `b`
//!   accumulator) spread over **every** lane by the cluster's
//!   work-stealing scheduler against per-lane replicated key material;
//! * `rotate` / `apply_galois` — the Galois automorphism `σ_g` as the
//!   on-device coefficient-permutation kernel ([`AutomorphismSpec`],
//!   built on the `vgather` indexed load), followed by the same
//!   scheduled key switch;
//! * `decrypt` — `a·s` on the mask lane, one host-link migration, then
//!   `b − a·s` and the inverse NTT on the payload lane; only the final
//!   coefficient vector is downloaded for centered `mod t` decoding;
//! * `convolve` — the fused negacyclic polynomial product
//!   ([`ConvolutionSpec`]) over resident coefficient buffers, dispatched
//!   on whichever lane holds the operands.
//!
//! Results are verified against the host-side [`RlweContext`] reference
//! in `tests/tests/rlwe_on_rpu.rs`: the evaluator draws the same
//! randomness stream, so device ciphertexts equal host ciphertexts
//! exactly, on any lane count.

use crate::buffer::{BufferError, DeviceBuffer};
use crate::lanes::{LaneJob, LaneWorker, RpuCluster};
use crate::run::{Rpu, RunReport};
use crate::session::RpuSession;
use crate::RpuError;
use rpu_arith::gadget_decompose;
use rpu_codegen::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, Direction, ElementwiseOp, ElementwiseSpec,
    Kernel, KeySwitchSpec, NttSpec,
};
use rpu_ntt::rlwe::{Ciphertext, KeySwitchKey, RlweContext, RlweParams, SecretKey, Splitmix};
use std::collections::HashMap;
use std::sync::Arc;

/// Default gadget digit base (`B = 2^16`) for relinearization and Galois
/// keys: 8 digits at the default ~126-bit primes, keeping per-digit
/// noise ≪ q while the key material stays a few ring elements per lane.
const DEFAULT_KSK_BASE_LOG: u32 = 16;

/// A ciphertext whose components live in device memory, in the RPU
/// kernel's NTT (evaluation) ordering. On a multi-lane evaluator the
/// mask is resident on the `a` lane and the payload on the `b` lane.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCiphertext {
    /// The resident mask component `â`.
    pub a: DeviceBuffer,
    /// The resident payload component `b̂`.
    pub b: DeviceBuffer,
}

/// Key-switch key material resident on the cluster: for every gadget
/// digit `j`, the evaluation-form components `(â_j, b̂_j)` replicated on
/// **every** lane, so the work-stealing scheduler can run digit `j`'s
/// products on whichever lane steals the job without any cross-lane
/// traffic. Created by [`RlweEvaluator::relin_keygen`] /
/// [`RlweEvaluator::rotation_keygen`].
#[derive(Debug)]
pub struct DeviceKeySwitchKey {
    base_log: u32,
    /// `a[j][lane]` — digit `j`'s mask component on each lane.
    a: Vec<Vec<DeviceBuffer>>,
    /// `b[j][lane]` — digit `j`'s payload component on each lane.
    b: Vec<Vec<DeviceBuffer>>,
}

impl DeviceKeySwitchKey {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// Number of gadget digits `ℓ`.
    pub fn levels(&self) -> usize {
        self.a.len()
    }

    /// Total resident elements this key occupies across all lanes
    /// (`2 · ℓ · n · lanes` — the key-material footprint the README's
    /// size table quotes).
    pub fn resident_elements(&self) -> usize {
        self.a
            .iter()
            .chain(self.b.iter())
            .flat_map(|per_lane| per_lane.iter())
            .map(DeviceBuffer::len)
            .sum()
    }

    /// Every handle of the key, for bulk release.
    fn all_handles(&self) -> Vec<DeviceBuffer> {
        self.a
            .iter()
            .chain(self.b.iter())
            .flat_map(|per_lane| per_lane.iter().copied())
            .collect()
    }
}

/// The six compiled kernel shapes of one lane.
#[derive(Debug)]
struct LaneKernels {
    fwd: Arc<Kernel>,
    inv: Arc<Kernel>,
    pwmul: Arc<Kernel>,
    pwadd: Arc<Kernel>,
    pwsub: Arc<Kernel>,
    conv: Arc<Kernel>,
}

impl LaneKernels {
    fn compile(
        cluster: &mut RpuCluster<'_>,
        lane: usize,
        n: usize,
        q: u128,
        style: CodegenStyle,
    ) -> Result<Self, RpuError> {
        Ok(LaneKernels {
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
            conv: cluster.compile_on(lane, &ConvolutionSpec::new(n, q, style))?,
        })
    }
}

/// Runs the toy RLWE scheme's operations as chains of kernel dispatches
/// over device-resident buffers, sharded across the lanes of an
/// [`RpuCluster`].
///
/// Created over an [`Rpu`]; opens a cluster with the configured
/// ([`crate::RpuBuilder::lanes`]) lane count. All six kernel shapes
/// (forward/inverse NTT, pointwise mul/add/sub, fused convolution) are
/// compiled and golden-verified once per used lane at construction;
/// after that every operation is pure dispatch traffic.
///
/// The ring degree must be one the kernel generators support (a power
/// of two ≥ 1024) and `q` an NTT prime for `2n` — use
/// `session.primes_for(n)` to pick one.
#[derive(Debug)]
pub struct RlweEvaluator<'a> {
    cluster: RpuCluster<'a>,
    ctx: RlweContext,
    /// Lane holding every ciphertext's mask component.
    lane_a: usize,
    /// Lane holding every ciphertext's payload component.
    lane_b: usize,
    ka: LaneKernels,
    kb: LaneKernels,
    /// The secret key in RPU evaluation form, resident on both
    /// component lanes after `keygen`.
    sk_a: Option<DeviceBuffer>,
    sk_b: Option<DeviceBuffer>,
    /// Host copy of the secret key (needed to derive key-switch keys).
    host_sk: Option<SecretKey>,
    /// Gadget digit base for key-switch keys generated by this
    /// evaluator.
    ksk_base_log: u32,
    /// Resident relinearization key (per-lane replicated), if generated.
    relin: Option<DeviceKeySwitchKey>,
    /// Resident Galois keys by Galois element.
    galois: HashMap<usize, DeviceKeySwitchKey>,
    /// The fused key-switch kernel compiled per lane (populated at the
    /// first key-switch keygen).
    ksw_kernels: Vec<Arc<Kernel>>,
    /// Automorphism kernels per (component lane, Galois element).
    autom_kernels: HashMap<(usize, usize), Arc<Kernel>>,
    dispatches: u64,
    simulated_us: f64,
}

impl<'a> RlweEvaluator<'a> {
    /// Builds an evaluator: host-side context plus the compiled,
    /// golden-verified kernel shapes on each component lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Ring`] for invalid RLWE parameters and
    /// [`RpuError::Codegen`] if the ring degree is outside what the
    /// generators support.
    pub fn new(rpu: &'a Rpu, params: RlweParams, style: CodegenStyle) -> Result<Self, RpuError> {
        let ctx = RlweContext::new(params)?;
        let mut cluster = rpu.cluster();
        let (n, q) = (params.n, params.q);
        let lane_a = 0;
        let lane_b = 1 % cluster.lane_count();
        let ka = LaneKernels::compile(&mut cluster, lane_a, n, q, style)?;
        let kb = if lane_b == lane_a {
            // One lane: both components share its kernels (cache hits).
            LaneKernels::compile(&mut cluster, lane_a, n, q, style)?
        } else {
            LaneKernels::compile(&mut cluster, lane_b, n, q, style)?
        };
        Ok(RlweEvaluator {
            cluster,
            ctx,
            lane_a,
            lane_b,
            ka,
            kb,
            sk_a: None,
            sk_b: None,
            host_sk: None,
            ksk_base_log: DEFAULT_KSK_BASE_LOG,
            relin: None,
            galois: HashMap::new(),
            ksw_kernels: Vec::new(),
            autom_kernels: HashMap::new(),
            dispatches: 0,
            simulated_us: 0.0,
        })
    }

    /// The host-side reference context (same parameters).
    pub fn context(&self) -> &RlweContext {
        &self.ctx
    }

    /// The mask-component lane's session (cache statistics, manual
    /// buffer work for [`convolve`](RlweEvaluator::convolve) operands).
    pub fn session(&mut self) -> &mut RpuSession<'a> {
        self.cluster.lane_session(0)
    }

    /// The cluster the evaluator shards over.
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// Mutable access to the cluster (lane sessions, buffer migration).
    pub fn cluster_mut(&mut self) -> &mut RpuCluster<'a> {
        &mut self.cluster
    }

    /// The `(mask, payload)` component lanes.
    pub fn component_lanes(&self) -> (usize, usize) {
        (self.lane_a, self.lane_b)
    }

    /// Kernels dispatched so far, across every lane.
    pub fn dispatch_count(&self) -> u64 {
        self.dispatches
    }

    /// Total simulated on-RPU time of every dispatch so far, in
    /// microseconds — the *sequential-equivalent* cost. With two
    /// component lanes, independent per-component dispatches overlap;
    /// [`makespan_us`](RlweEvaluator::makespan_us) is the overlapped
    /// completion time.
    pub fn simulated_us(&self) -> f64 {
        self.simulated_us
    }

    /// The busiest lane's simulated time, in microseconds — what the
    /// multi-lane deployment actually takes.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
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

    /// The kernel set used on `lane`. Non-component lanes (possible
    /// during key-material upload on wide clusters) deliberately share
    /// the mask lane's compiled programs: a [`Kernel`] is a data-free
    /// program object, so dispatching it on another lane's session is
    /// exactly a host loading the same binary into a second die's
    /// instruction memory — only the per-lane *cache* state differs.
    fn kernels(&self, lane: usize) -> &LaneKernels {
        if lane == self.lane_b && self.lane_b != self.lane_a {
            &self.kb
        } else {
            &self.ka
        }
    }

    /// Samples a secret key on the host, uploads it, and transforms it
    /// to evaluation form on every component lane, where it stays
    /// resident for every later `encrypt`/`decrypt`. Returns the
    /// host-form key so results can be cross-checked against
    /// [`RlweContext`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if device memory is exhausted or a dispatch
    /// faults.
    pub fn keygen(&mut self, rng: &mut Splitmix) -> Result<SecretKey, RpuError> {
        let sk = self.ctx.keygen(rng);
        // On a single lane both slots hold the same handle — free once.
        let (old_a, old_b) = (self.sk_a.take(), self.sk_b.take());
        for old in [old_a, old_b.filter(|b| old_a != Some(*b))]
            .into_iter()
            .flatten()
        {
            self.cluster.free(old)?;
        }
        // Key-switch material derived from the previous key is now
        // useless: release it rather than let stale keys mis-relinearize.
        if let Some(old) = self.relin.take() {
            self.release_device_key(old);
        }
        for (_, old) in std::mem::take(&mut self.galois) {
            self.release_device_key(old);
        }
        let coeffs = sk.s_coeffs();
        self.sk_a = Some(self.upload_eval(self.lane_a, &coeffs)?);
        self.sk_b = if self.lane_b == self.lane_a {
            self.sk_a
        } else {
            Some(self.upload_eval(self.lane_b, &coeffs)?)
        };
        self.host_sk = Some(sk.clone());
        Ok(sk)
    }

    fn resident_key(&self, lane: usize) -> Result<DeviceBuffer, RpuError> {
        let sk = if lane == self.lane_b && self.lane_b != self.lane_a {
            self.sk_b
        } else {
            self.sk_a
        };
        sk.ok_or_else(|| {
            RpuError::Config("no resident secret key: call RlweEvaluator::keygen first".into())
        })
    }

    /// Frees temporaries while unwinding an error path, then forwards
    /// the error — multi-dispatch operations must not leak heap space
    /// when a later step fails. (The handles are known-live, so the
    /// inner frees cannot fail.)
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

    /// Uploads coefficients to `lane` and forward-transforms them
    /// on-device, returning the evaluation-form resident buffer.
    fn upload_eval(&mut self, lane: usize, coeffs: &[u128]) -> Result<DeviceBuffer, RpuError> {
        let raw = self.cluster.upload_to(lane, coeffs)?;
        let alloc = self.cluster.alloc_on(lane, coeffs.len());
        let hat = self.or_release(alloc, &[raw])?;
        let fwd = Arc::clone(&self.kernels(lane).fwd);
        let run = self.dispatch(lane, &fwd, &[raw], &[hat]).map(|_| ());
        self.or_release(run, &[raw, hat])?;
        self.cluster.free(raw)?;
        Ok(hat)
    }

    /// Inverse-transforms a resident evaluation-form buffer on its lane
    /// and downloads the natural-order coefficients.
    fn download_coeffs(&mut self, lane: usize, hat: &DeviceBuffer) -> Result<Vec<u128>, RpuError> {
        let tmp = self.cluster.alloc_on(lane, hat.len())?;
        let inv = Arc::clone(&self.kernels(lane).inv);
        let run = self.dispatch(lane, &inv, &[*hat], &[tmp]).map(|_| ());
        let coeffs = run.and_then(|()| self.cluster.download(&tmp));
        let coeffs = self.or_release(coeffs, &[tmp])?;
        self.cluster.free(tmp)?;
        Ok(coeffs)
    }

    /// One pointwise dispatch `out = op(x, y)` into a fresh buffer on
    /// `lane`.
    fn pointwise(
        &mut self,
        lane: usize,
        kernel: &Arc<Kernel>,
        x: &DeviceBuffer,
        y: &DeviceBuffer,
    ) -> Result<DeviceBuffer, RpuError> {
        let out = self.cluster.alloc_on(lane, x.len())?;
        let kernel = Arc::clone(kernel);
        let run = self.dispatch(lane, &kernel, &[*x, *y], &[out]).map(|_| ());
        self.or_release(run, &[out])?;
        Ok(out)
    }

    /// Encrypts a plaintext vector: randomness is sampled on the host
    /// (the same stream [`RlweContext::encrypt`] draws), then
    /// `b̂ = â ⊙ ŝ ⊕ payload̂` runs entirely on-device. The mask is
    /// uploaded to both component lanes (lanes share no memory), and
    /// the resulting ciphertext stays resident: `â` on the mask lane,
    /// `b̂` on the payload lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](RlweEvaluator::keygen), [`RpuError::Buffer`] on heap
    /// exhaustion, or [`RpuError::Exec`] if a dispatch faults.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(
        &mut self,
        message: &[u128],
        rng: &mut Splitmix,
    ) -> Result<DeviceCiphertext, RpuError> {
        let sk = self.resident_key(self.lane_b)?;
        let (a_coeffs, payload) = self.ctx.sample_mask_and_payload(message, rng);
        // The ciphertext's resident mask, on the mask lane.
        let a_hat = self.upload_eval(self.lane_a, &a_coeffs)?;
        // The payload lane's working copy of the mask (replicating the
        // host-known coefficients is cheaper than a cross-lane move).
        let a_work = if self.lane_b == self.lane_a {
            a_hat
        } else {
            let r = self.upload_eval(self.lane_b, &a_coeffs);
            self.or_release(r, &[a_hat])?
        };
        let mut temps = vec![a_hat];
        if a_work != a_hat {
            temps.push(a_work);
        }
        let p_hat = {
            let r = self.upload_eval(self.lane_b, &payload);
            self.or_release(r, &temps)?
        };
        temps.push(p_hat);
        let t = {
            let pwmul = Arc::clone(&self.kernels(self.lane_b).pwmul);
            let r = self.pointwise(self.lane_b, &pwmul, &a_work, &sk); // â ⊙ ŝ
            self.or_release(r, &temps)?
        };
        temps.push(t);
        let add = Arc::clone(&self.kernels(self.lane_b).pwadd);
        let r = self
            .dispatch(self.lane_b, &add, &[t, p_hat], &[t]) // ⊕ payload̂
            .map(|_| ());
        self.or_release(r, &temps)?;
        self.cluster.free(p_hat)?;
        if a_work != a_hat {
            self.cluster.free(a_work)?;
        }
        Ok(DeviceCiphertext { a: a_hat, b: t })
    }

    /// Homomorphic addition over resident ciphertexts: one pointwise
    /// dispatch per component, on that component's lane — with two
    /// lanes the two dispatches overlap.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn add(
        &mut self,
        x: &DeviceCiphertext,
        y: &DeviceCiphertext,
    ) -> Result<DeviceCiphertext, RpuError> {
        let pa = Arc::clone(&self.kernels(self.lane_a).pwadd);
        let pb = Arc::clone(&self.kernels(self.lane_b).pwadd);
        let a = self.pointwise(self.lane_a, &pa, &x.a, &y.a)?;
        let b = {
            let r = self.pointwise(self.lane_b, &pb, &x.b, &y.b);
            self.or_release(r, &[a])?
        };
        Ok(DeviceCiphertext { a, b })
    }

    /// Homomorphic subtraction over resident ciphertexts (per-component
    /// dispatches, like [`add`](RlweEvaluator::add)).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn sub(
        &mut self,
        x: &DeviceCiphertext,
        y: &DeviceCiphertext,
    ) -> Result<DeviceCiphertext, RpuError> {
        let pa = Arc::clone(&self.kernels(self.lane_a).pwsub);
        let pb = Arc::clone(&self.kernels(self.lane_b).pwsub);
        let a = self.pointwise(self.lane_a, &pa, &x.a, &y.a)?;
        let b = {
            let r = self.pointwise(self.lane_b, &pb, &x.b, &y.b);
            self.or_release(r, &[a])?
        };
        Ok(DeviceCiphertext { a, b })
    }

    /// Multiplication by a plaintext polynomial (small coefficients):
    /// the plaintext is uploaded and forward-transformed once per
    /// component lane, then each component is multiplied on its own
    /// lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    ///
    /// # Panics
    ///
    /// Panics if `plain.len() != n`.
    pub fn mul_plain(
        &mut self,
        x: &DeviceCiphertext,
        plain: &[u128],
    ) -> Result<DeviceCiphertext, RpuError> {
        assert_eq!(
            plain.len(),
            self.ctx.params().n,
            "plaintext length must equal n"
        );
        let p_a = self.upload_eval(self.lane_a, plain)?;
        let p_b = if self.lane_b == self.lane_a {
            p_a
        } else {
            let r = self.upload_eval(self.lane_b, plain);
            self.or_release(r, &[p_a])?
        };
        let mut temps = vec![p_a];
        if p_b != p_a {
            temps.push(p_b);
        }
        let a = {
            let pwmul = Arc::clone(&self.kernels(self.lane_a).pwmul);
            let r = self.pointwise(self.lane_a, &pwmul, &x.a, &p_a);
            self.or_release(r, &temps)?
        };
        temps.push(a);
        let b = {
            let pwmul = Arc::clone(&self.kernels(self.lane_b).pwmul);
            let r = self.pointwise(self.lane_b, &pwmul, &x.b, &p_b);
            self.or_release(r, &temps)?
        };
        self.cluster.free(p_a)?;
        if p_b != p_a {
            self.cluster.free(p_b)?;
        }
        Ok(DeviceCiphertext { a, b })
    }

    /// Decrypts a resident ciphertext with the resident secret key:
    /// `â ⊙ ŝ` runs on the mask lane, crosses to the payload lane over
    /// the host link (the one inter-lane move of the pipeline), then
    /// `b̂ ⊖ â·ŝ` and the inverse NTT run there; only the noisy
    /// coefficient vector is downloaded, and the centered `mod t`
    /// decoding to plaintext happens on the host.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](RlweEvaluator::keygen), or [`RpuError`] on dispatch
    /// failure.
    pub fn decrypt(&mut self, ct: &DeviceCiphertext) -> Result<Vec<u128>, RpuError> {
        let sk = self.resident_key(self.lane_a)?;
        let pwmul = Arc::clone(&self.kernels(self.lane_a).pwmul);
        let t = self.pointwise(self.lane_a, &pwmul, &ct.a, &sk)?; // â ⊙ ŝ
        let t = {
            // A failed migration leaves the source handle live on the
            // mask lane — release it rather than leak heap space.
            let moved = self.cluster.migrate(t, self.lane_b);
            self.or_release(moved, &[t])?
        };
        let sub = Arc::clone(&self.kernels(self.lane_b).pwsub);
        let noisy = {
            let r = self
                .dispatch(self.lane_b, &sub, &[ct.b, t], &[t]) // b̂ ⊖ â·ŝ
                .and_then(|_| self.download_coeffs(self.lane_b, &t));
            self.or_release(r, &[t])?
        };
        self.cluster.free(t)?;
        Ok(self.ctx.decode_noisy(&noisy))
    }

    /// Downloads a resident ciphertext into host form (via on-device
    /// inverse NTTs on each component's lane), e.g. to cross-check
    /// against [`RlweContext`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles or dispatch failure.
    pub fn download_ciphertext(&mut self, ct: &DeviceCiphertext) -> Result<Ciphertext, RpuError> {
        let a = self.download_coeffs(self.lane_a, &ct.a)?;
        let b = self.download_coeffs(self.lane_b, &ct.b)?;
        Ok(Ciphertext::from_coeff_parts(&self.ctx, a, b)?)
    }

    /// Frees both components of a resident ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free_ciphertext(&mut self, ct: DeviceCiphertext) -> Result<(), RpuError> {
        self.cluster.free(ct.a)?;
        self.cluster.free(ct.b)
    }

    // ------------------------------------------------------------------
    // Key switching: relinearization and Galois rotation
    // ------------------------------------------------------------------

    /// The gadget digit base exponent key-switch keys are generated
    /// with (`log2(B)`, default 16).
    pub fn key_base_log(&self) -> u32 {
        self.ksk_base_log
    }

    /// Overrides the gadget digit base for *future* key generations.
    /// Smaller bases mean more digits (more dispatches, less noise per
    /// digit); the default 16 is comfortable for every supported prime.
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

    /// The resident relinearization key, if generated.
    pub fn relin_key(&self) -> Option<&DeviceKeySwitchKey> {
        self.relin.as_ref()
    }

    /// The resident Galois key for element `g`, if generated.
    pub fn galois_key(&self, g: usize) -> Option<&DeviceKeySwitchKey> {
        self.galois.get(&g)
    }

    /// Best-effort release of a whole device key (used when re-keying;
    /// handles are known-live so the frees cannot fail in practice).
    fn release_device_key(&mut self, key: DeviceKeySwitchKey) {
        for buf in key.all_handles() {
            let _ = self.cluster.free(buf);
        }
    }

    /// Compiles the fused key-switch kernel on every lane (once), so
    /// digit jobs can run wherever the scheduler places them.
    fn ensure_ksw_kernels(&mut self) -> Result<(), RpuError> {
        if !self.ksw_kernels.is_empty() {
            return Ok(());
        }
        let params = self.ctx.params();
        let style = self.ka.conv.key().style;
        let spec = KeySwitchSpec::new(params.n, params.q, style);
        let kernels = (0..self.cluster.lane_count())
            .map(|lane| self.cluster.compile_on(lane, &spec))
            .collect::<Result<Vec<_>, _>>()?;
        self.ksw_kernels = kernels;
        Ok(())
    }

    /// Uploads host key-switch key material to **every** lane in device
    /// evaluation form: per digit, the `(a_j, b_j)` coefficients are
    /// uploaded and forward-transformed on each lane, where they stay
    /// resident (`2·ℓ·n` elements per lane — the price of letting any
    /// lane steal any digit job).
    fn upload_keyswitch_key(&mut self, ksk: &KeySwitchKey) -> Result<DeviceKeySwitchKey, RpuError> {
        self.ensure_ksw_kernels()?;
        let lanes = self.cluster.lane_count();
        let mut uploaded: Vec<DeviceBuffer> = Vec::new();
        let result = (|| {
            let mut a_parts = Vec::with_capacity(ksk.levels());
            let mut b_parts = Vec::with_capacity(ksk.levels());
            for (a_j, b_j) in ksk.parts() {
                let (a_coeffs, b_coeffs) = (a_j.coeffs(), b_j.coeffs());
                let mut a_lane = Vec::with_capacity(lanes);
                let mut b_lane = Vec::with_capacity(lanes);
                for lane in 0..lanes {
                    let a = self.upload_eval(lane, &a_coeffs)?;
                    uploaded.push(a);
                    a_lane.push(a);
                    let b = self.upload_eval(lane, &b_coeffs)?;
                    uploaded.push(b);
                    b_lane.push(b);
                }
                a_parts.push(a_lane);
                b_parts.push(b_lane);
            }
            Ok(DeviceKeySwitchKey {
                base_log: ksk.base_log(),
                a: a_parts,
                b: b_parts,
            })
        })();
        if result.is_err() {
            // Heap exhaustion mid-upload must not strand half a key.
            for buf in uploaded {
                let _ = self.cluster.free(buf);
            }
        }
        result
    }

    /// Generates a relinearization key — host-side gadget encryptions of
    /// `s²` drawn from `rng` (the same stream [`RlweContext::relin_keygen`]
    /// uses, so host and device key material match bit-exactly) — and
    /// uploads it to every lane, replacing any previous relin key.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](RlweEvaluator::keygen), or [`RpuError`] on heap
    /// exhaustion / dispatch failure during upload.
    pub fn relin_keygen(&mut self, rng: &mut Splitmix) -> Result<(), RpuError> {
        let sk = self.require_host_key()?.clone();
        let rk = self.ctx.relin_keygen(&sk, rng, self.ksk_base_log);
        let dev = self.upload_keyswitch_key(rk.key_switch_key())?;
        if let Some(old) = self.relin.take() {
            self.release_device_key(old);
        }
        self.relin = Some(dev);
        Ok(())
    }

    /// Generates and uploads the Galois key for the automorphism
    /// `x → x^g`, and compiles the `σ_g` coefficient-permutation kernel
    /// on both component lanes. Returns the (normalized) Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior keygen,
    /// [`RpuError::Ring`] for an even `g`, or [`RpuError`] on upload
    /// failure.
    pub fn galois_keygen(&mut self, g: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let sk = self.require_host_key()?.clone();
        let gk = self.ctx.galois_keygen(&sk, g, rng, self.ksk_base_log)?;
        let g = gk.galois_element();
        let params = self.ctx.params();
        let style = self.ka.conv.key().style;
        let spec = AutomorphismSpec::new(params.n, params.q, g, style);
        for lane in [self.lane_a, self.lane_b] {
            let kernel = self.cluster.compile_on(lane, &spec)?;
            self.autom_kernels.insert((lane, g), kernel);
        }
        let dev = self.upload_keyswitch_key(gk.key_switch_key())?;
        if let Some(old) = self.galois.remove(&g) {
            self.release_device_key(old);
        }
        self.galois.insert(g, dev);
        Ok(g)
    }

    /// Generates the rotation key for `steps` positions
    /// (`g = 5^steps mod 2n`); see
    /// [`galois_keygen`](RlweEvaluator::galois_keygen).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as `galois_keygen` does.
    pub fn rotation_keygen(&mut self, steps: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let g = self.ctx.galois_element(steps);
        self.galois_keygen(g, rng)
    }

    fn require_host_key(&self) -> Result<&SecretKey, RpuError> {
        self.host_sk.as_ref().ok_or_else(|| {
            RpuError::Config("no resident secret key: call RlweEvaluator::keygen first".into())
        })
    }

    /// The gadget key-switch inner product, scheduled across **all**
    /// lanes: `src_coeffs` is decomposed into `ℓ` digits, and each digit
    /// becomes one work-stealing job (upload the digit, then one fused
    /// two-component NTT-multiply-accumulate dispatch that transforms
    /// the digit once and folds it into both of that lane's per-lane
    /// accumulators against its resident key parts). Per-lane partial
    /// sums are then folded onto the component lanes — modular
    /// addition is associative-commutative, so the result is bit-exact
    /// whatever the steal order. Returns `(Σ d̂_j·â_j on lane_a,
    /// Σ d̂_j·b̂_j on lane_b)`.
    fn key_switch(
        &mut self,
        src_coeffs: &[u128],
        base_log: u32,
        key_a: Vec<Vec<DeviceBuffer>>,
        key_b: Vec<Vec<DeviceBuffer>>,
    ) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
        let n = self.ctx.params().n;
        let lanes = self.cluster.lane_count();
        let levels = key_a.len();
        let digits = gadget_decompose(src_coeffs, base_log, levels);

        // Zero accumulators per lane per component side.
        let zeros = vec![0u128; n];
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        let mut acc_a = Vec::with_capacity(lanes);
        let mut acc_b = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let a = {
                let r = self.cluster.upload_to(lane, &zeros);
                self.or_release(r, &temps)?
            };
            temps.push(a);
            acc_a.push(a);
            let b = {
                let r = self.cluster.upload_to(lane, &zeros);
                self.or_release(r, &temps)?
            };
            temps.push(b);
            acc_b.push(b);
        }

        let ksw = self.ksw_kernels.clone();
        let jobs: Vec<LaneJob<'_, ()>> = digits
            .into_iter()
            .enumerate()
            .map(|(j, digit)| {
                let ksw = ksw.clone();
                let part_a = key_a[j].clone();
                let part_b = key_b[j].clone();
                let acc_a = acc_a.clone();
                let acc_b = acc_b.clone();
                Box::new(move |w: &mut LaneWorker<'_, '_>| {
                    let l = w.lane_index();
                    let d = w.upload(&digit)?;
                    let r = w.dispatch(
                        &ksw[l],
                        &[d, part_a[l], part_b[l], acc_a[l], acc_b[l]],
                        &[acc_a[l], acc_b[l]],
                    );
                    let _ = w.free(d);
                    r.map(|_| ())
                }) as LaneJob<'_, ()>
            })
            .collect();
        {
            let r = self.cluster.run_jobs(jobs);
            let (_, report) = self.or_release(r, &temps)?;
            self.dispatches += report.per_lane.iter().map(|l| l.dispatches).sum::<u64>();
            self.simulated_us += report.sequential_us;
        }

        // Fold per-lane partials onto the component lanes. After this,
        // only the two totals stay live.
        let tot_a = {
            let r = self.fold_partials(&acc_a, self.lane_a);
            self.or_release(r, &temps)?
        };
        temps.retain(|t| !acc_a.contains(t));
        let tot_b = {
            let r = self.fold_partials(&acc_b, self.lane_b);
            let mut guard = temps.clone();
            guard.push(tot_a);
            self.or_release(r, &guard)?
        };
        Ok((tot_a, tot_b))
    }

    /// Sums per-lane partial accumulators into the copy on `home`
    /// (migrating the others over the host link), freeing everything but
    /// the returned total.
    fn fold_partials(
        &mut self,
        accs: &[DeviceBuffer],
        home: usize,
    ) -> Result<DeviceBuffer, RpuError> {
        let tot = accs[home];
        let add = Arc::clone(&self.kernels(home).pwadd);
        for (lane, acc) in accs.iter().enumerate() {
            if lane == home {
                continue;
            }
            let moved = self.cluster.migrate(*acc, home)?;
            let r = self.dispatch(home, &add, &[tot, moved], &[tot]).map(|_| ());
            self.or_release(r, &[moved])?;
            self.cluster.free(moved)?;
        }
        Ok(tot)
    }

    /// Ciphertext×ciphertext multiplication on the RPU: tensor the
    /// degree-2 ciphertext — `c2 = â_x ⊙ â_y` on the mask lane,
    /// `c0 = b̂_x ⊙ b̂_y` on the payload lane, and the cross terms
    /// `c1 = â_x ⊙ b̂_y ⊕ â_y ⊙ b̂_x` on the mask lane (the payload
    /// components are replicated across once) — then relinearize `c2`
    /// back to degree 1: inverse-NTT it, gadget-decompose on the host,
    /// and run the `ℓ` digit products through the cluster's
    /// work-stealing scheduler against the resident relinearization key
    /// ([`relin_keygen`](RlweEvaluator::relin_keygen)).
    ///
    /// Decrypts to `m_x·m_y mod (x^n + 1, t)`, bit-exactly equal to the
    /// host reference [`RlweContext::mul`] on any lane count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a relinearization key, or
    /// [`RpuError`] on heap exhaustion / dispatch failure.
    pub fn mul(
        &mut self,
        x: &DeviceCiphertext,
        y: &DeviceCiphertext,
    ) -> Result<DeviceCiphertext, RpuError> {
        let relin = self.relin.as_ref().ok_or_else(|| {
            RpuError::Config(
                "no relinearization key: call RlweEvaluator::relin_keygen first".into(),
            )
        })?;
        let (base_log, key_a, key_b) = (relin.base_log, relin.a.clone(), relin.b.clone());
        let (la, lb) = (self.lane_a, self.lane_b);
        let pwmul_a = Arc::clone(&self.kernels(la).pwmul);
        let pwadd_a = Arc::clone(&self.kernels(la).pwadd);
        let pwmul_b = Arc::clone(&self.kernels(lb).pwmul);
        let pwadd_b = Arc::clone(&self.kernels(lb).pwadd);
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        macro_rules! step {
            ($e:expr) => {{
                let r = $e;
                self.or_release(r, &temps)?
            }};
        }

        // Tensor: c2 on the mask lane, c0 on the payload lane.
        let c2 = step!(self.pointwise(la, &pwmul_a, &x.a, &y.a));
        temps.push(c2);
        let c0 = step!(self.pointwise(lb, &pwmul_b, &x.b, &y.b));
        temps.push(c0);
        // Cross terms on the mask lane; replicate the payload components
        // over unless both components already share one lane.
        let (xb_r, yb_r) = if lb == la {
            (x.b, y.b)
        } else {
            let xb = step!(self.cluster.replicate(&x.b, la));
            temps.push(xb);
            let yb = step!(self.cluster.replicate(&y.b, la));
            temps.push(yb);
            (xb, yb)
        };
        let t1 = step!(self.pointwise(la, &pwmul_a, &x.a, &yb_r));
        temps.push(t1);
        let t2 = step!(self.pointwise(la, &pwmul_a, &y.a, &xb_r));
        temps.push(t2);
        let c1 = step!(self.pointwise(la, &pwadd_a, &t1, &t2));
        temps.push(c1);

        // Relinearize: digits of c2 through the scheduled key switch.
        let c2_coeffs = step!(self.download_coeffs(la, &c2));
        let (ka, kb) = step!(self.key_switch(&c2_coeffs, base_log, key_a, key_b));
        temps.push(ka);
        temps.push(kb);
        let a = step!(self.pointwise(la, &pwadd_a, &c1, &ka));
        temps.push(a);
        let b = step!(self.pointwise(lb, &pwadd_b, &c0, &kb));

        // Success: release every temporary, keep the result components
        // (`a` is the only temp that survives; `b` was never pushed).
        for buf in temps {
            if buf != a {
                self.cluster.free(buf)?;
            }
        }
        Ok(DeviceCiphertext { a, b })
    }

    /// Homomorphic rotation by `steps` positions: applies the Galois
    /// automorphism `x → x^{5^steps mod 2n}` via
    /// [`apply_galois`](RlweEvaluator::apply_galois). Requires the
    /// matching [`rotation_keygen`](RlweEvaluator::rotation_keygen).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without the rotation key, or
    /// [`RpuError`] on dispatch failure.
    pub fn rotate(
        &mut self,
        ct: &DeviceCiphertext,
        steps: usize,
    ) -> Result<DeviceCiphertext, RpuError> {
        let g = self.ctx.galois_element(steps);
        self.apply_galois(ct, g)
    }

    /// Applies the Galois automorphism `x → x^g` to a resident
    /// ciphertext: each component is inverse-NTT'd and permuted by the
    /// on-device `σ_g` coefficient-permutation kernel (the `vgather`
    /// program compiled at
    /// [`galois_keygen`](RlweEvaluator::galois_keygen)); the permuted
    /// payload is re-transformed on its lane while the permuted mask's
    /// coefficients feed the gadget key switch that brings the result
    /// back under the original key. Decrypts to `σ_g(m) mod t`,
    /// bit-exactly equal to [`RlweContext::apply_galois`] on any lane
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] if no Galois key for `g` is
    /// resident, or [`RpuError`] on dispatch failure.
    pub fn apply_galois(
        &mut self,
        ct: &DeviceCiphertext,
        g: usize,
    ) -> Result<DeviceCiphertext, RpuError> {
        let g = g % (2 * self.ctx.params().n);
        let gk = self.galois.get(&g).ok_or_else(|| {
            RpuError::Config(format!(
                "no Galois key for g = {g}: call RlweEvaluator::galois_keygen({g}, …) first"
            ))
        })?;
        let (base_log, key_a, key_b) = (gk.base_log, gk.a.clone(), gk.b.clone());
        let (la, lb) = (self.lane_a, self.lane_b);
        let n = self.ctx.params().n;
        let pwadd_b = Arc::clone(&self.kernels(lb).pwadd);
        let autom_a = Arc::clone(&self.autom_kernels[&(la, g)]);
        let autom_b = Arc::clone(&self.autom_kernels[&(lb, g)]);
        let mut temps: Vec<DeviceBuffer> = Vec::new();
        macro_rules! step {
            ($e:expr) => {{
                let r = $e;
                self.or_release(r, &temps)?
            }};
        }

        // Mask side: to coefficients, permute, download the permuted
        // coefficients (they feed the gadget decomposition; the switched
        // mask is rebuilt entirely from key material).
        let inv_a = Arc::clone(&self.kernels(la).inv);
        let a_coef = step!(self.cluster.alloc_on(la, n));
        temps.push(a_coef);
        step!(self.dispatch(la, &inv_a, &[ct.a], &[a_coef]).map(|_| ()));
        let a_perm = step!(self.cluster.alloc_on(la, n));
        temps.push(a_perm);
        step!(self
            .dispatch(la, &autom_a, &[a_coef], &[a_perm])
            .map(|_| ()));
        let sigma_a = step!(self.cluster.download(&a_perm));

        // Payload side: to coefficients, permute, back to evaluation.
        let inv_b = Arc::clone(&self.kernels(lb).inv);
        let fwd_b = Arc::clone(&self.kernels(lb).fwd);
        let b_coef = step!(self.cluster.alloc_on(lb, n));
        temps.push(b_coef);
        step!(self.dispatch(lb, &inv_b, &[ct.b], &[b_coef]).map(|_| ()));
        let b_perm = step!(self.cluster.alloc_on(lb, n));
        temps.push(b_perm);
        step!(self
            .dispatch(lb, &autom_b, &[b_coef], &[b_perm])
            .map(|_| ()));
        let sigma_b_hat = step!(self.cluster.alloc_on(lb, n));
        temps.push(sigma_b_hat);
        step!(self
            .dispatch(lb, &fwd_b, &[b_perm], &[sigma_b_hat])
            .map(|_| ()));

        // Key switch: a'' is purely the accumulated mask-side product;
        // b'' folds the accumulated payload-side product into σ(b).
        let (ka, kb) = step!(self.key_switch(&sigma_a, base_log, key_a, key_b));
        temps.push(kb);
        let b = {
            let r = self.pointwise(lb, &pwadd_b, &sigma_b_hat, &kb);
            let mut guard = temps.clone();
            guard.push(ka);
            self.or_release(r, &guard)?
        };
        for buf in temps {
            self.cluster.free(buf)?;
        }
        Ok(DeviceCiphertext { a: ka, b })
    }

    /// The full negacyclic polynomial product `a ·_neg b` over resident
    /// *coefficient-domain* buffers, as one fused kernel dispatch
    /// (forward NTT ×2 → pointwise multiply → inverse NTT) — the
    /// dataflow of a ciphertext–ciphertext multiplication (Fig. 1).
    /// The dispatch runs on whichever lane holds the operands; operands
    /// on different lanes are rejected ([`BufferError::ForeignLane`])
    /// rather than silently moved.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale or cross-lane handles, heap
    /// exhaustion, or a dispatch fault.
    pub fn convolve(
        &mut self,
        a: &DeviceBuffer,
        b: &DeviceBuffer,
    ) -> Result<DeviceBuffer, RpuError> {
        let lane = self
            .cluster
            .locate(a)
            .ok_or(RpuError::Buffer(BufferError::StaleHandle { id: a.id() }))?;
        self.cluster.check_residency(lane, &[*b])?;
        let out = self.cluster.alloc_on(lane, self.ctx.params().n)?;
        let conv = if lane == self.lane_a || lane == self.lane_b {
            Arc::clone(&self.kernels(lane).conv)
        } else {
            // Operands parked on a non-component lane: compile there
            // (cached per lane, like any device-local program store).
            let params = self.ctx.params();
            let spec = ConvolutionSpec::new(params.n, params.q, self.ka.conv.key().style);
            let r = self.cluster.compile_on(lane, &spec);
            self.or_release(r, &[out])?
        };
        let run = self.dispatch(lane, &conv, &[*a, *b], &[out]).map(|_| ());
        self.or_release(run, &[out])?;
        Ok(out)
    }
}
