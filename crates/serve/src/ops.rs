//! Single-lane RLWE operation recipes.
//!
//! Every tenant's ciphertexts, key material, and kernels live on the
//! tenant's *home lane*, so — unlike [`rpu::RlweEvaluator`], which
//! shards ciphertext components across lanes — the serving layer runs
//! each operation as a chain of dispatches on ONE lane, driven through
//! the [`LaneWorker`] a pool job is handed. Batches for different
//! tenants on different lanes overlap at the pool level instead.
//!
//! The recipes mirror the evaluator's dataflow exactly (same kernels,
//! same digit order in the gadget key switch), so a host-side
//! [`RlweContext`] replaying the same randomness stream produces
//! bit-identical ciphertexts — the property the differential test in
//! `tests/tests/serve.rs` pins.

use rpu::arith::gadget_decompose;
use rpu::ntt::rlwe::{KeySwitchKey, RlweContext};
use rpu::{
    CodegenStyle, DeviceBuffer, DeviceCiphertext, Direction, ElementwiseOp, ElementwiseSpec,
    Kernel, KeySwitchSpec, LaneWorker, NttSpec, RpuError,
};
use std::sync::Arc;

/// The compiled kernel shapes one lane needs to serve RLWE traffic.
/// Compiled once per lane at server start (and cached by the lane's
/// session thereafter), then shared by every batch job via `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct LaneKernelSet {
    pub fwd: Arc<Kernel>,
    pub inv: Arc<Kernel>,
    pub pwmul: Arc<Kernel>,
    pub pwadd: Arc<Kernel>,
    pub pwsub: Arc<Kernel>,
    /// The fused two-component NTT-multiply-accumulate gadget digit
    /// kernel.
    pub ksw: Arc<Kernel>,
}

impl LaneKernelSet {
    /// Compiles (or recalls from the lane cache) all six shapes.
    pub(crate) fn compile(
        w: &mut LaneWorker<'_, '_>,
        n: usize,
        q: u128,
        style: CodegenStyle,
    ) -> Result<Self, RpuError> {
        Ok(LaneKernelSet {
            fwd: w.compile(&NttSpec::new(n, q, Direction::Forward, style))?,
            inv: w.compile(&NttSpec::new(n, q, Direction::Inverse, style))?,
            pwmul: w.compile(&ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, style))?,
            pwadd: w.compile(&ElementwiseSpec::new(ElementwiseOp::AddMod, n, q, style))?,
            pwsub: w.compile(&ElementwiseSpec::new(ElementwiseOp::SubMod, n, q, style))?,
            ksw: w.compile(&KeySwitchSpec::new(n, q, style))?,
        })
    }
}

/// One tenant's key-switch key resident on its home lane: per gadget
/// digit `j`, the evaluation-form `(â_j, b̂_j)` pair.
#[derive(Debug, Clone)]
pub(crate) struct DeviceKsk {
    pub base_log: u32,
    pub a: Vec<DeviceBuffer>,
    pub b: Vec<DeviceBuffer>,
}

impl DeviceKsk {
    /// Every handle of the key, for bulk release at rekey/teardown.
    pub(crate) fn handles(&self) -> Vec<DeviceBuffer> {
        self.a.iter().chain(self.b.iter()).copied().collect()
    }
}

/// Frees every held buffer that is not in `keep` (error-path and
/// success-path temp hygiene; handles are known-live so frees cannot
/// fail in practice).
fn release(w: &mut LaneWorker<'_, '_>, held: Vec<DeviceBuffer>, keep: &[DeviceBuffer]) {
    for buf in held {
        if !keep.contains(&buf) {
            let _ = w.free(buf);
        }
    }
}

/// Uploads coefficients and forward-transforms them on the lane,
/// returning the evaluation-form resident buffer.
pub(crate) fn upload_eval(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    coeffs: &[u128],
) -> Result<DeviceBuffer, RpuError> {
    let mut held = Vec::with_capacity(2);
    let result = (|| {
        let raw = w.upload(coeffs)?;
        held.push(raw);
        let hat = w.alloc(coeffs.len())?;
        held.push(hat);
        w.dispatch(&k.fwd, &[raw], &[hat])?;
        Ok(hat)
    })();
    match result {
        Ok(hat) => {
            release(w, held, &[hat]);
            Ok(hat)
        }
        Err(e) => {
            release(w, held, &[]);
            Err(e)
        }
    }
}

/// Inverse-transforms a resident evaluation-form buffer and downloads
/// the natural-order coefficients.
pub(crate) fn download_coeffs(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    hat: DeviceBuffer,
) -> Result<Vec<u128>, RpuError> {
    let tmp = w.alloc(hat.len())?;
    let result = (|| {
        w.dispatch(&k.inv, &[hat], &[tmp])?;
        w.download(&tmp)
    })();
    let _ = w.free(tmp);
    result
}

/// One pointwise dispatch `out = op(x, y)` into a fresh buffer.
fn pointwise(
    w: &mut LaneWorker<'_, '_>,
    kernel: &Arc<Kernel>,
    x: DeviceBuffer,
    y: DeviceBuffer,
) -> Result<DeviceBuffer, RpuError> {
    let out = w.alloc(x.len())?;
    if let Err(e) = w.dispatch(kernel, &[x, y], &[out]) {
        let _ = w.free(out);
        return Err(e);
    }
    Ok(out)
}

/// Encrypts on-device from host-sampled randomness: the mask and
/// noisy payload come from [`RlweContext::sample_mask_and_payload`]
/// (drawn from the tenant's stream at submission, so a host mirror
/// replaying the same stream gets the same ciphertext), then
/// `b̂ = â ⊙ ŝ ⊕ payload̂` runs as dispatches on the home lane.
pub(crate) fn encrypt(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    sk_hat: DeviceBuffer,
    a_coeffs: &[u128],
    payload: &[u128],
) -> Result<DeviceCiphertext, RpuError> {
    let mut held = Vec::with_capacity(3);
    let result = (|| {
        let a_hat = upload_eval(w, k, a_coeffs)?;
        held.push(a_hat);
        let p_hat = upload_eval(w, k, payload)?;
        held.push(p_hat);
        let t = pointwise(w, &k.pwmul, a_hat, sk_hat)?; // â ⊙ ŝ
        held.push(t);
        w.dispatch(&k.pwadd, &[t, p_hat], &[t])?; // ⊕ payload̂
        Ok(DeviceCiphertext { a: a_hat, b: t })
    })();
    match result {
        Ok(ct) => {
            release(w, held, &[ct.a, ct.b]);
            Ok(ct)
        }
        Err(e) => {
            release(w, held, &[]);
            Err(e)
        }
    }
}

/// Decrypts a resident ciphertext: `b̂ ⊖ â·ŝ`, inverse NTT, download;
/// centered `mod t` decoding happens on the host context.
pub(crate) fn decrypt(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    ctx: &RlweContext,
    sk_hat: DeviceBuffer,
    ct: DeviceCiphertext,
) -> Result<Vec<u128>, RpuError> {
    let t = pointwise(w, &k.pwmul, ct.a, sk_hat)?; // â ⊙ ŝ
    let result = (|| {
        w.dispatch(&k.pwsub, &[ct.b, t], &[t])?; // b̂ ⊖ â·ŝ
        download_coeffs(w, k, t)
    })();
    let _ = w.free(t);
    Ok(ctx.decode_noisy(&result?))
}

/// Uploads host key-switch key material to the lane in evaluation form
/// (per digit, `(a_j, b_j)` uploaded and forward-transformed).
pub(crate) fn upload_ksk(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    ksk: &KeySwitchKey,
) -> Result<DeviceKsk, RpuError> {
    let mut held = Vec::with_capacity(2 * ksk.levels());
    let result = (|| {
        let mut a = Vec::with_capacity(ksk.levels());
        let mut b = Vec::with_capacity(ksk.levels());
        for (a_j, b_j) in ksk.parts() {
            let da = upload_eval(w, k, &a_j.coeffs())?;
            held.push(da);
            a.push(da);
            let db = upload_eval(w, k, &b_j.coeffs())?;
            held.push(db);
            b.push(db);
        }
        Ok(DeviceKsk {
            base_log: ksk.base_log(),
            a,
            b,
        })
    })();
    if result.is_err() {
        // Heap exhaustion mid-upload must not strand half a key.
        release(w, held, &[]);
    }
    result
}

/// The gadget key-switch inner product, entirely on one lane:
/// `src_coeffs` decomposes into `ℓ` digits; digit `j` is uploaded and
/// folded into both accumulators by one dispatch of the fused
/// two-component kernel (the digit is transformed once), in digit
/// order (the same order the host reference uses, so sums match
/// bit-exactly). Returns `(Σ d̂_j·â_j, Σ d̂_j·b̂_j)`.
fn ksw_accumulate(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    n: usize,
    src_coeffs: &[u128],
    ksk: &DeviceKsk,
) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
    let digits = gadget_decompose(src_coeffs, ksk.base_log, ksk.a.len());
    let zeros = vec![0u128; n];
    let mut held = Vec::with_capacity(2);
    let result = (|| {
        let acc_a = w.upload(&zeros)?;
        held.push(acc_a);
        let acc_b = w.upload(&zeros)?;
        held.push(acc_b);
        for (j, digit) in digits.iter().enumerate() {
            let d = w.upload(digit)?;
            let r = w.dispatch(
                &k.ksw,
                &[d, ksk.a[j], ksk.b[j], acc_a, acc_b],
                &[acc_a, acc_b],
            );
            let _ = w.free(d);
            r?;
        }
        Ok((acc_a, acc_b))
    })();
    if result.is_err() {
        release(w, held, &[]);
    }
    result
}

/// Ciphertext×ciphertext multiplication with relinearization, one lane:
/// tensor the degree-2 ciphertext as pointwise dispatches, then key-
/// switch the `c2` digits back to degree 1 against the tenant's relin
/// key.
pub(crate) fn mul(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    n: usize,
    relin: &DeviceKsk,
    x: DeviceCiphertext,
    y: DeviceCiphertext,
) -> Result<DeviceCiphertext, RpuError> {
    let mut held = Vec::with_capacity(8);
    let result = (|| {
        let c2 = pointwise(w, &k.pwmul, x.a, y.a)?;
        held.push(c2);
        let c0 = pointwise(w, &k.pwmul, x.b, y.b)?;
        held.push(c0);
        let t1 = pointwise(w, &k.pwmul, x.a, y.b)?;
        held.push(t1);
        let t2 = pointwise(w, &k.pwmul, y.a, x.b)?;
        held.push(t2);
        let c1 = pointwise(w, &k.pwadd, t1, t2)?;
        held.push(c1);
        let c2_coeffs = download_coeffs(w, k, c2)?;
        let (ka, kb) = ksw_accumulate(w, k, n, &c2_coeffs, relin)?;
        held.push(ka);
        held.push(kb);
        let a = pointwise(w, &k.pwadd, c1, ka)?;
        held.push(a);
        let b = pointwise(w, &k.pwadd, c0, kb)?;
        Ok(DeviceCiphertext { a, b })
    })();
    match result {
        Ok(ct) => {
            release(w, held, &[ct.a, ct.b]);
            Ok(ct)
        }
        Err(e) => {
            release(w, held, &[]);
            Err(e)
        }
    }
}

/// Applies the Galois automorphism `x → x^g` on one lane: each
/// component to coefficient form, permuted by the compiled `σ_g`
/// kernel; the permuted payload re-transforms in place while the
/// permuted mask's coefficients feed the gadget key switch that brings
/// the result back under the tenant's key.
pub(crate) fn apply_galois(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    autom: &Arc<Kernel>,
    gk: &DeviceKsk,
    n: usize,
    ct: DeviceCiphertext,
) -> Result<DeviceCiphertext, RpuError> {
    let mut held = Vec::with_capacity(7);
    let result = (|| {
        // Mask side: permuted coefficients feed the decomposition.
        let a_coef = w.alloc(n)?;
        held.push(a_coef);
        w.dispatch(&k.inv, &[ct.a], &[a_coef])?;
        let a_perm = w.alloc(n)?;
        held.push(a_perm);
        w.dispatch(autom, &[a_coef], &[a_perm])?;
        let sigma_a = w.download(&a_perm)?;

        // Payload side: permute and return to evaluation form.
        let b_coef = w.alloc(n)?;
        held.push(b_coef);
        w.dispatch(&k.inv, &[ct.b], &[b_coef])?;
        let b_perm = w.alloc(n)?;
        held.push(b_perm);
        w.dispatch(autom, &[b_coef], &[b_perm])?;
        let sigma_b_hat = w.alloc(n)?;
        held.push(sigma_b_hat);
        w.dispatch(&k.fwd, &[b_perm], &[sigma_b_hat])?;

        let (ka, kb) = ksw_accumulate(w, k, n, &sigma_a, gk)?;
        held.push(ka);
        held.push(kb);
        let b = pointwise(w, &k.pwadd, sigma_b_hat, kb)?;
        Ok(DeviceCiphertext { a: ka, b })
    })();
    match result {
        Ok(out) => {
            release(w, held, &[out.a, out.b]);
            Ok(out)
        }
        Err(e) => {
            release(w, held, &[]);
            Err(e)
        }
    }
}

/// Homomorphic addition: one pointwise dispatch per component.
pub(crate) fn add(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    x: DeviceCiphertext,
    y: DeviceCiphertext,
) -> Result<DeviceCiphertext, RpuError> {
    let a = pointwise(w, &k.pwadd, x.a, y.a)?;
    match pointwise(w, &k.pwadd, x.b, y.b) {
        Ok(b) => Ok(DeviceCiphertext { a, b }),
        Err(e) => {
            let _ = w.free(a);
            Err(e)
        }
    }
}

/// Encrypted dot product over the first `len` slots: multiply the
/// operands (with relinearization), then rotate the running rotation by
/// one slot and fold it into the accumulator `len − 1` times. Slot 0 of
/// the result holds the sum. The host mirror replays the identical
/// chain: `p = mul(x, y); acc = p; cur = p;` then repeatedly
/// `cur = σ₁(cur); acc = acc + cur`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dot(
    w: &mut LaneWorker<'_, '_>,
    k: &LaneKernelSet,
    n: usize,
    relin: &DeviceKsk,
    autom: &Arc<Kernel>,
    gk: &DeviceKsk,
    x: DeviceCiphertext,
    y: DeviceCiphertext,
    len: usize,
) -> Result<DeviceCiphertext, RpuError> {
    let p = mul(w, k, n, relin, x, y)?;
    if len <= 1 {
        return Ok(p);
    }
    let mut held = vec![p.a, p.b];
    let result = (|| {
        let mut cur = p;
        let mut acc = p;
        for _ in 1..len {
            let rot = apply_galois(w, k, autom, gk, n, cur)?;
            held.push(rot.a);
            held.push(rot.b);
            let sum = add(w, k, acc, rot)?;
            held.push(sum.a);
            held.push(sum.b);
            cur = rot;
            acc = sum;
        }
        Ok(acc)
    })();
    match result {
        Ok(acc) => {
            release(w, held, &[acc.a, acc.b]);
            Ok(acc)
        }
        Err(e) => {
            release(w, held, &[]);
            Err(e)
        }
    }
}

/// Frees both components of a resident ciphertext.
pub(crate) fn free_ct(w: &mut LaneWorker<'_, '_>, ct: DeviceCiphertext) -> Result<(), RpuError> {
    w.free(ct.a)?;
    w.free(ct.b)
}
