//! The fused two-component key-switch digit kernel:
//! `[acc_a' | acc_b'] = [d̂ ⊙ k̂_a ⊕ acc_a | d̂ ⊙ k̂_b ⊕ acc_b]`, `d̂ = NTT(d)`.
//!
//! Gadget-decomposed key switching (relinearization after a
//! ciphertext×ciphertext multiply, and the tail of every Galois
//! rotation) is a pair of inner products over gadget digits: the
//! switched components are `Σ_j NTT(d_j) ⊙ k̂_{a,j}` and
//! `Σ_j NTT(d_j) ⊙ k̂_{b,j}` for coefficient-domain digits `d_j` and
//! resident evaluation-form key components `(k̂_{a,j}, k̂_{b,j})`. Both
//! sums consume the same transformed digit, so one digit's contribution
//! to *both* accumulators is the fusion this kernel compiles into a
//! single B512 program — the digit is transformed once (the NTT sharing
//! of Halevi–Shoup "hoisting", applied across the two key components):
//!
//! ```text
//! VDM:  [ fwd-NTT window: d in, d̂ out ][ k̂_a ][ k̂_b ][ acc_a ][ acc_b ][ d̂·k̂ ][ out_a | out_b ]
//!        0                              w      w+n    w+2n     w+3n     w+4n    w+5n    w+6n..w+7n
//! ```
//!
//! forward NTT of the digit → for each component in turn, pointwise
//! multiply by its key component into the shared product region, then
//! pointwise add into its accumulator. The two multiply/add stage pairs
//! are scheduled in isolation and run in program order, so the second
//! pair may overwrite the product region the first pair has finished
//! reading. The output window is the contiguous `[out_a | out_b]`
//! (`2n` elements), which a session dispatch tiles onto the two
//! resident accumulators. The session dispatches it once per digit
//! (once per digit per live tower in the leveled evaluator), which is
//! what the multi-lane scheduler shards: every digit is independent
//! work.

use crate::elementwise::emit_pointwise;
use crate::kernel::{push_relocated, GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::sched::list_schedule;
use crate::{CodegenError, CodegenStyle, Direction, ElementwiseOp, NttKernel};
use rpu_isa::consts::VDM_MAX_BYTES;
use rpu_isa::Program;

/// Specification of one fused two-component key-switch digit step over
/// `Z_q[x]/(x^n + 1)`: operands are `(d, k̂_a, k̂_b, acc_a, acc_b)` — the
/// digit's natural-order coefficients, the two evaluation-form key
/// components, and the two evaluation-form accumulators; the output is
/// the `2n`-element concatenation `[acc_a' | acc_b']` of the updated
/// accumulators.
///
/// # Examples
///
/// ```
/// use rpu_codegen::{CodegenStyle, KernelSpec, KeySwitchSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let kernel = KeySwitchSpec::new(1024, q, CodegenStyle::Optimized).generate()?;
/// assert_eq!(kernel.arity(), 5);
/// assert_eq!(kernel.output_range().1, 2 * 1024);
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySwitchSpec {
    /// Ring degree (power of two ≥ 1024).
    pub n: usize,
    /// Prime modulus with `q ≡ 1 (mod 2n)`.
    pub q: u128,
    /// Code-generation style applied to every segment.
    pub style: CodegenStyle,
}

impl KeySwitchSpec {
    /// Creates a key-switch digit spec.
    pub fn new(n: usize, q: u128, style: CodegenStyle) -> Self {
        KeySwitchSpec { n, q, style }
    }
}

impl KernelSpec for KeySwitchSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: KernelOp::KeySwitch,
            n: self.n,
            q: self.q,
            direction: Direction::Forward,
            style: self.style,
            param: 0,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let KeySwitchSpec { n, q, style } = *self;
        let fwd = NttKernel::generate(n, q, Direction::Forward, style)?;
        let w = fwd.layout().total_elements;
        // Extra regions above the NTT window. Within a stage every read
        // and write range is disjoint, so the list scheduler stays
        // honest; the product region is shared by the two stage pairs,
        // which run one after the other.
        let (key_a, key_b) = (w, w + n);
        let (acc_a, acc_b) = (w + 2 * n, w + 3 * n);
        let prod = w + 4 * n;
        let (out_a, out_b) = (w + 5 * n, w + 6 * n);
        let total = w + 7 * n;
        if total * rpu_isa::consts::ELEM_BYTES > VDM_MAX_BYTES {
            return Err(CodegenError::WorkingSetTooLarge {
                bytes: total * rpu_isa::consts::ELEM_BYTES,
            });
        }

        let (fwd_out, _) = fwd.output_range();
        let mut program = Program::new(format!("keyswitch{n}_{style}"));
        // Forward transform of the digit (window 0), once for both
        // components; its prologue leaves q in m0 for the pointwise
        // stages.
        push_relocated(&mut program, fwd.program(), 0);
        for (key, acc, out) in [(key_a, acc_a, out_a), (key_b, acc_b, out_b)] {
            program = stage(program, n, style, ElementwiseOp::MulMod, fwd_out, key, prod);
            program = stage(program, n, style, ElementwiseOp::AddMod, prod, acc, out);
        }

        let mut base_image = vec![0u128; total];
        base_image[..w].copy_from_slice(&fwd.vdm_image(&vec![0u128; n]));

        let schedule = fwd.schedule().clone();
        let modulus = schedule.modulus();
        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let hat = schedule.forward(ops[0]);
            let step = |key: &[u128], acc: &[u128]| {
                hat.iter()
                    .zip(key)
                    .zip(acc)
                    .map(|((&d, &k), &a)| {
                        modulus.add(modulus.mul(d, modulus.reduce(k)), modulus.reduce(a))
                    })
                    .collect::<Vec<u128>>()
            };
            let mut out = step(ops[1], ops[3]);
            out.extend(step(ops[2], ops[4]));
            out
        });
        Ok(Kernel::new(
            self.key(),
            program,
            base_image,
            fwd.sdm_image(), // [n_inv, q, companion(n_inv)], shared slot convention
            vec![(0, n), (key_a, n), (key_b, n), (acc_a, n), (acc_b, n)],
            (out_a, 2 * n),
            golden,
        ))
    }
}

/// Appends one pointwise stage, scheduled in isolation so the list
/// scheduler never reorders across the barrier between segments (the
/// same discipline as the fused convolution pipeline).
fn stage(
    mut program: Program,
    n: usize,
    style: CodegenStyle,
    op: ElementwiseOp,
    a_src: usize,
    b_src: usize,
    dst: usize,
) -> Program {
    let mut seg = Program::new("stage");
    emit_pointwise(&mut seg, op, n, style, a_src, b_src, dst);
    if style != CodegenStyle::Unoptimized {
        seg = list_schedule(&seg);
    }
    push_relocated(&mut program, &seg, 0);
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_arith::Modulus128;
    use rpu_ntt::PeaseSchedule;

    fn prime(n: usize) -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists")
    }

    fn residues(n: usize, q: u128, mul: u128, add: u128) -> Vec<u128> {
        (0..n as u128).map(|i| (i * mul + add) % q).collect()
    }

    /// One single-component digit step, `NTT(d) ⊙ k ⊕ acc`, built
    /// independently of the kernel's golden model.
    fn one_component_step(
        sched: &PeaseSchedule,
        m: &Modulus128,
        d: &[u128],
        k: &[u128],
        acc: &[u128],
    ) -> Vec<u128> {
        let hat = sched.forward(d);
        (0..d.len())
            .map(|i| m.add(m.mul(hat[i], k[i]), acc[i]))
            .collect()
    }

    #[test]
    fn verifies_against_golden_model() {
        let n = 1024usize;
        for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
            let kernel = KeySwitchSpec::new(n, prime(n), style).generate().unwrap();
            assert!(kernel.verify().unwrap(), "{style:?}");
            assert_eq!(kernel.arity(), 5);
        }
    }

    #[test]
    fn computes_ntt_multiply_accumulate() {
        // The two-output kernel must equal the single-component step
        // applied once per key component, on the native-u64 (59-bit)
        // and the Montgomery (~126-bit) engine classes alike.
        let n = 1024usize;
        for bits in [59u32, 126] {
            let q = rpu_arith::find_ntt_prime_u128(bits, 2 * n as u128).expect("prime exists");
            let m = Modulus128::new(q).unwrap();
            let sched = PeaseSchedule::new(n, q).unwrap();
            let d = residues(n, q, 17, 1);
            let ka = residues(n, q, 29, 2);
            let kb = residues(n, q, 31, 7);
            let acc_a = residues(n, q, 41, 3);
            let acc_b = residues(n, q, 43, 11);
            let mut want = one_component_step(&sched, &m, &d, &ka, &acc_a);
            want.extend(one_component_step(&sched, &m, &d, &kb, &acc_b));
            for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
                let kernel = KeySwitchSpec::new(n, q, style).generate().unwrap();
                assert_eq!(kernel.arity(), 5);
                assert_eq!(kernel.output_range().1, 2 * n);
                assert!(kernel.verify().unwrap(), "{bits}-bit {style:?}");
                let got = kernel.execute(&[&d, &ka, &kb, &acc_a, &acc_b]).unwrap();
                assert_eq!(got, want, "{bits}-bit {style:?}");
            }
        }
    }

    #[test]
    fn accumulation_chain_is_exact() {
        // Three dispatches chained through both accumulators equal the
        // host-side sums of three digit products per component — the
        // relinearization inner products in miniature.
        let n = 1024usize;
        let q = prime(n);
        let m = Modulus128::new(q).unwrap();
        let kernel = KeySwitchSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let sched = PeaseSchedule::new(n, q).unwrap();
        let mut acc_a = vec![0u128; n];
        let mut acc_b = vec![0u128; n];
        let mut expect_a = vec![0u128; n];
        let mut expect_b = vec![0u128; n];
        for j in 0..3u128 {
            let d = residues(n, q, j + 2, 5);
            let ka = residues(n, q, 1, j * 7 + 1);
            let kb = residues(n, q, 3, j * 5 + 2);
            let out = kernel.execute(&[&d, &ka, &kb, &acc_a, &acc_b]).unwrap();
            acc_a = out[..n].to_vec();
            acc_b = out[n..].to_vec();
            let hat = sched.forward(&d);
            for i in 0..n {
                expect_a[i] = m.add(expect_a[i], m.mul(hat[i], ka[i]));
                expect_b[i] = m.add(expect_b[i], m.mul(hat[i], kb[i]));
            }
        }
        assert_eq!(acc_a, expect_a);
        assert_eq!(acc_b, expect_b);
    }
}
