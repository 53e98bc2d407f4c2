//! Host references the benchmark checks outputs against. They are
//! written here from the textbook definitions, so a bug in the stack's
//! own host oracles or golden models cannot hide a wrong output.

use rpu::Ntt128Plan;

/// Negacyclic product `a·b mod (x^n + 1, t)` by schoolbook
/// multiplication. Needs `t < 2^21` so the sums fit in `u64`.
pub fn negacyclic_mul(a: &[u64], b: &[u64], t: u64) -> Vec<u64> {
    let n = a.len();
    assert!(b.len() == n && t < (1 << 21));
    let mut pos = vec![0u64; n];
    let mut neg = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b[..n - i].iter().enumerate() {
            pos[i + j] += ai * bj;
        }
        for (j, &bj) in b[n - i..].iter().enumerate() {
            neg[j] += ai * bj;
        }
    }
    pos.iter()
        .zip(&neg)
        .map(|(&p, &m)| (p % t + t - m % t) % t)
        .collect()
}

/// The Galois automorphism `a(x) → a(x^g) mod (x^n + 1, t)` for odd `g`.
pub fn automorphism(a: &[u64], g: usize, t: u64) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &c) in a.iter().enumerate() {
        let k = (i * g) % (2 * n);
        if k < n {
            out[k] = c;
        } else {
            out[k - n] = (t - c) % t;
        }
    }
    out
}

/// Plaintext of the serve `Dot` job over `len` slots: the product,
/// then `len − 1` rotations by one step (`g = 5`) accumulated.
pub fn dot(a: &[u64], b: &[u64], len: usize, t: u64) -> Vec<u64> {
    let n = a.len();
    let mut cur = negacyclic_mul(a, b, t);
    let mut acc = cur.clone();
    for _ in 1..len {
        cur = automorphism(&cur, 5 % (2 * n), t);
        for (x, y) in acc.iter_mut().zip(&cur) {
            *x = (*x + *y) % t;
        }
    }
    acc
}

fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Host reference for the RPU's NTT kernels. The kernels leave the
/// forward transform in Pease order: output `p` holds the input
/// polynomial evaluated at `psi^e(p)`, where the exponents come from
/// the binary tree `e(0) = n`, children `e/2` and `e/2 + n`. The
/// in-place Cooley–Tukey [`Ntt128Plan`] leaves `x(psi^(2i+1))` at
/// position `bitrev(i)`; this maps one order onto the other.
#[derive(Debug)]
pub struct NttReference {
    plan: Ntt128Plan,
    /// `pease_to_plan[p]`: the plan-output index holding kernel output `p`.
    pease_to_plan: Vec<usize>,
}

impl NttReference {
    pub fn new(n: usize, q: u128) -> Result<Self, rpu::ntt::NttError> {
        let plan = Ntt128Plan::new(n, q)?;
        let log_n = n.trailing_zeros();
        let mut exps = vec![n as u128];
        for _ in 0..log_n {
            exps = exps
                .iter()
                .flat_map(|&e| [e / 2, e / 2 + n as u128])
                .collect();
        }
        let pease_to_plan = exps
            .iter()
            .map(|&e| bit_reverse(((e - 1) / 2) as usize, log_n))
            .collect();
        Ok(NttReference {
            plan,
            pease_to_plan,
        })
    }

    /// Forward transform of natural-order coefficients, in the kernels'
    /// output order.
    pub fn forward(&self, coeffs: &[u128]) -> Vec<u128> {
        let mut x = coeffs.to_vec();
        self.plan.forward(&mut x);
        self.pease_to_plan.iter().map(|&i| x[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negacyclic_wraps_with_sign() {
        // (1 + x)·x^3 = x^3 + x^4 = x^3 - 1 in Z_t[x]/(x^4 + 1).
        assert_eq!(
            negacyclic_mul(&[1, 1, 0, 0], &[0, 0, 0, 1], 17),
            vec![16, 0, 0, 1]
        );
    }

    #[test]
    fn automorphism_by_one_is_identity_and_five_permutes() {
        let a = [1, 2, 3, 4];
        assert_eq!(automorphism(&a, 1, 17), a.to_vec());
        // x → x^5 on Z[x]/(x^4+1): x^1→x^5=-x, x^2→x^10=x^2, x^3→x^15=-x^3.
        assert_eq!(automorphism(&a, 5, 17), vec![1, 15, 3, 13]);
    }

    #[test]
    fn ntt_reference_matches_direct_evaluation() {
        let n = 16usize;
        let q = rpu::arith::find_ntt_prime_u128(62, 2 * n as u128).expect("prime");
        let r = NttReference::new(n, q).expect("plan");
        let m = rpu::arith::Modulus128::new(q).expect("modulus");
        let psi = r.plan.psi();
        let coeffs: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 3) % q).collect();
        let out = r.forward(&coeffs);
        // Output p is x(psi^e) for the p-th leaf exponent, all distinct odd.
        let mut seen = Vec::new();
        for &v in &out {
            let e = (0..2 * n as u128)
                .step_by(1)
                .find(|&e| {
                    e % 2 == 1
                        && coeffs
                            .iter()
                            .rev()
                            .fold(0u128, |acc, &c| m.add(m.mul(acc, m.pow(psi, e)), c))
                            == v
                })
                .expect("output is an evaluation at an odd power of psi");
            seen.push(e);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }
}
