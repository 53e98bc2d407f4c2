//! Leveled-ciphertext differential suite: the on-RPU [`LeveledEvaluator`]
//! must agree with the host oracle [`LeveledContext`] — at the *ring
//! element* level, not just after decryption — at every step of a
//! depth-3 multiply chain, on 1, 2, and 4 lanes. Both paths draw the
//! same pinned randomness streams, so every tower of every intermediate
//! ciphertext is comparable bit-for-bit.
//!
//! The property block validates the [`NoiseBudget`] tracker on the host
//! oracle across random depth-1..3 circuits: the conservative estimate
//! must dominate the measured phase magnitude after every operation,
//! and decryption must succeed whenever the tracker still predicts
//! budget.

use proptest::prelude::*;
use rpu::codegen::spec_for_key;
use rpu::ntt::rlwe::Splitmix;
use rpu::ntt::testutil::schoolbook_negacyclic;
use rpu::{
    CodegenStyle, DeviceLeveledCiphertext, KernelKey, KernelOp, LeveledCiphertext, LeveledContext,
    LeveledEvaluator, RingTraceSink, Rpu, RpuError,
};
use std::collections::HashMap;
use std::sync::Arc;

const T: u128 = 65537;
/// Chain prime width for the device suite (4 towers ≈ a 236-bit `Q`).
const BITS: u32 = 59;
/// Gadget base for the device suite: 2 digits per 59-bit prime keeps
/// the dispatch count (and debug-mode runtime) manageable while the
/// noise analysis still clears depth 3 comfortably.
const BASE_LOG: u32 = 32;

fn message(n: usize, seed: u128) -> Vec<u128> {
    (0..n as u128).map(|i| (i * 13 + seed) % 256).collect()
}

/// Downloads the device ciphertext and asserts every tower of both
/// components equals the host ciphertext's ring elements.
fn assert_same_ring_elements(
    eval: &mut LeveledEvaluator<'_>,
    dev: &DeviceLeveledCiphertext,
    host: &LeveledCiphertext,
    what: &str,
) {
    assert_eq!(dev.level(), host.level(), "{what}: level");
    let downloaded = eval.download_ciphertext(dev).unwrap();
    for l in 0..=host.level() {
        assert_eq!(
            downloaded.a_towers()[l].values(),
            host.a_towers()[l].values(),
            "{what}: mask tower {l}"
        );
        assert_eq!(
            downloaded.b_towers()[l].values(),
            host.b_towers()[l].values(),
            "{what}: payload tower {l}"
        );
    }
}

/// The acceptance pipeline at one lane count: a fresh → mul → rescale
/// ×3 chain over a 4-prime chain, compared tower-by-tower against the
/// host oracle after every multiply and every rescale, then decrypted
/// on both paths against the schoolbook product.
fn depth_3_chain_is_bit_exact(lanes: usize) {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(lanes).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let host = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    eval.set_key_base_log(BASE_LOG).unwrap();

    let mut dev_rng = Splitmix::new(0x1E7E1ED);
    let mut host_rng = Splitmix::new(0x1E7E1ED);
    let host_sk = host.keygen(&mut host_rng);
    eval.keygen(&mut dev_rng).unwrap();
    let host_rk = host.relin_keygen(&host_sk, &mut host_rng, BASE_LOG);
    eval.relin_keygen(&mut dev_rng).unwrap();

    let msgs: Vec<Vec<u128>> = (0..4).map(|s| message(n, s as u128)).collect();
    let tm = rpu::arith::Modulus128::new(T).unwrap();
    let mut expect = msgs[0].clone();
    for m in &msgs[1..] {
        expect = schoolbook_negacyclic(tm, &expect, m);
    }

    let dev_cts: Vec<DeviceLeveledCiphertext> = msgs
        .iter()
        .map(|m| eval.encrypt(m, &mut dev_rng).unwrap())
        .collect();
    let host_cts: Vec<LeveledCiphertext> = msgs
        .iter()
        .map(|m| host.encrypt(&host_sk, m, &mut host_rng))
        .collect();
    assert_same_ring_elements(&mut eval, &dev_cts[0], &host_cts[0], "fresh encryption");

    let mut dev_acc = dev_cts[0].clone();
    let mut host_acc = host_cts[0].clone();
    for depth in 1..=3 {
        let dev_prod = eval.mul(&dev_acc, &dev_cts[depth]).unwrap();
        let host_prod = host.mul(&host_rk, &host_acc, &host_cts[depth]);
        assert_same_ring_elements(&mut eval, &dev_prod, &host_prod, "product");
        let dev_next = eval.rescale(&dev_prod).unwrap();
        let host_next = host.rescale(&host_prod).unwrap();
        assert_same_ring_elements(&mut eval, &dev_next, &host_next, "rescaled product");
        // the device tracker composes the same model as the host's
        assert!((dev_next.noise().bits() - host_next.noise().bits()).abs() < 1e-9);
        // and the measured phase magnitude stays under the bound
        let measured = eval.measure_noise(&dev_next).unwrap();
        assert!(measured <= dev_next.noise().bits(), "depth {depth}");
        eval.free_ciphertext(dev_prod).unwrap();
        if depth > 1 {
            eval.free_ciphertext(dev_acc).unwrap();
        }
        dev_acc = dev_next;
        host_acc = host_next;
    }

    assert_eq!(dev_acc.level(), 0, "3 rescales drop a 4-prime chain to 0");
    assert!(
        eval.remaining_bits(&dev_acc) > 0.0,
        "tracker must still predict success at depth 3"
    );
    assert_eq!(eval.decrypt(&dev_acc).unwrap(), expect, "lanes={lanes}");
    assert_eq!(host.decrypt(&host_sk, &host_acc), expect);
}

#[test]
fn depth_3_chain_is_bit_exact_on_one_lane() {
    depth_3_chain_is_bit_exact(1);
}

#[test]
fn depth_3_chain_is_bit_exact_on_two_lanes() {
    depth_3_chain_is_bit_exact(2);
}

#[test]
fn depth_3_chain_is_bit_exact_on_four_lanes() {
    depth_3_chain_is_bit_exact(4);
}

/// The key-switch dispatch count of a depth-3 chain at one lane: a
/// level-`L` multiply issues one two-component digit dispatch per
/// (live tower, source tower, digit), `(L + 1)² · ℓ` in all — 58 over
/// the three multiplies at 4 × 59-bit primes with base 2³² (ℓ = 2).
/// Tower-major dispatch order means each multiply loads each tower's
/// key-switch image at most once: every reload the session charges to
/// `TransferStats::image_elements` is a change of kernel in the
/// dispatch sequence, and each tower's key-switch kernel changes in at
/// most once per multiply.
#[test]
fn depth_3_chain_key_switch_dispatches_at_one_lane() {
    let n = rpu::smoke_cap(1024);
    let sink = Arc::new(RingTraceSink::new(1 << 16));
    let rpu = Rpu::builder().trace(sink.clone()).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    eval.set_key_base_log(BASE_LOG).unwrap();
    let mut rng = Splitmix::new(0x5EED);
    eval.keygen(&mut rng).unwrap();
    eval.relin_keygen(&mut rng).unwrap();
    let digits = BITS.div_ceil(BASE_LOG) as usize;
    assert_eq!(digits, 2);

    let mut image_sizes: HashMap<KernelKey, usize> = HashMap::new();
    let mut image_size = |key: KernelKey| {
        *image_sizes.entry(key).or_insert_with(|| {
            let spec = spec_for_key(&key).expect("dispatched keys are canonical");
            spec.generate().unwrap().total_elements()
        })
    };
    let image_elements =
        |eval: &LeveledEvaluator<'_>| eval.cluster().lane_stats(0).transfer.image_elements;

    let mut acc = eval.encrypt(&message(n, 1), &mut rng).unwrap();
    let mut total_ksw = 0;
    for level in (1..=3usize).rev() {
        assert_eq!(acc.level(), level);
        let prev_key = sink.events().last().map(|e| e.key);
        let (seq, images) = (sink.recorded(), image_elements(&eval));
        let product = eval.mul(&acc, &acc).unwrap();
        let events: Vec<_> = sink.events().into_iter().filter(|e| e.seq >= seq).collect();
        let loaded = image_elements(&eval) - images;

        let ksw: Vec<_> = events
            .iter()
            .filter(|e| e.key.op == KernelOp::KeySwitch)
            .collect();
        assert_eq!(
            ksw.len(),
            (level + 1) * (level + 1) * digits,
            "level {level}"
        );
        total_ksw += ksw.len();

        // Image loads are exactly the kernel changes in the sequence.
        let mut reloads: HashMap<KernelKey, usize> = HashMap::new();
        let mut expect_loaded = 0;
        let mut last = prev_key;
        for e in &events {
            if last != Some(e.key) {
                *reloads.entry(e.key).or_default() += 1;
                expect_loaded += image_size(e.key);
            }
            last = Some(e.key);
        }
        assert_eq!(loaded, expect_loaded, "level {level}: image elements");
        // One key-switch kernel per live tower, each loaded once.
        let ksw_loads: Vec<usize> = reloads
            .iter()
            .filter(|(key, _)| key.op == KernelOp::KeySwitch)
            .map(|(_, &count)| count)
            .collect();
        assert_eq!(ksw_loads, vec![1; level + 1], "level {level}");

        let next = eval.rescale(&product).unwrap();
        eval.free_ciphertext(product).unwrap();
        eval.free_ciphertext(std::mem::replace(&mut acc, next))
            .unwrap();
    }
    assert_eq!(total_ksw, 58);
}

#[test]
fn add_sub_and_mod_drop_align_levels_on_device() {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 3).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(77);
    eval.keygen(&mut rng).unwrap();

    let m1 = message(n, 5);
    let m2 = message(n, 9);
    let x = eval.encrypt(&m1, &mut rng).unwrap();
    let y = eval.encrypt(&m2, &mut rng).unwrap();
    let y = eval.mod_drop(y, 1).unwrap();
    assert_eq!(y.level(), 1);

    // add auto-aligns to the shallower operand
    let sum = eval.add(&x, &y).unwrap();
    assert_eq!(sum.level(), 1);
    let expect: Vec<u128> = m1.iter().zip(&m2).map(|(&a, &b)| (a + b) % T).collect();
    assert_eq!(eval.decrypt(&sum).unwrap(), expect);

    let diff = eval.sub(&x, &y).unwrap();
    let expect: Vec<u128> = m1
        .iter()
        .zip(&m2)
        .map(|(&a, &b)| (a + T - b % T) % T)
        .collect();
    assert_eq!(eval.decrypt(&diff).unwrap(), expect);

    // mod-drop past the ciphertext's level is refused (and the
    // ciphertext consumed either way)
    assert!(matches!(eval.mod_drop(sum, 3), Err(RpuError::Leveled(_))));
    for ct in [x, y, diff] {
        eval.free_ciphertext(ct).unwrap();
    }
}

#[test]
fn rescale_is_refused_at_the_bottom_of_the_chain() {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 2).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(3);
    eval.keygen(&mut rng).unwrap();
    let m = message(n, 1);
    let ct = eval.encrypt(&m, &mut rng).unwrap();
    let floor = eval.rescale(&ct).unwrap();
    assert_eq!(floor.level(), 0);
    assert_eq!(eval.decrypt(&floor).unwrap(), m, "rescale preserves m");
    assert!(matches!(eval.rescale(&floor), Err(RpuError::Leveled(_))));
    // operations without a relin key are refused with a Config error
    assert!(matches!(eval.mul(&ct, &ct), Err(RpuError::Config(_))));
}

// ---------------------------------------------------------------------
// Satellite: noise-budget tracker properties on the host oracle
// ---------------------------------------------------------------------

/// One random homomorphic op for the tracker property: multiply by a
/// fresh ciphertext (with or without the following rescale), or
/// add/subtract a fresh ciphertext.
#[derive(Debug, Clone, Copy)]
enum CircuitOp {
    MulRescale,
    Mul,
    Add,
    Sub,
}

fn op_strategy() -> impl Strategy<Value = CircuitOp> {
    prop_oneof![
        Just(CircuitOp::MulRescale),
        Just(CircuitOp::Mul),
        Just(CircuitOp::Add),
        Just(CircuitOp::Sub),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across random depth-1..3 circuits: (1) the tracker's estimate
    /// dominates the measured phase magnitude after every operation,
    /// and (2) decryption is correct whenever the tracker still
    /// predicts remaining budget — i.e. decryption fails only when the
    /// tracker predicted exhaustion first.
    #[test]
    fn noise_tracker_is_conservative_and_predictive(
        ops in prop::collection::vec(op_strategy(), 1..4),
        seed in any::<u64>(),
    ) {
        let n = 64usize;
        let ctx = LeveledContext::generate(n, T, 50, 3).unwrap();
        let mut rng = Splitmix::new(seed);
        let sk = ctx.keygen(&mut rng);
        let rk = ctx.relin_keygen(&sk, &mut rng, 16);
        let tm = rpu::arith::Modulus128::new(T).unwrap();

        let m0: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 1) % 64).collect();
        let mut expect = m0.clone();
        let mut ct = ctx.encrypt(&sk, &m0, &mut rng);
        prop_assert!(ctx.measure_noise(&sk, &ct) <= ct.noise().bits());

        for (step, op) in ops.into_iter().enumerate() {
            let mf: Vec<u128> =
                (0..n as u128).map(|i| (i * 3 + step as u128 + 2) % 64).collect();
            let fresh = ctx.encrypt(&sk, &mf, &mut rng);
            ct = match op {
                CircuitOp::MulRescale => {
                    let p = ctx.mul(&rk, &ct, &fresh);
                    expect = schoolbook_negacyclic(tm, &expect, &mf);
                    if p.level() > 0 { ctx.rescale(&p).unwrap() } else { p }
                }
                CircuitOp::Mul => {
                    expect = schoolbook_negacyclic(tm, &expect, &mf);
                    ctx.mul(&rk, &ct, &fresh)
                }
                CircuitOp::Add => {
                    expect = expect.iter().zip(&mf).map(|(&a, &b)| (a + b) % T).collect();
                    ctx.add(&ct, &fresh)
                }
                CircuitOp::Sub => {
                    expect = expect
                        .iter()
                        .zip(&mf)
                        .map(|(&a, &b)| (a + T - b) % T)
                        .collect();
                    ctx.sub(&ct, &fresh)
                }
            };
            // (1) conservative: measured never exceeds the estimate
            prop_assert!(
                ctx.measure_noise(&sk, &ct) <= ct.noise().bits(),
                "step {step}: measured noise above the tracked bound"
            );
            // (2) predictive: while the tracker sees budget, decryption
            // must be exact
            let log2_q = ctx.chain().log2_q(ct.level());
            if !ct.noise().is_exhausted(log2_q) {
                prop_assert_eq!(
                    ctx.decrypt(&sk, &ct),
                    expect.clone(),
                    "step {}: tracker predicted budget but decryption failed",
                    step
                );
            }
        }
    }
}
