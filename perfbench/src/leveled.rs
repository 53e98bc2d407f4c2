//! `leveled_chain`: one closed-loop client at one lane. Each op
//! encrypts a seeded message, runs `mul` + `rescale` three times over a
//! 4 × 59-bit modulus chain (n = 1024, t = 65537, key base 2³²), and
//! decrypts. The decryption must equal the message raised to the 8th
//! power in `Z_t[x]/(x^n + 1)`, computed by schoolbook products.

use std::sync::Arc;
use std::time::Instant;

use rpu::ntt::rlwe::Splitmix;
use rpu::{CodegenStyle, LeveledContext, LeveledEvaluator, Rpu};

use crate::trace::{self, Tracer};
use crate::{BoxError, Config, Outcome};

const N: usize = 1024;
const T: u64 = 65537;
const PRIME_BITS: u32 = 59;
const LEVELS: usize = 4;
const KEY_BASE_LOG: u32 = 32;
const DEPTH: usize = 3;
/// Set-up runs whose median is `setup_s`.
const SETUP_RUNS: usize = 5;

/// Evaluator steps timed per call in the traced run.
pub const STEPS: [&str; 4] = ["encrypt", "mul", "rescale", "decrypt"];

fn call<R>(tracer: &Option<Arc<Tracer>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span("evaluator", name, f),
        None => f(),
    }
}

/// Runs one op; returns the decrypted plaintext.
fn chain_op(
    eval: &mut LeveledEvaluator<'_>,
    message: &[u128],
    rng: &mut Splitmix,
    tracer: &Option<Arc<Tracer>>,
) -> Result<Vec<u128>, BoxError> {
    let mut acc = call(tracer, "encrypt", || eval.encrypt(message, rng))?;
    for _ in 0..DEPTH {
        let product = call(tracer, "mul", || eval.mul(&acc, &acc))?;
        let next = call(tracer, "rescale", || eval.rescale(&product))?;
        eval.free_ciphertext(product)?;
        eval.free_ciphertext(std::mem::replace(&mut acc, next))?;
    }
    let plain = call(tracer, "decrypt", || eval.decrypt(&acc))?;
    eval.free_ciphertext(acc)?;
    Ok(plain)
}

fn expected(message: &[u64]) -> Vec<u64> {
    let mut x = message.to_vec();
    for _ in 0..DEPTH {
        x = crate::reference::negacyclic_mul(&x, &x, T);
    }
    x
}

fn lane_totals(eval: &LeveledEvaluator<'_>) -> (u64, [usize; 3]) {
    let mut cycles = 0;
    let mut moved = [0usize; 3];
    for s in eval.cluster().stats() {
        cycles += s.cycles;
        moved[0] += s.transfer.host_to_device;
        moved[1] += s.transfer.device_to_host;
        moved[2] += s.transfer.image_elements;
    }
    (cycles, moved)
}

pub fn run(cfg: Config, tracer: Option<Arc<Tracer>>) -> Result<Outcome, BoxError> {
    let mut out = Outcome {
        lanes: 1,
        ..Outcome::default()
    };
    let mut msg_rng = Splitmix::new(cfg.seed ^ 0x1e7e_1ed0);
    let setups = if cfg.time_setup { SETUP_RUNS } else { 1 };
    for setup in 0..setups {
        // Set-up: the Rpu, the prime chain, every per-tower kernel
        // (codegen + verify), keys, and one warm-up op that compiles
        // the lazily built rescale kernels.
        let started = Instant::now();
        let mut builder = Rpu::builder().lanes(1);
        if let Some(t) = &tracer {
            builder = builder.trace(Arc::clone(t) as Arc<dyn rpu::TraceSink>);
        }
        let rpu = builder.build()?;
        let ctx = LeveledContext::generate(N, u128::from(T), PRIME_BITS, LEVELS)?;
        let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized)?;
        eval.set_key_base_log(KEY_BASE_LOG)?;
        let mut rng = Splitmix::new(cfg.seed);
        eval.keygen(&mut rng)?;
        eval.relin_keygen(&mut rng)?;
        let warm: Vec<u128> = (0..N).map(|_| msg_rng.below(u128::from(T))).collect();
        chain_op(&mut eval, &warm, &mut rng, &None)?;
        out.setup_s.push(started.elapsed().as_secs_f64());
        if setup + 1 < setups {
            continue;
        }

        if let Some(t) = &tracer {
            t.start();
        }
        let (cycles0, moved0) = lane_totals(&eval);
        let mut per_op: Option<(u64, u64)> = None;
        // Input generation and checking are the benchmark's own work:
        // their time is taken out of the window.
        let mut own_s = 0.0;
        let window = Instant::now();
        while window.elapsed().as_secs_f64() - own_s < cfg.seconds {
            let own = Instant::now();
            let message: Vec<u128> = (0..N).map(|_| msg_rng.below(u128::from(T))).collect();
            let (c0, _) = lane_totals(&eval);
            let d0 = eval.dispatch_count();
            own_s += own.elapsed().as_secs_f64();
            out.attempted += 1;
            Tracer::set_op(out.attempted);
            let op_start = Instant::now();
            let result = chain_op(&mut eval, &message, &mut rng, &tracer);
            let op_end = Instant::now();
            if let Some(t) = &tracer {
                t.record_interval(
                    trace::OP,
                    "leveled_chain",
                    (t.offset_ns(op_start), t.offset_ns(op_end)),
                    None,
                    None,
                );
            }
            Tracer::set_op(0);
            out.latencies_ms
                .push(op_end.duration_since(op_start).as_secs_f64() * 1e3);
            let plain = match result {
                Ok(p) => p,
                Err(e) => {
                    out.failed += 1;
                    out.violations
                        .push(format!("op {} failed: {e}", out.attempted));
                    break;
                }
            };
            // Outside the timed region: simulated statistics must repeat
            // exactly, and the plaintext must match the reference.
            let own = Instant::now();
            let (c1, _) = lane_totals(&eval);
            let this_op = (c1 - c0, eval.dispatch_count() - d0);
            match per_op {
                None => per_op = Some(this_op),
                Some(first) if first != this_op => out.violations.push(format!(
                    "op {} took {:?} (cycles, dispatches), op 1 took {:?}",
                    out.attempted, this_op, first
                )),
                Some(_) => {}
            }
            let message: Vec<u64> = message.iter().map(|&m| m as u64).collect();
            let got: Vec<u64> = plain.iter().map(|&m| m as u64).collect();
            if got != expected(&message) {
                out.failed += 1;
            }
            own_s += own.elapsed().as_secs_f64();
        }
        if let Some(t) = &tracer {
            t.stop();
        }
        out.window_s = window.elapsed().as_secs_f64() - own_s;
        let (cycles1, moved1) = lane_totals(&eval);
        out.device_cycles = cycles1 - cycles0;
        let ops = out.attempted.max(1) as f64;
        let per_op_moved = |i: usize| (moved1[i] - moved0[i]) as f64 / ops;
        out.layers
            .insert("session.h2d_elements_per_op".into(), per_op_moved(0));
        out.layers
            .insert("session.d2h_elements_per_op".into(), per_op_moved(1));
        out.layers
            .insert("session.image_elements_per_op".into(), per_op_moved(2));
        let cache = eval.cluster().cache_stats(0);
        out.layers.insert(
            "session.cache_hit_ratio".into(),
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        out.layers
            .insert("codegen.kernels_generated".into(), cache.misses as f64);
        out.layers.insert(
            "lanes.makespan_cycles_per_op".into(),
            out.device_cycles as f64 / ops,
        );
        if tracer.is_some() {
            let (u64_ns, mont_ns) = crate::kernels::arith_probe(N)?;
            out.layers.insert("arith.mulmod_ns.u64".into(), u64_ns);
            out.layers.insert("arith.mulmod_ns.mont128".into(), mont_ns);
        }
    }
    if let Some(t) = &tracer {
        out.spans = t.spans();
    }
    Ok(out)
}
