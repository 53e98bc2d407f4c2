//! `serve_dot`: `rpu-serve` on two lanes, n = 2048 with the ~126-bit
//! prime, three tenants with weights 1/2/1. One generator thread keeps
//! a window of 8 tickets in flight (a closed loop: it submits the next
//! job only when a reply frees a slot).
//!
//! Each tenant works in rounds built from `OpMix::dot_product()`: its
//! encrypt, mul, dot and decrypt counts, with operands drawn by seed
//! among the round's fresh ciphertexts, then one `Free` per ciphertext
//! the round created so device memory stays bounded. Every round has
//! the same job kinds, and the window ends only when every started
//! round has finished, so the simulated cost per job is exact. Each
//! decryption is checked against a plaintext mirror after the window.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use rpu::ntt::rlwe::{RlweParams, Splitmix};
use rpu::Rpu;
use rpu_serve::{
    serve, CtHandle, JobOutput, JobRequest, JobTicket, OpMix, ServeConfig, ServeError,
    ServerHandle, TenantId, TenantSpec,
};

use crate::reference;
use crate::trace::{self, Tracer};
use crate::{BoxError, Config, Outcome};

const N: usize = 2048;
const T: u64 = 65537;
const LANES: usize = 2;
/// Fair-share weights in registration order. Home lanes are assigned
/// round-robin, so registering the weight-2 tenant second gives both
/// lanes equal weight.
const WEIGHTS: [u32; 3] = [1, 2, 1];
const WINDOW: usize = 8;
/// Trace track of window slot 0; jobs in flight together overlap, so
/// each slot gets its own track.
const JOB_TRACK: u32 = 1000;
/// Set-up runs whose median is `setup_s`.
const SETUP_RUNS: usize = 5;

/// Job kinds, in report order.
pub const KINDS: [&str; 6] = ["encrypt", "mul", "rotate", "dot", "decrypt", "free"];

#[derive(Debug, Clone, Copy)]
enum Step {
    Encrypt,
    Mul(usize, usize),
    Dot(usize, usize),
    Decrypt(usize),
    Free(usize),
}

impl Step {
    fn kind(self) -> &'static str {
        match self {
            Step::Encrypt => "encrypt",
            Step::Mul(..) => "mul",
            Step::Dot(..) => "dot",
            Step::Decrypt(_) => "decrypt",
            Step::Free(_) => "free",
        }
    }

    fn operands(self) -> Vec<usize> {
        match self {
            Step::Encrypt => vec![],
            Step::Mul(x, y) | Step::Dot(x, y) => vec![x, y],
            Step::Decrypt(x) | Step::Free(x) => vec![x],
        }
    }
}

/// One round of one tenant: the steps and their progress.
struct Round {
    steps: Vec<Step>,
    submitted: Vec<bool>,
    done: Vec<bool>,
    handles: Vec<Option<CtHandle>>,
    messages: Vec<Vec<u64>>,
}

impl Round {
    fn new(mix: &OpMix, rng: &mut Splitmix) -> Self {
        let fresh = mix.encrypt as usize;
        let mut steps: Vec<Step> = (0..fresh).map(|_| Step::Encrypt).collect();
        let pick = |rng: &mut Splitmix| rng.below(fresh as u128) as usize;
        for _ in 0..mix.mul {
            steps.push(Step::Mul(pick(rng), pick(rng)));
        }
        for _ in 0..mix.dot {
            steps.push(Step::Dot(pick(rng), pick(rng)));
        }
        let evaluated: Vec<usize> = (fresh..steps.len()).collect();
        for _ in 0..mix.decrypt {
            let target = if evaluated.is_empty() {
                pick(rng)
            } else {
                evaluated[rng.below(evaluated.len() as u128) as usize]
            };
            steps.push(Step::Decrypt(target));
        }
        let created = steps.len() - mix.decrypt as usize;
        for i in 0..created {
            steps.push(Step::Free(i));
        }
        let messages = (0..fresh)
            .map(|_| (0..N).map(|_| rng.below(u128::from(T)) as u64).collect())
            .collect();
        let len = steps.len();
        Round {
            steps,
            submitted: vec![false; len],
            done: vec![false; len],
            handles: vec![None; len],
            messages,
        }
    }

    /// The first step whose inputs exist and, for a `Free`, whose every
    /// reader has finished.
    fn next_ready(&self) -> Option<usize> {
        (0..self.steps.len()).find(|&i| {
            !self.submitted[i]
                && match self.steps[i] {
                    Step::Free(x) => {
                        self.done[x]
                            && self
                                .steps
                                .iter()
                                .enumerate()
                                .all(|(j, s)| j == i || !s.operands().contains(&x) || self.done[j])
                    }
                    s => s.operands().iter().all(|&x| self.done[x]),
                }
        })
    }

    fn finished(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    fn request(&self, i: usize, dot_len: usize) -> JobRequest {
        let h = |x: usize| self.handles[x].expect("operand resolved");
        match self.steps[i] {
            Step::Encrypt => JobRequest::Encrypt {
                message: self.messages[i].iter().map(|&m| u128::from(m)).collect(),
            },
            Step::Mul(x, y) => JobRequest::Mul { x: h(x), y: h(y) },
            Step::Dot(x, y) => JobRequest::Dot {
                x: h(x),
                y: h(y),
                len: dot_len,
            },
            Step::Decrypt(x) => JobRequest::Decrypt { ct: h(x) },
            Step::Free(x) => JobRequest::Free { ct: h(x) },
        }
    }

    /// The plaintext the ciphertext made by step `i` must decrypt to.
    fn plaintext(&self, i: usize, dot_len: usize) -> Vec<u64> {
        match self.steps[i] {
            Step::Encrypt => self.messages[i].clone(),
            Step::Mul(x, y) => reference::negacyclic_mul(&self.messages[x], &self.messages[y], T),
            Step::Dot(x, y) => reference::dot(&self.messages[x], &self.messages[y], dot_len, T),
            Step::Decrypt(_) | Step::Free(_) => unreachable!("no ciphertext output"),
        }
    }
}

struct Client {
    tenant: TenantId,
    weight: u32,
    /// The client's own input stream, so its messages and operands do
    /// not depend on how its jobs interleave with other clients'.
    rng: Splitmix,
    round: Option<Round>,
    /// Rounds started and finished since the counters were last reset.
    rounds_started: u64,
    rounds_done: u64,
    completed: u64,
}

/// A decryption, kept as a digest until the window closes; the round
/// that produced it is rebuilt from the client's input stream then.
struct Decrypted {
    client: usize,
    round: u64,
    /// The step whose ciphertext was decrypted.
    target: usize,
    digest: u64,
}

fn digest(coeffs: impl Iterator<Item = u64>) -> u64 {
    let mut h = DefaultHasher::new();
    for c in coeffs {
        c.hash(&mut h);
    }
    h.finish()
}

struct InFlight {
    client: usize,
    step: usize,
    /// Window slot the job occupies; its span goes on that slot's track.
    slot: usize,
    submitted: Instant,
    ticket: JobTicket,
}

/// What one generator run measured.
#[derive(Default)]
struct GenStats {
    attempted: u64,
    failed: u64,
    rejected: u64,
    submissions: u64,
    latencies: Vec<(&'static str, f64)>,
    decrypted: Vec<Decrypted>,
    errors: Vec<String>,
}

/// Drives every client until each has finished `rounds` rounds (when
/// `deadline` is `None`) or until the deadline passes and every started
/// round has finished. `pick` draws which ready client submits next.
fn generate(
    server: &ServerHandle,
    clients: &mut [Client],
    pick: &mut Splitmix,
    deadline: Option<Instant>,
    rounds: u64,
    tracer: &Option<Arc<Tracer>>,
) -> GenStats {
    let mix = OpMix::dot_product();
    let mut stats = GenStats::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let may_start = |c: &Client| match deadline {
        Some(d) => Instant::now() < d,
        None => c.rounds_done < rounds,
    };
    let mut full = false;
    loop {
        while inflight.len() < WINDOW && !full && stats.errors.is_empty() {
            for c in clients.iter_mut() {
                if c.round.is_none() && may_start(c) {
                    c.round = Some(Round::new(&mix, &mut c.rng));
                    c.rounds_started += 1;
                }
            }
            let ready: Vec<(usize, usize)> = clients
                .iter()
                .enumerate()
                .filter_map(|(ci, c)| c.round.as_ref()?.next_ready().map(|s| (ci, s)))
                .collect();
            if ready.is_empty() {
                break;
            }
            let total: u128 = ready
                .iter()
                .map(|&(ci, _)| u128::from(clients[ci].weight))
                .sum();
            let mut draw = pick.below(total);
            let &(ci, step) = ready
                .iter()
                .find(|&&(ci, _)| {
                    let w = u128::from(clients[ci].weight);
                    if draw < w {
                        true
                    } else {
                        draw -= w;
                        false
                    }
                })
                .expect("draw below total weight");
            let round = clients[ci].round.as_mut().expect("ready round");
            let request = round.request(step, mix.dot_len);
            stats.submissions += 1;
            match server.submit(clients[ci].tenant, request) {
                Ok(ticket) => {
                    round.submitted[step] = true;
                    stats.attempted += 1;
                    let slot = (0..WINDOW)
                        .find(|s| inflight.iter().all(|f| f.slot != *s))
                        .expect("a free slot below the window");
                    inflight.push_back(InFlight {
                        client: ci,
                        step,
                        slot,
                        submitted: Instant::now(),
                        ticket,
                    });
                }
                Err(ServeError::QueueFull { .. }) => {
                    stats.rejected += 1;
                    full = true;
                }
                Err(e) => {
                    stats.attempted += 1;
                    stats.failed += 1;
                    stats.errors.push(format!("submit failed: {e}"));
                }
            }
        }
        let Some(first) = inflight.pop_front() else {
            break;
        };
        full = false;
        let result = first.ticket.wait();
        let seen = Instant::now();
        let mut resolved = vec![(first, result)];
        let mut pending = VecDeque::new();
        for f in inflight.drain(..) {
            match f.ticket.poll() {
                Some(r) => resolved.push((f, r)),
                None => pending.push_back(f),
            }
        }
        inflight = pending;
        for (f, result) in resolved {
            let c = &mut clients[f.client];
            let round = c.round.as_mut().expect("round in flight");
            let step = round.steps[f.step];
            stats.latencies.push((
                step.kind(),
                seen.duration_since(f.submitted).as_secs_f64() * 1e3,
            ));
            if let Some(t) = tracer {
                t.record_interval(
                    "serve",
                    step.kind(),
                    (t.offset_ns(f.submitted), t.offset_ns(seen)),
                    Some(c.tenant.index() as u32),
                    Some(JOB_TRACK + f.slot as u32),
                );
            }
            round.done[f.step] = true;
            c.completed += 1;
            match (step, result) {
                (Step::Encrypt | Step::Mul(..) | Step::Dot(..), Ok(JobOutput::Ciphertext(ct))) => {
                    round.handles[f.step] = Some(ct);
                }
                (Step::Decrypt(x), Ok(JobOutput::Plaintext(p))) => {
                    stats.decrypted.push(Decrypted {
                        client: f.client,
                        round: c.rounds_started - 1,
                        target: x,
                        digest: digest(p.iter().map(|&v| v as u64)),
                    });
                }
                (Step::Free(_), Ok(JobOutput::Freed)) => {}
                (step, other) => {
                    stats.failed += 1;
                    stats
                        .errors
                        .push(format!("{} job resolved to {other:?}", step.kind()));
                }
            }
            if round.finished() {
                c.round = None;
                c.rounds_done += 1;
            }
        }
        if !stats.errors.is_empty() && inflight.is_empty() {
            break;
        }
    }
    stats
}

/// Rebuilds every client's rounds from its input stream and counts the
/// decryptions that differ from the plaintext mirror.
fn check_decryptions(decrypted: &[Decrypted], replay: Vec<Splitmix>) -> u64 {
    let mix = OpMix::dot_product();
    let mut wrong = 0;
    for (client, mut rng) in replay.into_iter().enumerate() {
        let mut mine: Vec<&Decrypted> = decrypted.iter().filter(|d| d.client == client).collect();
        mine.sort_by_key(|d| d.round);
        let (mut built, mut round) = (0, None);
        for d in mine {
            while built <= d.round {
                round = Some(Round::new(&mix, &mut rng));
                built += 1;
            }
            let round = round.as_ref().expect("round rebuilt");
            if digest(round.plaintext(d.target, mix.dot_len).into_iter()) != d.digest {
                wrong += 1;
            }
        }
    }
    wrong
}

/// Simulated cycles, host↔device traffic and lane busy time of one
/// serve session, from its report.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SessionTotals {
    cycles: u64,
    h2d: usize,
    d2h: usize,
    image: usize,
    lane_busy_us: f64,
}

pub fn run(cfg: Config, tracer: Option<Arc<Tracer>>) -> Result<Outcome, BoxError> {
    let mut out = Outcome {
        lanes: LANES,
        ..Outcome::default()
    };
    // The window's device totals are the measured session's totals
    // minus those of a session that only ran set-up, so at least one
    // set-up-only session always runs first.
    let sessions = if cfg.time_setup { SETUP_RUNS } else { 2 };
    let mut setup_only: Option<SessionTotals> = None;
    for session in 0..sessions {
        let measure = session + 1 == sessions;
        let started = Instant::now();
        let mut builder = Rpu::builder().lanes(LANES);
        if let Some(t) = &tracer {
            builder = builder.trace(Arc::clone(t) as Arc<dyn rpu::TraceSink>);
        }
        let rpu = builder.build()?;
        let q = rpu.session().primes_for(N)?;
        let params = RlweParams {
            n: N,
            q,
            t: u128::from(T),
        };
        let mut pick = Splitmix::new(cfg.seed);
        type Measured = (GenStats, f64, Vec<u64>, Vec<Splitmix>);
        let (result, report) = serve(
            &rpu,
            ServeConfig::new(params),
            |server| -> Result<(f64, Option<Measured>), BoxError> {
                // Set-up: kernels on every lane (inside `serve`), tenant
                // keys, and one warm-up round per tenant.
                let mut clients = Vec::new();
                for (i, &weight) in WEIGHTS.iter().enumerate() {
                    let seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 + 1);
                    let tenant = server
                        .register_tenant(TenantSpec::new(seed).weight(weight).rotations(vec![1]))?;
                    clients.push(Client {
                        tenant,
                        weight,
                        rng: Splitmix::new(seed ^ 0x5eed),
                        round: None,
                        rounds_started: 0,
                        rounds_done: 0,
                        completed: 0,
                    });
                }
                let warm = generate(server, &mut clients, &mut pick, None, 1, &None);
                if let Some(e) = warm.errors.first() {
                    return Err(format!("warm-up failed: {e}").into());
                }
                let setup_s = started.elapsed().as_secs_f64();
                if !measure {
                    return Ok((setup_s, None));
                }
                for c in clients.iter_mut() {
                    c.completed = 0;
                    c.rounds_started = 0;
                }
                let replay: Vec<Splitmix> = clients.iter().map(|c| c.rng.clone()).collect();
                if let Some(t) = &tracer {
                    t.start();
                }
                let window = Instant::now();
                let deadline = window + std::time::Duration::from_secs_f64(cfg.seconds);
                let stats = generate(server, &mut clients, &mut pick, Some(deadline), 0, &tracer);
                let window_s = window.elapsed().as_secs_f64();
                if let Some(t) = &tracer {
                    t.stop();
                }
                let completed: Vec<u64> = clients.iter().map(|c| c.completed).collect();
                Ok((setup_s, Some((stats, window_s, completed, replay))))
            },
        )?;
        let (setup_s, measured) = result?;
        out.setup_s.push(setup_s);
        let totals = SessionTotals {
            cycles: report.cluster.total_cycles,
            h2d: report.cluster.transfer.host_to_device,
            d2h: report.cluster.transfer.device_to_host,
            image: report.cluster.transfer.image_elements,
            lane_busy_us: report.cluster.per_lane.iter().map(|l| l.wall_busy_us).sum(),
        };
        let Some((stats, window_s, completed, replay)) = measured else {
            if let Some(prev) = setup_only {
                if (prev.cycles, prev.h2d, prev.d2h) != (totals.cycles, totals.h2d, totals.d2h) {
                    out.violations.push(format!(
                        "set-up sessions differ in simulated work: {prev:?} vs {totals:?}"
                    ));
                }
            }
            setup_only = Some(totals);
            continue;
        };
        let base = setup_only.expect("a set-up-only session ran first");
        out.window_s = window_s;
        out.attempted = stats.attempted;
        out.failed = stats.failed;
        out.violations.extend(stats.errors.iter().cloned());
        out.failed += check_decryptions(&stats.decrypted, replay);
        out.latencies_ms = stats.latencies.iter().map(|&(_, ms)| ms).collect();
        out.device_cycles = totals.cycles - base.cycles;
        let ops = stats.attempted.max(1) as f64;
        for (name, v) in [
            ("session.h2d_elements_per_op", totals.h2d - base.h2d),
            ("session.d2h_elements_per_op", totals.d2h - base.d2h),
            (
                "session.image_elements_per_op",
                totals.image.saturating_sub(base.image),
            ),
        ] {
            out.layers.insert(name.into(), v as f64 / ops);
        }
        out.layers.insert(
            "lanes.job_busy_frac".into(),
            (totals.lane_busy_us - base.lane_busy_us) / (window_s * 1e6 * LANES as f64),
        );
        out.layers
            .insert("lanes.queue_peak".into(), report.cluster.queue_peak as f64);
        out.layers.insert(
            "serve.queue_full_frac".into(),
            stats.rejected as f64 / stats.submissions.max(1) as f64,
        );
        let done: u64 = completed.iter().sum();
        let weight_sum: u32 = WEIGHTS.iter().sum();
        let share_error = completed
            .iter()
            .zip(WEIGHTS)
            .map(|(&c, w)| {
                (c as f64 / done.max(1) as f64 - f64::from(w) / f64::from(weight_sum)).abs()
            })
            .fold(0.0, f64::max);
        out.layers.insert("serve.share_error".into(), share_error);
        for kind in KINDS {
            let v: Vec<f64> = stats
                .latencies
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|&(_, ms)| ms)
                .collect();
            out.layers.insert(
                format!("serve.latency_ms_p50.{kind}"),
                if v.is_empty() { 0.0 } else { crate::median(&v) },
            );
        }
        if let Some(t) = &tracer {
            out.spans = t.spans();
            let mut lane_cycles: BTreeMap<usize, u64> = BTreeMap::new();
            for s in out.spans.iter().filter(|s| s.cat == trace::DISPATCH) {
                *lane_cycles.entry(s.lane).or_default() += s.cycles;
            }
            out.layers.insert(
                "lanes.makespan_cycles_per_op".into(),
                lane_cycles.values().copied().max().unwrap_or(0) as f64 / ops,
            );
            let (u64_ns, mont_ns) = crate::kernels::arith_probe(N)?;
            out.layers.insert("arith.mulmod_ns.u64".into(), u64_ns);
            out.layers.insert("arith.mulmod_ns.mont128".into(), mont_ns);
        }
    }
    Ok(out)
}
