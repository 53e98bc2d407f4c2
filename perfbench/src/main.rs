//! End-to-end and per-layer benchmark of the RPU stack.
//!
//! ```text
//! rpu-perfbench --workload <leveled_chain|serve_dot|paper_kernels>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no trace sink
//! installed. `--trace 1` measures an untraced window and a traced
//! window of half the time each, reports the per-layer metrics from the
//! traced window's spans, the tracing overhead from the pair, and writes
//! a Chrome trace-event file. Every output is checked against a host
//! reference from `reference.rs`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! README.md in this directory explains the workloads and metrics.

mod host;
mod kernels;
mod leveled;
mod reference;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use trace::{Span, Tracer, FAMILIES};

/// Where results and trace files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Ops in the Chrome trace file are capped to keep it small.
const CHROME_SPAN_LIMIT: usize = 20_000;

/// The largest share of an op's wall time that may fall outside the
/// evaluator's self time and the dispatches (the layer-sum check).
const LAYER_SUM_TOLERANCE: f64 = 0.10;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Run parameters every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Time set-up by running it several times (the last run is the
    /// one measured); otherwise set-up runs once.
    pub time_setup: bool,
}

/// What one measured window of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
    pub window_s: f64,
    pub setup_s: Vec<f64>,
    /// Simulated cycles of every dispatch the measured ops made. The
    /// window holds whole rounds only, so cycles per op is exact.
    pub device_cycles: u64,
    /// Lanes the workload's cluster runs.
    pub lanes: usize,
    /// Per-layer metrics only the workload itself can measure.
    pub layers: BTreeMap<String, f64>,
    /// Broken invariants: wrong outputs, or simulated statistics that
    /// did not repeat.
    pub violations: Vec<String>,
    /// Traced runs: every recorded span.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.window_s
    }
}

/// Linear-interpolated percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `num/den` in lowest terms, for exact comparison of per-op counts.
fn ratio(num: u64, den: u64) -> String {
    let g = gcd(num, den).max(1);
    format!("{}/{}", num / g, den / g)
}

const E2E: [(&str, &str); 7] = [
    ("ops_per_s", "ops/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("device_cycles_per_op", "cycles"),
    ("peak_heap_mib", "MiB"),
];

/// Every per-layer metric with its unit, in report order. Metrics of a
/// layer a workload does not exercise read 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("arith.mulmod_ns.u64".into(), "ns"),
        ("arith.mulmod_ns.mont128".into(), "ns"),
        ("codegen.generate_ms".into(), "ms"),
    ];
    for style in ["opt", "unopt"] {
        for n in kernels::SIZES {
            m.push((format!("codegen.generate_ms.ntt_{style}.n{n}"), "ms"));
        }
    }
    m.push(("codegen.kernels_generated".into(), "count"));
    m.push(("sim.verify_ms".into(), "ms"));
    m.push(("sim.cyclesim_ms".into(), "ms"));
    for f in FAMILIES {
        m.push((format!("sim.exec_us.{f}"), "us"));
    }
    for f in FAMILIES {
        m.push((format!("sim.dispatches.{f}"), "count"));
    }
    m.push(("sim.host_ns_per_device_cycle".into(), "ns"));
    for (name, unit) in [
        ("session.h2d_elements_per_op", "count"),
        ("session.d2h_elements_per_op", "count"),
        ("session.image_elements_per_op", "count"),
        ("session.cache_hit_ratio", "ratio"),
    ] {
        m.push((name.into(), unit));
    }
    for step in leveled::STEPS {
        m.push((format!("evaluator.{step}_ms"), "ms"));
    }
    for step in leveled::STEPS {
        m.push((format!("evaluator.host_self_ms.{step}"), "ms"));
    }
    for (name, unit) in [
        ("lanes.job_busy_frac", "ratio"),
        ("lanes.dispatch_busy_frac", "ratio"),
        ("lanes.queue_peak", "count"),
        ("lanes.makespan_cycles_per_op", "cycles"),
    ] {
        m.push((name.into(), unit));
    }
    for kind in serve::KINDS {
        m.push((format!("serve.latency_ms_p50.{kind}"), "ms"));
    }
    for (name, unit) in [
        ("serve.queue_full_frac", "ratio"),
        ("serve.share_error", "ratio"),
        ("model.energy_uj_per_op", "uJ"),
        ("trace.overhead_frac", "ratio"),
        ("trace.layer_sum_gap_frac", "ratio"),
        ("trace.latency_samples", "count"),
        ("host.calibration_ms", "ms"),
        ("host.nproc", "count"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, cfg: Config, tracer: Option<Arc<Tracer>>) -> Result<Outcome, BoxError> {
    match name {
        "leveled_chain" => leveled::run(cfg, tracer),
        "serve_dot" => serve::run(cfg, tracer),
        "paper_kernels" => kernels::run(cfg, tracer),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// Per-layer metrics read off the spans of a traced window.
fn span_layers(out: &Outcome, layers: &mut BTreeMap<String, f64>) {
    let totals = trace::totals(&out.spans);
    let ops = out.attempted.max(1) as f64;
    let mean_ms = |cat: &str, name: &str| {
        totals
            .iter()
            .find(|((c, n), _)| *c == cat && *n == name)
            .map_or(0.0, |(_, t)| t.total_ns as f64 / t.count as f64 / 1e6)
    };
    layers.insert("codegen.generate_ms".into(), mean_ms("codegen", "generate"));
    layers.insert("sim.verify_ms".into(), mean_ms("sim", "verify"));
    layers.insert("sim.cyclesim_ms".into(), mean_ms("sim", "cyclesim"));
    let (mut wall_ns, mut cycles) = (0u64, 0u64);
    for f in FAMILIES {
        let t = totals
            .get(&(trace::DISPATCH, f))
            .copied()
            .unwrap_or_default();
        let exec_us = if t.count > 0 {
            t.total_ns as f64 / t.count as f64 / 1e3
        } else {
            0.0
        };
        layers.insert(format!("sim.exec_us.{f}"), exec_us);
        layers.insert(format!("sim.dispatches.{f}"), t.count as f64 / ops);
    }
    for ((cat, _), t) in &totals {
        if *cat == trace::DISPATCH {
            wall_ns += t.total_ns;
            cycles += t.cycles;
        }
    }
    layers.insert(
        "sim.host_ns_per_device_cycle".into(),
        wall_ns as f64 / cycles.max(1) as f64,
    );
    layers.insert(
        "lanes.dispatch_busy_frac".into(),
        wall_ns as f64 / (out.window_s * 1e9 * out.lanes.max(1) as f64),
    );
    for step in leveled::STEPS {
        let t = totals
            .get(&("evaluator", step))
            .copied()
            .unwrap_or_default();
        let per = |ns: u64| {
            if t.count > 0 {
                ns as f64 / t.count as f64 / 1e6
            } else {
                0.0
            }
        };
        layers.insert(format!("evaluator.{step}_ms"), per(t.total_ns));
        layers.insert(format!("evaluator.host_self_ms.{step}"), per(t.self_ns));
    }
}

/// The "where does the time go" table: per op, the self time of every
/// layer call plus the dispatch time per family, against the op's wall
/// time. Returns the table and the unexplained share of op wall time,
/// or `None` when the workload records no op spans (serve jobs run on
/// lane threads, so their time does not nest under one op).
fn time_breakdown(spans: &[Span]) -> Option<(String, f64)> {
    let totals = trace::totals(spans);
    let op = totals.iter().filter(|((c, _), _)| *c == trace::OP).fold(
        trace::Totals::default(),
        |mut a, (_, t)| {
            a.count += t.count;
            a.total_ns += t.total_ns;
            a.self_ns += t.self_ns;
            a
        },
    );
    if op.count == 0 {
        return None;
    }
    let ops = op.count.max(1) as f64;
    let per_op_ms = |ns: u64| ns as f64 / ops / 1e6;
    let wall = per_op_ms(op.total_ns);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "where the time goes (ms per op, traced window, {} ops):",
        op.count
    );
    let _ = writeln!(
        table,
        "  {:<28} {:>10} {:>7}",
        "layer / step", "ms/op", "share"
    );
    let mut explained = 0.0;
    for ((cat, name), t) in &totals {
        if *cat == trace::OP {
            continue;
        }
        let ms = per_op_ms(t.self_ns);
        explained += ms;
        let _ = writeln!(
            table,
            "  {:<28} {:>10.4} {:>6.1}%",
            format!("{cat}.{name} (self)"),
            ms,
            100.0 * ms / wall.max(f64::MIN_POSITIVE)
        );
    }
    let glue = per_op_ms(op.self_ns);
    let _ = writeln!(
        table,
        "  {:<28} {:>10.4} {:>6.1}%",
        "outside any layer call",
        glue,
        100.0 * glue / wall.max(f64::MIN_POSITIVE)
    );
    let _ = writeln!(table, "  {:<28} {:>10.4}", "sum of layers", explained);
    let _ = writeln!(table, "  {:<28} {:>10.4}", "op wall time", wall);
    let gap = if wall > 0.0 {
        (wall - explained).abs() / wall
    } else {
        0.0
    };
    Some((table, gap))
}

/// Simulated statistics must not depend on the run: the record of the
/// first run of a build is kept and every later run of the same build
/// is compared against it. Returns a violation if they differ.
fn check_sim_record(workload: &str, entries: &[(String, String)]) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let stamp = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let build = format!("{}-{}", meta.len(), stamp);
    let path = Path::new(OUT_DIR).join(format!("simstats-{workload}.txt"));
    let mut recorded: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(build.as_str()) {
            for line in lines {
                if let Some((k, v)) = line.split_once('=') {
                    recorded.insert(k.into(), v.into());
                }
            }
        }
    }
    let mut violation = None;
    for (k, v) in entries {
        match recorded.get(k) {
            Some(old) if old != v => {
                violation = Some(format!(
                    "simulated statistic {k} changed between runs of one build: {old} then {v}"
                ));
            }
            Some(_) => {}
            None => {
                recorded.insert(k.clone(), v.clone());
            }
        }
    }
    let mut text = build;
    for (k, v) in &recorded {
        let _ = write!(text, "\n{k}={v}");
    }
    let _ = std::fs::write(&path, text);
    violation
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rpu-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("rpu-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn bench(args: &Args) -> Result<(), BoxError> {
    std::fs::create_dir_all(OUT_DIR)?;
    let fingerprint = host::Fingerprint::collect();
    println!("host: {}", fingerprint.to_json());
    let mut violations: Vec<String> = Vec::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let (attempted, failed);
    let mut sim_entries: Vec<(String, String)> = Vec::new();

    if !args.trace {
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds,
            time_setup: true,
        };
        let out = run_workload(&args.workload, cfg, None)?;
        violations.extend(out.violations.iter().cloned());
        sim_entries.push((
            "device_cycles_per_op".into(),
            ratio(out.device_cycles, out.attempted),
        ));
        let mut lat = out.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        attempted = out.attempted;
        failed = out.failed;
        let values = [
            out.ops_per_s(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.9),
            median(&out.setup_s),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            out.device_cycles as f64 / out.attempted.max(1) as f64,
            host::peak_heap_mib(),
        ];
        for ((name, unit), v) in E2E.iter().zip(values) {
            metrics.push((name.to_string(), v, unit));
        }
        let beyond = lat.len() - lat.partition_point(|&x| x <= percentile(&lat, 0.9));
        println!(
            "latency samples: {} ({} beyond p90); setup runs (s): {:?}",
            lat.len(),
            beyond,
            out.setup_s
        );
        if beyond < 10 {
            println!("warning: fewer than 10 samples beyond p90; raise --seconds");
        }
    } else {
        let half = args.seconds / 2.0;
        let plain_cfg = Config {
            seed: args.seed,
            seconds: half,
            time_setup: false,
        };
        let plain = run_workload(&args.workload, plain_cfg, None)?;
        let tracer = Arc::new(Tracer::new());
        let traced = run_workload(&args.workload, plain_cfg, Some(Arc::clone(&tracer)))?;
        for out in [&plain, &traced] {
            violations.extend(out.violations.iter().cloned());
        }
        let (untraced_cycles, traced_cycles) = (
            ratio(plain.device_cycles, plain.attempted),
            ratio(traced.device_cycles, traced.attempted),
        );
        if untraced_cycles != traced_cycles {
            violations.push(format!(
                "device cycles per op differ between the untraced ({untraced_cycles}) and traced ({traced_cycles}) runs"
            ));
        }
        sim_entries.push((
            "device_cycles_per_op".into(),
            ratio(traced.device_cycles, traced.attempted),
        ));
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;

        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        span_layers(&traced, &mut layers);
        // Per-op dispatch counts must not depend on how many ops ran.
        for f in FAMILIES {
            let count = traced
                .spans
                .iter()
                .filter(|s| s.cat == trace::DISPATCH && s.name == f)
                .count() as u64;
            sim_entries.push((format!("dispatches.{f}"), ratio(count, traced.attempted)));
        }
        layers.extend(traced.layers.clone());
        if let Some((table, gap)) = time_breakdown(&traced.spans) {
            println!("{table}");
            layers.insert("trace.layer_sum_gap_frac".into(), gap);
            if args.workload == "leveled_chain" && gap > LAYER_SUM_TOLERANCE {
                violations.push(format!(
                    "layer self times explain the op wall time only to within {:.1}% (limit {:.0}%)",
                    100.0 * gap,
                    100.0 * LAYER_SUM_TOLERANCE
                ));
            }
        }
        layers.insert(
            "trace.overhead_frac".into(),
            (plain.ops_per_s() - traced.ops_per_s()) / plain.ops_per_s(),
        );
        layers.insert(
            "trace.latency_samples".into(),
            traced.latencies_ms.len() as f64,
        );
        layers.insert("host.calibration_ms".into(), fingerprint.calibration_ms);
        layers.insert("host.nproc".into(), fingerprint.nproc as f64);
        for (name, unit) in per_layer_metrics() {
            let v = layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
        println!(
            "ops/s untraced {:.3}, traced {:.3}",
            plain.ops_per_s(),
            traced.ops_per_s()
        );
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(
            &path,
            trace::chrome_json(&traced.spans, CHROME_SPAN_LIMIT, &fingerprint.to_json()),
        )?;
        println!("chrome trace: {}", path.display());
    }
    if let Some(v) = check_sim_record(&args.workload, &sim_entries) {
        violations.push(v);
    }

    for (name, value, unit) in &mut metrics {
        if !value.is_finite() {
            violations.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
        println!("{name:<44} {value:>16.6} {unit}");
    }
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    let correct = violations.is_empty() && failed == 0;
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    json.push_str("}}");
    let result_path = PathBuf::from(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let violations_json: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", host::escape(v)))
        .collect();
    std::fs::write(
        &result_path,
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"violations\":[{}],\"result\":{}}}\n",
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            fingerprint.to_json(),
            violations_json.join(","),
            json
        ),
    )?;
    println!("{json}");
    Ok(())
}
