//! Host fingerprint and process measurements, so results from hosts or
//! sessions that run at different speeds can be told apart.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// What ran the benchmark, as a JSON object.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
    pub calibration_ms: f64,
}

impl Fingerprint {
    pub fn collect() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit(),
            calibration_ms: calibration_ms(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"calibration_ms\":{}}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(self.rustc),
            escape(&self.commit),
            self.calibration_ms
        )
    }
}

pub fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c => c.to_string(),
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the working directory's git checkout. Git is kept from
/// searching parent directories, so a checkout without `.git` reports
/// `unknown` instead of an enclosing repository's commit.
fn git_commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd
        .as_deref()
        .and_then(|d| d.parent())
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Median of five timings of a fixed integer loop (128-bit multiplies
/// and a data-dependent reduction), in ms. Scales with single-core
/// speed, which is what every workload here mostly depends on.
pub fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x: u128 = 0x9E37_79B9_7F4A_7C15;
            let q: u128 = (1 << 125) - 159;
            for i in 0..2_000_000u128 {
                x = (x.wrapping_mul(x | 1) ^ i) % q;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// The system allocator with a count of live heap bytes and their peak.
///
/// The peak is what the program asks for, independent of how much freed
/// memory the allocator keeps resident. Resident memory (`VmHWM`) is not
/// used: with several threads it depends on which allocator arena each
/// thread lands in, and on `serve_dot` it read ~26 or ~36 MiB for the
/// same inputs.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grown(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrunk(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grown(new_size - layout.size());
            } else {
                shrunk(layout.size() - new_size);
            }
        }
        p
    }
}

/// Peak of the live heap bytes of this process so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
