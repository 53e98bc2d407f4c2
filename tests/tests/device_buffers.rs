//! Integration tests for the device-resident buffer API: upload /
//! download round trips, allocator exhaustion and reuse, dispatch
//! validation, and resident pipelines that avoid per-op host traffic.

use proptest::prelude::*;
use rpu::{
    BufferAllocator, BufferError, CodegenStyle, Direction, ElementwiseOp, ElementwiseSpec,
    KernelSpec, KeySwitchSpec, NttSpec, PrimeTable, Rpu, RpuConfig, RpuError,
};

/// Asserts the allocator's structural invariants: free and live blocks
/// partition `[base, base + capacity)` with no overlap, and coalescing
/// leaves no two adjacent free blocks.
fn assert_allocator_invariants(a: &BufferAllocator, base: usize, capacity: usize) {
    let free = a.free_blocks();
    let live = a.live_blocks();
    // free list is sorted, in-range, and fully coalesced
    for w in free.windows(2) {
        assert!(
            w[0].0 + w[0].1 < w[1].0,
            "adjacent/overlapping free blocks: {free:?}"
        );
    }
    for &(off, len) in &free {
        assert!(
            len > 0 && off >= base && off + len <= base + capacity,
            "free {free:?}"
        );
    }
    // live blocks don't overlap each other or any free block
    let mut all: Vec<(usize, usize, bool)> = free.iter().map(|&(o, l)| (o, l, true)).collect();
    all.extend(live.iter().map(|&(o, l)| (o, l, false)));
    all.sort_unstable();
    for w in all.windows(2) {
        assert!(w[0].0 + w[0].1 <= w[1].0, "overlap in {all:?}");
    }
    // free + live partition the heap exactly
    let covered: usize = all.iter().map(|&(_, l, _)| l).sum();
    assert_eq!(
        covered, capacity,
        "free {free:?} + live {live:?} must cover the heap"
    );
    assert_eq!(a.in_use(), live.iter().map(|&(_, l)| l).sum::<usize>());
}

fn test_data(len: usize, seed: u64) -> Vec<u128> {
    (0..len as u128)
        .map(|i| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed as u128)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed-size buffers uploaded in one order and downloaded in
    /// another come back bit-exact.
    #[test]
    fn upload_download_round_trips(
        lens in prop::collection::vec(1usize..3000, 1..8),
        seed in any::<u64>(),
    ) {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let data: Vec<Vec<u128>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| test_data(l, seed ^ i as u64))
            .collect();
        let bufs: Vec<_> = data.iter().map(|d| s.upload(d).unwrap()).collect();
        // download in reverse order: buffers must not alias
        for (buf, expect) in bufs.iter().zip(&data).rev() {
            prop_assert_eq!(&s.download(buf).unwrap(), expect);
        }
        for buf in bufs {
            s.free(buf).unwrap();
        }
        prop_assert_eq!(s.device_mem_in_use(), 0);
    }

    /// Freeing and reallocating arbitrary subsets never corrupts the
    /// survivors.
    #[test]
    fn alloc_free_interleave_preserves_survivors(
        lens in prop::collection::vec(1usize..1500, 2..10),
        drop_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let data: Vec<Vec<u128>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| test_data(l, seed ^ (i as u64) << 8))
            .collect();
        let bufs: Vec<_> = data.iter().map(|d| s.upload(d).unwrap()).collect();
        let mut live = Vec::new();
        for (i, buf) in bufs.into_iter().enumerate() {
            if drop_mask >> (i % 64) & 1 == 1 {
                s.free(buf).unwrap();
            } else {
                live.push((buf, &data[i]));
            }
        }
        // allocate into the holes, overwriting with fresh patterns
        let extra: Vec<_> = (0..3)
            .map(|i| {
                let d = test_data(700, seed ^ 0xABCD ^ i);
                (s.upload(&d).unwrap(), d)
            })
            .collect();
        for (buf, expect) in &live {
            prop_assert_eq!(&s.download(buf).unwrap(), *expect);
        }
        for (buf, expect) in &extra {
            prop_assert_eq!(&s.download(buf).unwrap(), expect);
        }
    }

    /// Allocator invariants hold after every step of a random
    /// alloc/free interleaving driven directly against the allocator:
    /// free + live partition the heap, nothing overlaps, and frees
    /// always coalesce (no two adjacent free blocks survive).
    #[test]
    fn allocator_invariants_hold_under_random_interleavings(
        ops in prop::collection::vec((any::<u16>(), 1usize..700), 1..60),
        base in 0usize..2048,
    ) {
        let capacity = 8192usize;
        let mut a = BufferAllocator::new(base, capacity);
        let mut live = Vec::new();
        for (sel, len) in ops {
            // ~1/3 frees (when anything is live), ~2/3 allocs
            if sel % 3 == 0 && !live.is_empty() {
                let victim = live.swap_remove(sel as usize % live.len());
                a.free(&victim).unwrap();
            } else {
                match a.alloc(len) {
                    Ok(buf) => live.push(buf),
                    Err(BufferError::OutOfMemory { largest_free, .. }) => {
                        // the refusal must be honest: no free block fits
                        prop_assert!(largest_free < len);
                    }
                    Err(e) => panic!("unexpected alloc failure: {e}"),
                }
            }
            assert_allocator_invariants(&a, base, capacity);
        }
        // drain everything: the heap must coalesce back to one block
        for buf in live {
            a.free(&buf).unwrap();
            assert_allocator_invariants(&a, base, capacity);
        }
        prop_assert_eq!(a.free_blocks(), vec![(base, capacity)]);
        prop_assert_eq!(a.in_use(), 0);
    }

    /// The same invariants through the cluster API, with `migrate`
    /// mixed in: random alloc/free/migrate interleavings over two lanes
    /// leave every lane's heap consistent and every surviving buffer's
    /// contents intact.
    #[test]
    fn cluster_alloc_free_migrate_interleavings_stay_consistent(
        ops in prop::collection::vec((any::<u16>(), 1usize..500), 1..24),
        seed in any::<u64>(),
    ) {
        let rpu = Rpu::builder().device_heap_elements(4096).lanes(2).build().unwrap();
        let mut c = rpu.cluster();
        let mut live: Vec<(rpu::DeviceBuffer, Vec<u128>)> = Vec::new();
        for (i, (sel, len)) in ops.into_iter().enumerate() {
            match sel % 4 {
                0 | 1 => {
                    let data = test_data(len, seed ^ i as u64);
                    let lane = (sel / 4) as usize % 2;
                    if let Ok(buf) = c.upload_to(lane, &data) {
                        live.push((buf, data));
                    }
                }
                2 if !live.is_empty() => {
                    let (buf, _) = live.swap_remove(sel as usize % live.len());
                    c.free(buf).unwrap();
                }
                _ if !live.is_empty() => {
                    let idx = sel as usize % live.len();
                    let to = (sel / 8) as usize % 2;
                    let (buf, data) = live.swap_remove(idx);
                    match c.migrate(buf, to) {
                        Ok(moved) => live.push((moved, data)),
                        Err(RpuError::Buffer(BufferError::OutOfMemory { .. })) => {
                            // failed migrate must leave the source live
                            prop_assert_eq!(&c.download(&buf).unwrap(), &data);
                            live.push((buf, data));
                        }
                        Err(e) => panic!("unexpected migrate failure: {e}"),
                    }
                }
                _ => {}
            }
            // every survivor still holds its exact contents
            let total: usize = live.iter().map(|(b, _)| b.len()).sum();
            let in_use: usize =
                (0..2).map(|l| c.lane_session(l).device_mem_in_use()).sum();
            prop_assert_eq!(total, in_use, "live handles and heap accounting agree");
        }
        for (buf, data) in &live {
            prop_assert_eq!(&c.download(buf).unwrap(), data);
        }
        for (buf, _) in live {
            c.free(buf).unwrap();
        }
        prop_assert_eq!((0..2).map(|l| c.lane_session(l).device_mem_in_use()).sum::<usize>(), 0);
    }
}

#[test]
fn heap_exhaustion_and_reuse() {
    let rpu = Rpu::builder().device_heap_elements(4096).build().unwrap();
    let mut s = rpu.session();
    let a = s.upload(&test_data(2048, 1)).unwrap();
    let b = s.upload(&test_data(2048, 2)).unwrap();
    // full: the next allocation reports what is left
    match s.alloc(1) {
        Err(RpuError::Buffer(BufferError::OutOfMemory {
            requested,
            largest_free,
            free_total,
        })) => {
            assert_eq!((requested, largest_free, free_total), (1, 0, 0));
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    // free the *first* block: its space is reused (first fit), and the
    // survivor is untouched
    s.free(a).unwrap();
    let c = s.upload(&test_data(1024, 3)).unwrap();
    assert_eq!(c.offset_elements(), a.offset_elements());
    assert_eq!(s.download(&b).unwrap(), test_data(2048, 2));
    assert_eq!(s.download(&c).unwrap(), test_data(1024, 3));
    // freed handles are stale, even though the memory was recycled
    assert!(matches!(
        s.download(&a),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    assert!(matches!(
        s.free(a),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
}

#[test]
fn handles_do_not_cross_sessions() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s1 = rpu.session();
    let mut s2 = rpu.session();
    let foreign = s1.upload(&[1, 2, 3]).unwrap();
    assert!(matches!(
        s2.download(&foreign),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
}

#[test]
fn dispatch_validates_shapes() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(1024).unwrap();
    let mul = s
        .compile(&ElementwiseSpec::new(
            ElementwiseOp::MulMod,
            1024,
            q,
            CodegenStyle::Optimized,
        ))
        .unwrap();
    let x = s.upload(&test_data(1024, 1)).unwrap();
    let y = s.upload(&test_data(1024, 2)).unwrap();
    let short = s.upload(&test_data(512, 3)).unwrap();
    let out = s.alloc(1024).unwrap();
    // wrong operand count
    assert!(matches!(
        s.dispatch(&mul, &[x], &[out]),
        Err(RpuError::Buffer(BufferError::ArityMismatch {
            expected: 2,
            got: 1
        }))
    ));
    // wrong operand length
    assert!(matches!(
        s.dispatch(&mul, &[x, short], &[out]),
        Err(RpuError::Buffer(BufferError::LengthMismatch {
            expected: 1024,
            got: 512
        }))
    ));
    // wrong output length
    assert!(matches!(
        s.dispatch(&mul, &[x, y], &[short]),
        Err(RpuError::Buffer(BufferError::LengthMismatch { .. }))
    ));
    // stale input
    s.free(y).unwrap();
    assert!(matches!(
        s.dispatch(&mul, &[x, y], &[out]),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
}

#[test]
fn output_tiles_match_one_full_length_buffer() {
    // The two-component key-switch kernel's 2n output window, written
    // once into one full-length buffer and once into two half-length
    // tiles, must give the same elements in the same order.
    let n = 1024usize;
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(n).unwrap();
    let ksw = s
        .compile(&KeySwitchSpec::new(n, q, CodegenStyle::Optimized))
        .unwrap();
    let inputs: Vec<_> = (0..5)
        .map(|k| s.upload(&test_data(n, 10 + k)).unwrap())
        .collect();
    let full = s.alloc(2 * n).unwrap();
    s.dispatch(&ksw, &inputs, &[full]).unwrap();
    let (lo, hi) = (s.alloc(n).unwrap(), s.alloc(n).unwrap());
    s.dispatch(&ksw, &inputs, &[lo, hi]).unwrap();
    let mut tiled = s.download(&lo).unwrap();
    tiled.extend(s.download(&hi).unwrap());
    assert_eq!(tiled, s.download(&full).unwrap());
}

#[test]
fn bad_output_tiles_are_rejected_without_side_effects() {
    let n = 1024usize;
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(n).unwrap();
    let mul = s
        .compile(&ElementwiseSpec::new(
            ElementwiseOp::MulMod,
            n,
            q,
            CodegenStyle::Optimized,
        ))
        .unwrap();
    let ksw = s
        .compile(&KeySwitchSpec::new(n, q, CodegenStyle::Optimized))
        .unwrap();
    let inputs: Vec<_> = (0..5)
        .map(|k| s.upload(&test_data(n, 20 + k)).unwrap())
        .collect();
    let (lo, hi) = (s.alloc(n).unwrap(), s.alloc(n).unwrap());
    let full = s.alloc(2 * n).unwrap();
    let dead = s.alloc(n).unwrap();
    s.free(dead).unwrap();
    // Leave the pointwise kernel's image loaded.
    let out = s.alloc(n).unwrap();
    s.dispatch(&mul, &inputs[..2], &[out]).unwrap();
    let before = s.snapshot();

    let mismatch = |got| BufferError::LengthMismatch {
        expected: 2 * n,
        got,
    };
    let cases = [
        (
            "empty",
            vec![],
            BufferError::ArityMismatch {
                expected: 1,
                got: 0,
            },
        ),
        ("too short", vec![lo], mismatch(n)),
        ("too long", vec![lo, hi, out], mismatch(3 * n)),
        ("full plus a tile", vec![full, lo], mismatch(3 * n)),
        (
            "stale tile",
            vec![lo, dead],
            BufferError::StaleHandle { id: dead.id() },
        ),
    ];
    for (label, outputs, want) in cases {
        match s.dispatch(&ksw, &inputs, &outputs) {
            Err(RpuError::Buffer(got)) => assert_eq!(got, want, "{label}"),
            other => panic!("{label}: expected {want:?}, got {other:?}"),
        }
        // No heap contents, workspace contents or loaded-image identity
        // changed.
        assert_eq!(s.snapshot(), before, "{label}: device state changed");
    }
    let again = s.dispatch(&mul, &inputs[..2], &[out]).unwrap();
    assert!(again.transfer.image_reused, "the loaded image was replaced");
}

#[test]
fn oversized_kernel_is_rejected_not_executed() {
    // A 64 KiB VDM (4096 elements) cannot hold a 1024-point NTT's
    // working set (ping-pong buffers + twiddles).
    let config = RpuConfig {
        vdm_bytes: 64 << 10,
        ..RpuConfig::pareto_128x128()
    };
    let rpu = Rpu::builder().config(config).build().unwrap();
    let mut s = rpu.session();
    let q = PrimeTable::new().ntt_prime(1024).unwrap();
    let ntt = s
        .compile(&NttSpec::new(
            1024,
            q,
            Direction::Forward,
            CodegenStyle::Optimized,
        ))
        .unwrap();
    let x = s.upload(&test_data(1024, 1)).unwrap();
    let out = s.alloc(1024).unwrap();
    assert!(matches!(
        s.dispatch(&ntt, &[x], &[out]),
        Err(RpuError::Buffer(BufferError::WorkspaceOverflow { .. }))
    ));
}

#[test]
fn ntt_round_trips_on_device() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let n = 1024usize;
    let q = s.primes_for(n).unwrap();
    let fwd = s
        .compile(&NttSpec::new(
            n,
            q,
            Direction::Forward,
            CodegenStyle::Optimized,
        ))
        .unwrap();
    let inv = s
        .compile(&NttSpec::new(
            n,
            q,
            Direction::Inverse,
            CodegenStyle::Optimized,
        ))
        .unwrap();
    let input: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 5) % q).collect();
    let x = s.upload(&input).unwrap();
    let hat = s.alloc(n).unwrap();
    let back = s.alloc(n).unwrap();
    let r1 = s.dispatch(&fwd, &[x], &[hat]).unwrap();
    let r2 = s.dispatch(&inv, &[hat], &[back]).unwrap();
    assert_eq!(s.download(&back).unwrap(), input);
    assert!(r1.verified && r2.verified, "compile() verified both shapes");
    assert_eq!(r1.transfer.host_to_device + r2.transfer.host_to_device, 0);
    // the evaluation-form buffer really is the transform, not a copy
    assert_ne!(s.download(&hat).unwrap(), input);
}

#[test]
fn run_with_matches_kernel_execute() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(1024).unwrap();
    let spec = ElementwiseSpec::new(ElementwiseOp::SubMod, 1024, q, CodegenStyle::Optimized);
    let a = test_data(1024, 7).iter().map(|v| v % q).collect::<Vec<_>>();
    let b = test_data(1024, 8).iter().map(|v| v % q).collect::<Vec<_>>();
    let (got, report) = s.run_with(&spec, &[&a, &b]).unwrap();
    let expect = s.kernel(&spec).unwrap().execute(&[&a, &b]).unwrap();
    assert_eq!(got, expect);
    assert_eq!(report.transfer.host_to_device, 2048);
    assert_eq!(report.transfer.device_to_host, 1024);
    assert_eq!(s.device_mem_in_use(), 0, "round-trip scratch is freed");
}

/// The headline contract: an L-op resident chain moves host data once,
/// while L one-shot runs move it L times.
#[test]
fn resident_chain_uploads_once() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let n = 1024usize;
    let q = s.primes_for(n).unwrap();
    let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, CodegenStyle::Optimized);
    let mul = s.compile(&spec).unwrap();
    let l = 8;

    // Resident: 1 upload + L dispatches + 1 download.
    let x0: Vec<u128> = (0..n as u128).map(|i| (i + 2) % q).collect();
    let w: Vec<u128> = (0..n as u128).map(|i| (3 * i + 1) % q).collect();
    let mut host_elems = 0usize;
    let xb = s.upload(&x0).unwrap();
    let wb = s.upload(&w).unwrap();
    host_elems += 2 * n;
    let tmp = s.alloc(n).unwrap();
    let (mut cur, mut other) = (xb, tmp);
    for _ in 0..l {
        let r = s.dispatch(&mul, &[cur, wb], &[other]).unwrap();
        host_elems += r.transfer.host_elements(); // stays zero
        std::mem::swap(&mut cur, &mut other);
    }
    let resident_result = s.download(&cur).unwrap();
    host_elems += n;
    assert_eq!(host_elems, 3 * n, "1 upload (2 operands) + 1 download");

    // The same chain as L independent one-shot runs: L full round trips.
    let m = rpu::arith::Modulus128::new(q).unwrap();
    let mut roundtrip_elems = 0usize;
    let mut cur = x0.clone();
    for _ in 0..l {
        let (out, r) = s.run_with(&spec, &[&cur, &w]).unwrap();
        roundtrip_elems += r.transfer.host_elements();
        cur = out;
    }
    assert_eq!(cur, resident_result, "both paths compute the same chain");
    assert_eq!(roundtrip_elems, l * 3 * n, "L × (2 uploads + 1 download)");
    // host-side reference
    let mut expect = x0;
    for _ in 0..l {
        expect = expect
            .iter()
            .zip(&w)
            .map(|(&a, &b)| m.mul(a % q, b % q))
            .collect();
    }
    assert_eq!(resident_result, expect);
}

#[test]
fn free_then_dispatch_is_rejected_without_side_effects() {
    let n = 1024usize;
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(n).unwrap();
    let mul = s
        .compile(&ElementwiseSpec::new(
            ElementwiseOp::MulMod,
            n,
            q,
            CodegenStyle::Optimized,
        ))
        .unwrap();
    let x = s.upload(&vec![2u128; n]).unwrap();
    let y = s.upload(&vec![3u128; n]).unwrap();
    let out = s.alloc(n).unwrap();
    let dead = s.upload(&vec![9u128; n]).unwrap();
    s.free(dead).unwrap();

    // freed input
    assert!(matches!(
        s.dispatch(&mul, &[dead, y], &[out]),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    // freed output
    assert!(matches!(
        s.dispatch(&mul, &[x, y], &[dead]),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    // the live buffers still dispatch cleanly afterwards
    s.dispatch(&mul, &[x, y], &[out]).unwrap();
    assert_eq!(s.download(&out).unwrap(), vec![6u128; n]);
}

#[test]
fn double_free_reports_stale_and_keeps_heap_consistent() {
    let rpu = Rpu::builder().device_heap_elements(4096).build().unwrap();
    let mut s = rpu.session();
    let a = s.upload(&test_data(1024, 7)).unwrap();
    let b = s.upload(&test_data(1024, 8)).unwrap();
    s.free(a).unwrap();
    assert!(matches!(
        s.free(a),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    // the double free must not have freed or merged the survivor's block
    assert_eq!(s.device_mem_in_use(), 1024);
    assert_eq!(s.live_buffers(), 1);
    assert_eq!(s.download(&b).unwrap(), test_data(1024, 8));
    // and both free fragments around the survivor are still allocatable
    assert!(s.alloc(1024).is_ok()); // the hole `a` left
    assert!(s.alloc(2048).is_ok()); // the untouched tail
}

#[test]
fn stale_handle_stays_stale_after_heap_growth() {
    // The backing simulator grows lazily with the heap high-water mark;
    // a handle freed *before* a growth must not resurrect once its
    // offset range exists again (ids, not offsets, define liveness).
    let rpu = Rpu::builder()
        .device_heap_elements(1 << 16)
        .build()
        .unwrap();
    let mut s = rpu.session();
    let small = s.upload(&test_data(256, 1)).unwrap();
    s.free(small).unwrap();
    // force simulator growth well past the freed range
    let big = s.upload(&test_data(1 << 15, 2)).unwrap();
    assert!(matches!(
        s.download(&small),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    assert!(matches!(
        s.write(&small, &test_data(256, 3)),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    // the grown allocation is intact and the freed id was not recycled
    assert_eq!(s.download(&big).unwrap(), test_data(1 << 15, 2));
    assert_ne!(big.id(), small.id());
}

#[test]
fn dispatch_stays_correct_after_heap_growth() {
    // Regression test for the fast-path executor against lazy simulator
    // growth: a kernel dispatched *before* `ensure_vdm` grows the
    // backing memory must still compute correctly *after* a growth —
    // nothing pre-resolved at compile() time may point at the old
    // allocation. Dispatching the interpreter alongside pins the
    // expected values.
    let n = 1024usize;
    let rpu = Rpu::builder()
        .device_heap_elements(1 << 16)
        .build()
        .unwrap();
    let interp = Rpu::builder()
        .device_heap_elements(1 << 16)
        .force_interpreter(true)
        .build()
        .unwrap();
    let mut s = rpu.session();
    let mut o = interp.session();
    let q = s.primes_for(n).unwrap();
    let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, CodegenStyle::Optimized);
    let mul = s.compile(&spec).unwrap();
    let mul_o = o.compile(&spec).unwrap();

    let run = |s: &mut rpu::RpuSession<'_>, k, a: &[u128], b: &[u128]| {
        let x = s.upload(a).unwrap();
        let y = s.upload(b).unwrap();
        let out = s.alloc(n).unwrap();
        s.dispatch(k, &[x, y], &[out]).unwrap();
        let got = s.download(&out).unwrap();
        s.free(x).unwrap();
        s.free(y).unwrap();
        s.free(out).unwrap();
        got
    };

    let a = test_data(n, 21).iter().map(|v| v % q).collect::<Vec<_>>();
    let b = test_data(n, 22).iter().map(|v| v % q).collect::<Vec<_>>();
    assert_eq!(run(&mut s, &mul, &a, &b), run(&mut o, &mul_o, &a, &b));

    // Force the backing simulator to grow well past the first dispatch's
    // high-water mark, then dispatch the *same* compiled kernel again at
    // buffers living in the newly grown range.
    let big = s.upload(&test_data(1 << 15, 2)).unwrap();
    let big_o = o.upload(&test_data(1 << 15, 2)).unwrap();
    let c = test_data(n, 23).iter().map(|v| v % q).collect::<Vec<_>>();
    let d = test_data(n, 24).iter().map(|v| v % q).collect::<Vec<_>>();
    assert_eq!(run(&mut s, &mul, &c, &d), run(&mut o, &mul_o, &c, &d));
    // untouched by either post-growth dispatch
    assert_eq!(s.download(&big).unwrap(), test_data(1 << 15, 2));
    assert_eq!(o.download(&big_o).unwrap(), test_data(1 << 15, 2));
}

#[test]
fn oversized_kernel_image_is_an_exec_error_not_a_panic() {
    // `Kernel::load_into` on a too-small simulator used to panic inside
    // `write_vdm`; it must now surface as `RpuError::Exec` with the
    // fail-closed `HostTransferOutOfBounds` inside.
    let n = 1024usize;
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).unwrap();
    let kernel = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized)
        .generate()
        .unwrap();
    let mut sim = rpu::FunctionalSim::new(16, 1);
    match kernel.load_into(&mut sim) {
        Err(rpu::sim::ExecError::HostTransferOutOfBounds { memory, .. }) => {
            assert_eq!(memory, "VDM");
        }
        other => panic!("expected HostTransferOutOfBounds, got {other:?}"),
    }
}
