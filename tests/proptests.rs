//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use facedet::gpu::{CostModel, DeviceSpec, ExecMode, Gpu};
use facedet::haar::encode::{
    decode_stump, encode_stump, quantize_leaf, quantize_threshold, LEAF_SCALE, THR_STEP,
};
use facedet::haar::{enumerate_features, EnumerationRule, FeatureKind, HaarFeature, Stump};
use facedet::imgproc::scan::{integral_via_scan, scan_rows_inclusive, transpose};
use facedet::imgproc::{GrayImage, IntegralImage};

mod lattice;

use lattice::Front;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Integral image equals the naive double loop for any 8-bit image.
    #[test]
    fn integral_matches_naive(
        w in 1usize..32,
        h in 1usize..32,
        seed in any::<u32>(),
    ) {
        let pix: Vec<u8> = (0..w * h)
            .map(|i| ((i as u32).wrapping_mul(seed | 1) >> 13) as u8)
            .collect();
        let ii = IntegralImage::from_u8(w, h, &pix);
        // Check a handful of rectangles per case.
        let rects = [(0, 0, w, h), (0, 0, 1, 1), (w / 2, h / 2, w - w / 2, h - h / 2)];
        for &(x, y, rw, rh) in &rects {
            if rw == 0 || rh == 0 { continue; }
            let mut acc = 0i64;
            for yy in y..y + rh {
                for xx in x..x + rw {
                    acc += pix[yy * w + xx] as i64;
                }
            }
            prop_assert_eq!(ii.rect_sum(x, y, rw, rh), acc);
        }
    }

    /// The scan/transpose construction equals the sequential recurrence.
    #[test]
    fn scan_formulation_equals_sequential(
        w in 1usize..48,
        h in 1usize..48,
        seed in any::<u32>(),
    ) {
        let img = GrayImage::from_fn(w, h, |x, y| {
            (((x as u32 * 7 + y as u32 * 13).wrapping_mul(seed | 1)) >> 24) as f32
        });
        prop_assert_eq!(integral_via_scan(&img), IntegralImage::from_gray(&img));
    }

    /// Transposition is an involution and scan_rows is per-row monotone.
    #[test]
    fn transpose_involution_and_scan_monotone(
        w in 1usize..24,
        h in 1usize..24,
        data in proptest::collection::vec(0u32..255, 1..576),
    ) {
        let mut m = data;
        m.resize(w * h, 0);
        let back = transpose(&transpose(&m, w, h), h, w);
        prop_assert_eq!(&back, &m);
        scan_rows_inclusive(&mut m, w, h);
        for row in m.chunks(w) {
            for pair in row.windows(2) {
                prop_assert!(pair[1] >= pair[0]);
            }
        }
    }

    /// Every enumerated feature is zero-DC: it cancels on constant images.
    #[test]
    fn features_cancel_on_flat_images(level in 0u8..=255, pick in any::<prop::sample::Index>()) {
        let ii = IntegralImage::from_u8(24, 24, &[level; 576]);
        let feats = enumerate_features(24, EnumerationRule::Icpp2012);
        let f = feats[pick.index(feats.len())];
        prop_assert_eq!(f.eval(&ii, 0, 0), 0);
    }

    /// Stump encode/decode round-trips within the documented quantization.
    #[test]
    fn stump_encoding_quantization_is_bounded(
        kind_id in 0u8..6,
        x in 0u8..20,
        y in 0u8..20,
        w in 1u8..8,
        h in 1u8..8,
        thr in -200_000i32..200_000,
        left in -8.0f32..8.0,
        right in -8.0f32..8.0,
    ) {
        let kind = FeatureKind::from_id(kind_id).unwrap();
        let s = Stump {
            feature: HaarFeature::from_params(kind, x, y, w, h),
            threshold: thr,
            left,
            right,
        };
        let d = decode_stump(&encode_stump(&s));
        prop_assert_eq!(d.feature, s.feature);
        prop_assert!((d.threshold - thr).abs() <= THR_STEP / 2);
        prop_assert!((d.left - left).abs() <= 0.5 / LEAF_SCALE + 1e-6);
        prop_assert!((d.right - right).abs() <= 0.5 / LEAF_SCALE + 1e-6);
        // Quantizers are idempotent.
        prop_assert_eq!(quantize_threshold(d.threshold), d.threshold);
        prop_assert_eq!(quantize_leaf(d.left), d.left);
    }

    /// Scheduler invariants on random launch sets: same-stream launches
    /// never overlap; both modes execute everything; concurrent execution
    /// is never *catastrophically* worse than serial. (Strict
    /// "concurrency always helps" is false on real hardware and in the
    /// model: co-scheduling subjects a kernel's blocks to issue-pipeline
    /// contention from its neighbours, which can outweigh the overlap
    /// gain for adversarial mixes of tiny and huge blocks.)
    #[test]
    fn scheduler_orders_and_concurrency_helps(
        kernels in proptest::collection::vec((1u32..4, 1usize..30, 100f64..50_000.0), 1..12),
    ) {
        use facedet::gpu::{BlockCost, KernelCounters, LaunchRecord, StreamId};
        let launches: Vec<LaunchRecord> = kernels
            .iter()
            .enumerate()
            .map(|(i, &(stream, blocks, cycles))| LaunchRecord {
                launch_idx: i,
                kernel_name: "k",
                stream: StreamId::from_raw(stream),
                shared_mem_bytes: 0,
                threads_per_block: 256,
                warps_per_block: 8,
                registers_per_thread: 16,
                block_costs: vec![
                    BlockCost { issue_cycles: cycles, mem_latency_cycles: 0.0, mem_bytes: 0 };
                    blocks
                ],
                counters: KernelCounters::default(),
                wait_events: vec![],
                record_events: vec![],
            })
            .collect();
        let spec = DeviceSpec::gtx470();
        let cm = CostModel::default();
        let serial = facedet::gpu::sched::simulate(&spec, &cm, ExecMode::Serial, &launches);
        let conc = facedet::gpu::sched::simulate(&spec, &cm, ExecMode::Concurrent, &launches);
        prop_assert_eq!(serial.events.len(), launches.len());
        // Allow contention-model slack: frozen-at-placement contention can
        // overcharge a block co-resident with short-lived neighbours.
        prop_assert!(
            conc.span_us() <= serial.span_us() * 1.5 + 1.0,
            "concurrent {} vs serial {}",
            conc.span_us(),
            serial.span_us()
        );
        for t in [&serial, &conc] {
            for (i, a) in t.events.iter().enumerate() {
                prop_assert!(a.t_end_us >= a.t_start_us);
                for b in &t.events[i + 1..] {
                    if a.stream == b.stream {
                        prop_assert!(
                            b.t_start_us >= a.t_end_us - 1e-9,
                            "same-stream overlap: {:?} vs {:?}", a.launch_idx, b.launch_idx
                        );
                    }
                }
            }
        }
    }

    /// GPU memory: upload/download round-trips arbitrary data.
    #[test]
    fn device_memory_roundtrip(data in proptest::collection::vec(any::<u32>(), 0..512)) {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let buf = gpu.mem.upload(&data);
        prop_assert_eq!(gpu.mem.download(buf), data);
    }
}

/// The identity lattice's thread axis over every device configuration:
/// `detect` at 2 and 4 host threads, one batch of every frame and the
/// stream at 4, each against its one-thread cell.
fn thread_axis(seed: u64) {
    let mut hosts = lattice::cells(&[Front::Detect], &[2, 4], &[None]);
    hosts.extend(lattice::cells(&[Front::Batch, Front::Stream], &[4], &[None]));
    lattice::slice(seed, &lattice::devices(), &hosts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The parallel functional phase is bit-identical to the sequential
    /// one: detections, latency bits, timelines, profiler and stream
    /// statistics at 2 and 4 host threads are one thread's, for both
    /// backends at every execution mode and fusion setting.
    #[test]
    fn parallel_functional_phase_is_deterministic(seed in any::<u64>()) {
        thread_axis(seed);
    }
}

/// The thread axis notices a band that stops one column short of the
/// image's right edge. The switch is thread-local: the blocks the calling
/// thread runs are mutated, the pool workers' are not.
#[test]
#[should_panic(expected = "lattice cell")]
fn lattice_catches_a_band_edge_mutation() {
    facedet::gpu::with_band_mutation(facedet::gpu::BandMutation::BandEdge, || thread_axis(0));
}
