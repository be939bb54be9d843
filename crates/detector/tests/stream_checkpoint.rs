//! Checkpoint/resume integration tests for [`VideoDetector`].
//!
//! The contract under test: killing a stream at an arbitrary frame,
//! serializing its [`StreamCheckpoint`] to text, and resuming in a fresh
//! detector (with a fresh decoder sought to the checkpoint's frame count)
//! yields [`fd_detector::StreamStats`] — and a final checkpoint —
//! **bit-identical** to the uninterrupted run. Holds under zero-rate and
//! nonzero-rate fault plans (device and decode), at any kill frame, and
//! at any host thread count. The text parser takes outside input, so it
//! also gets the mutation treatment of `crates/haar/tests/corrupt_assets.rs`,
//! and so does the cascade format, which parses through the same reader.

use fd_detector::{DetectorConfig, StreamCheckpoint, VideoDetector};
use fd_gpu::FaultPlan;
use fd_haar::{io, Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_video::{DecodeFaultPlan, HwDecoder, Trailer, TrailerSpec};
use proptest::prelude::*;

const N_FRAMES: usize = 14;

fn cascade() -> Cascade {
    let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut c = Cascade::new("t", 24);
    for _ in 0..3 {
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
    }
    c
}

fn decoder(seed: u64, faulty: bool) -> HwDecoder {
    let mut d = HwDecoder::new(Trailer::generate(TrailerSpec {
        width: 160,
        height: 120,
        n_frames: N_FRAMES,
        seed: 21,
        face_size: (26.0, 60.0),
        ..TrailerSpec::default()
    }));
    if faulty {
        d.set_fault_plan(Some(
            DecodeFaultPlan::seeded(seed).with_corrupt_frames(0.1).with_dropped_frames(0.05),
        ));
    }
    d
}

fn device_plan(seed: u64, faulty: bool) -> FaultPlan {
    let plan = FaultPlan::seeded(seed);
    if faulty {
        // Transients exercise the retry path (and its fault-cursor
        // advance); timeouts exercise skip accounting.
        plan.with_transient_launch_failures(0.004).with_launch_timeouts(0.002)
    } else {
        plan // zero-rate: attached but inert
    }
}

fn det_config(seed: u64, faulty: bool, host_threads: Option<usize>) -> DetectorConfig {
    DetectorConfig {
        min_neighbors: 1,
        fault_plan: Some(device_plan(seed, faulty)),
        host_threads,
        ..DetectorConfig::default()
    }
}

fn start(seed: u64, faulty: bool, host_threads: Option<usize>) -> VideoDetector {
    VideoDetector::new(&cascade(), det_config(seed, faulty, host_threads), 24.0).expect("detector")
}

/// Feed frames up to (not including) stream position `to`.
fn feed(vd: &mut VideoDetector, dec: &mut HwDecoder, to: usize) {
    while dec.stream_position() < to {
        vd.process_decoded(&dec.next().expect("frame in range"));
    }
}

/// Run to `N_FRAMES` uninterrupted; checkpoint at the end.
fn uninterrupted(seed: u64, faulty: bool, host_threads: Option<usize>) -> StreamCheckpoint {
    let mut vd = start(seed, faulty, host_threads);
    feed(&mut vd, &mut decoder(seed, faulty), N_FRAMES);
    vd.checkpoint()
}

/// Kill at `kill`, round-trip the checkpoint through text, resume in a
/// fresh detector with a fresh decoder sought to the frame count, finish.
fn killed_and_resumed(
    seed: u64,
    faulty: bool,
    kill: usize,
    host_threads: Option<usize>,
) -> StreamCheckpoint {
    let mut vd = start(seed, faulty, host_threads);
    feed(&mut vd, &mut decoder(seed, faulty), kill);
    let ckpt = vd.checkpoint();
    let text = ckpt.to_text();
    drop(vd); // the kill: all in-memory state is gone

    let restored = StreamCheckpoint::from_text(&text).expect("checkpoint parses");
    assert_eq!(restored, ckpt, "text round-trip is bit-exact");
    let mut vd2 =
        VideoDetector::resume(&restored, &cascade(), det_config(seed, faulty, host_threads), 24.0)
            .expect("resume");
    let mut dec2 = decoder(seed, faulty);
    dec2.seek(restored.snapshot.stats.frames);
    assert_eq!(dec2.stream_position(), kill, "every fed frame was accounted");
    feed(&mut vd2, &mut dec2, N_FRAMES);
    vd2.checkpoint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kill_and_resume_matches_uninterrupted_run(
        kill in 0usize..=N_FRAMES,
        seed in 0u64..1 << 20,
        faulty in any::<bool>(),
    ) {
        let full = uninterrupted(seed, faulty, None);
        let resumed = killed_and_resumed(seed, faulty, kill, None);
        prop_assert_eq!(&resumed, &full);
        prop_assert_eq!(resumed.snapshot.stats.frames, N_FRAMES);
        prop_assert!(resumed.snapshot.stats.all_frames_accounted());
    }
}

#[test]
fn every_kill_frame_resumes_bit_identically_at_1_and_4_host_threads() {
    // With faults on, the draw sequence must continue where it stopped:
    // a resumed run that restarted the sequence from zero would replay
    // the early faults and diverge. Kill 0 resumes a stream that never
    // ran, kill N one that had already finished.
    let seed = 7;
    for faulty in [false, true] {
        let full = uninterrupted(seed, faulty, Some(1));
        assert_eq!(uninterrupted(seed, faulty, Some(4)), full, "faulty={faulty}: threads");
        for threads in [1, 4] {
            for kill in 0..=N_FRAMES {
                assert_eq!(
                    killed_and_resumed(seed, faulty, kill, Some(threads)),
                    full,
                    "faulty={faulty}, kill at {kill}, {threads} host threads"
                );
            }
        }
        assert!(
            full.fault_cursor.launch_attempts > 0,
            "the run must actually draw launch verdicts"
        );
        if faulty {
            let s = &full.snapshot.stats;
            assert!(s.retries + s.skipped_frames + s.degraded_frames > 0, "faults must fire");
        }
    }
}

/// Newline-terminated lines of single-spaced tokens: the spelling
/// `to_text` writes, which is what an accepted text must already be.
fn canonical(text: &str) -> String {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|l| !l.is_empty())
        .map(|l| l + "\n")
        .collect()
}

/// Every cut of `text` (at each line and token boundary, and inside
/// every token), and every token in turn dropped, duplicated and garbled
/// four ways.
fn mutants(text: &str) -> Vec<String> {
    let mut mutants: Vec<String> = (0..text.len()).map(|at| text[..at].to_string()).collect();
    let lines: Vec<Vec<&str>> = text.lines().map(|l| l.split(' ').collect()).collect();
    for (li, toks) in lines.iter().enumerate() {
        for (ti, &tok) in toks.iter().enumerate() {
            let garbled: [Vec<&str>; 6] = [
                vec![],
                vec![tok, tok],
                vec!["zz"],
                vec!["-1"],
                vec!["99999999999999999999999"],
                vec![&tok[1..]],
            ];
            for replacement in garbled {
                let mut out = String::new();
                for (lj, l) in lines.iter().enumerate() {
                    let mut l = l.clone();
                    if lj == li {
                        l.splice(ti..=ti, replacement.iter().copied());
                    }
                    out.push_str(&l.join(" "));
                    out.push('\n');
                }
                mutants.push(out);
            }
        }
    }
    mutants
}

#[test]
fn parser_survives_every_cut_and_token_mutation() {
    // A checkpoint taken mid-stream under faults.
    let mut vd = start(7, true, None);
    feed(&mut vd, &mut decoder(7, true), N_FRAMES / 2);
    let ckpt = vd.checkpoint();
    let text = ckpt.to_text();
    assert_eq!(StreamCheckpoint::from_text(&text).as_ref(), Ok(&ckpt));

    let mutants = mutants(&text);
    let mut accepted = 0;
    for m in &mutants {
        match StreamCheckpoint::from_text(m) {
            Ok(parsed) => {
                assert_eq!(parsed.to_text(), canonical(m), "accepted text must re-serialise");
                accepted += 1;
            }
            Err(e) => assert!(e.line > 0 && e.line <= m.lines().count() + 1, "{e} in {m:?}"),
        }
    }
    assert!(accepted > 0, "some mutants are still checkpoints (a shorter number, a cut newline)");
    assert!(accepted < mutants.len() / 10, "{accepted} of {} accepted", mutants.len());
}

/// The cascade format reads through the same line reader and gets the
/// same sweep: a mutant is rejected at a line of the text (one past the
/// last when it ends early, 0 when only validation fails), or it is a
/// cascade that round-trips through the writer.
#[test]
fn cascade_parser_survives_every_cut_and_token_mutation() {
    let g = HaarFeature::from_params(FeatureKind::CenterSurround, 3, 3, 4, 4);
    let mut c = cascade();
    c.stages[1].stumps.push(Stump { feature: g, threshold: -42, left: 0.25, right: -0.75 });
    let text = io::to_text(&c);
    assert_eq!(io::from_text(&text).as_ref(), Ok(&c));

    let mutants = mutants(&text);
    let mut accepted = 0;
    for m in &mutants {
        match io::from_text(m) {
            Ok(parsed) => {
                assert_eq!(io::from_text(&io::to_text(&parsed)).as_ref(), Ok(&parsed), "{m:?}");
                accepted += 1;
            }
            Err(e) if e.line == 0 => assert!(e.message.starts_with("cascade validation"), "{e}"),
            Err(e) => assert!(e.line <= m.lines().count() + 1, "{e} in {m:?}"),
        }
    }
    assert!(accepted > 0, "some mutants are still cascades (a shorter number, a cut newline)");
    assert!(accepted < mutants.len() / 10, "{accepted} of {} accepted", mutants.len());
}
