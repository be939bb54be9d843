//! Corrupt-asset matrix: every mutation of a real trained cascade file
//! must be rejected with a typed [`ParseError`] — never a panic, never a
//! silently-wrong cascade. The mutations cover the hardening checklist:
//! truncated files, out-of-window rectangles, non-finite thresholds and
//! stage-count mismatches, plus zero-area geometry and absurd encoded
//! values.

use std::path::PathBuf;

use fd_haar::cascade::CascadeError;
use fd_haar::io::{from_text, load};
use fd_haar::Cascade;

fn asset_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../assets").join(name)
}

fn asset_text() -> String {
    std::fs::read_to_string(asset_path("ours-gentle.cascade")).expect("trained asset present")
}

/// The pristine asset parses, validates and loads.
#[test]
fn the_trained_asset_is_clean() {
    let c = from_text(&asset_text()).expect("asset parses");
    assert_eq!(c.stages.len(), 25);
    c.validate().expect("asset validates");
    let via_load = load(asset_path("ours-gentle.cascade")).expect("load succeeds");
    assert_eq!(via_load, c);
}

#[test]
fn the_adaboost_asset_is_clean_too() {
    load(asset_path("opencv-like-ada.cascade")).expect("second asset loads");
}

/// Apply `mutate` to the asset text and assert typed rejection whose
/// message mentions `needle`.
fn assert_rejected(mutate: impl Fn(&str) -> String, needle: &str) {
    let text = mutate(&asset_text());
    let err = from_text(&text).expect_err("mutation must be rejected");
    assert!(err.message.contains(needle), "expected message containing `{needle}`, got: {err}");
}

#[test]
fn truncated_file_is_rejected() {
    // Cut mid-stage: the parser runs out of stump lines.
    for keep in [1, 3, 5, 100, 400] {
        let text: String = asset_text().lines().take(keep).collect::<Vec<_>>().join("\n");
        let err = from_text(&text).expect_err("truncation must be rejected");
        assert!(err.message.contains("unexpected end"), "keep {keep}: {err}");
    }
    // The empty file too.
    assert!(from_text("").is_err());
}

#[test]
fn out_of_window_rect_is_rejected() {
    // Shift a stump's x far outside the 24-px window. Kind 5 at x=6 with
    // w=3 spans 2w=6 wide; x=200 escapes (and must not overflow u8
    // rectangle math into a panic).
    assert_rejected(
        |t| t.replacen("stump 5 6 8 3 5", "stump 5 200 8 3 5", 1),
        "escapes the window",
    );
    // Cell size blown up so the extent overflows even from x=0.
    assert_rejected(
        |t| t.replacen("stump 5 6 8 3 5", "stump 5 0 0 200 200", 1),
        "escapes the window",
    );
}

#[test]
fn nan_and_inf_thresholds_are_rejected() {
    // Stage threshold NaN / inf.
    assert_rejected(
        |t| t.replacen("stage 0 -0.53580487 5", "stage 0 NaN 5", 1),
        "non-finite stage threshold",
    );
    assert_rejected(
        |t| t.replacen("stage 0 -0.53580487 5", "stage 0 inf 5", 1),
        "non-finite stage threshold",
    );
    // Leaf value NaN.
    assert_rejected(
        |t| t.replacen("0.7160332 -0.95791936", "NaN -0.95791936", 1),
        "non-finite leaf",
    );
}

#[test]
fn stage_count_mismatch_is_rejected() {
    // Header claims more stages than the file holds.
    assert_rejected(|t| t.replacen("stages 25", "stages 26", 1), "unexpected end");
    // Header claims fewer: the stages past the count are text after the
    // last field.
    assert_rejected(|t| t.replacen("stages 25", "stages 24", 1), "text after the last field");
    // Re-numbering an interior stage breaks the monotone stage-index
    // contract.
    assert_rejected(|t| t.replacen("stage 1 ", "stage 7 ", 1), "expected 1");
}

#[test]
fn zero_area_features_are_rejected() {
    assert_rejected(|t| t.replacen("stump 5 6 8 3 5", "stump 5 6 8 0 5", 1), "zero-area feature");
    assert_rejected(|t| t.replacen("stump 5 6 8 3 5", "stump 5 6 8 3 0", 1), "zero-area feature");
}

#[test]
fn absurd_values_fail_semantic_validation() {
    // A stump threshold outside the packed i16 encoding range.
    assert_rejected(
        |t| t.replacen("stump 5 6 8 3 5 -91", "stump 5 6 8 3 5 99999999", 1),
        "cascade validation",
    );
    // A leaf beyond the quantizer's representable magnitude.
    assert_rejected(
        |t| t.replacen("0.7160332 -0.95791936", "50000.0 -0.95791936", 1),
        "cascade validation",
    );
}

#[test]
fn bad_window_sizes_fail_validation() {
    // Features trained for 24 px escape a smaller window: the per-stump
    // extent check fires first and carries the offending line number.
    for shrunk in ["window 3", "window 9"] {
        let err = from_text(&asset_text().replacen("window 24", shrunk, 1)).unwrap_err();
        assert!(err.message.contains("escapes the window"), "{shrunk}: {err}");
        assert!(err.line > 0, "{shrunk}: {err}");
    }
}

/// `Cascade::validate` itself reports typed variants for
/// programmatically-built bad cascades (not just file parses).
#[test]
fn validate_reports_typed_variants() {
    let empty = Cascade::new("x", 24);
    assert!(matches!(empty.validate(), Err(CascadeError::EmptyCascade)));

    let mut bad_window = from_text(&asset_text()).unwrap();
    bad_window.window = 200;
    assert!(matches!(bad_window.validate(), Err(CascadeError::BadWindow { .. })));

    let mut nan_stage = from_text(&asset_text()).unwrap();
    nan_stage.stages[3].threshold = f32::NAN;
    assert!(matches!(
        nan_stage.validate(),
        Err(CascadeError::NonFiniteStageThreshold { stage: 3 })
    ));

    // A stage whose threshold no window can reach is dead weight: the
    // cascade would reject everything from that stage on.
    let mut unsat = from_text(&asset_text()).unwrap();
    unsat.stages[2].threshold = 1.0e6;
    assert!(matches!(unsat.validate(), Err(CascadeError::UnsatisfiableStage { stage: 2, .. })));
}

/// Mutations must never panic, even when they slip past one check and
/// hit another: sweep a matrix of single-token substitutions.
#[test]
fn mutation_matrix_never_panics() {
    let base = asset_text();
    let mutations: &[(&str, &str)] = &[
        ("cascade v1", "cascade v2"),
        ("window 24", "window 0"),
        ("window 24", "window 4294967295"),
        ("stages 25", "stages 0"),
        ("stages 25", "stages abc"),
        // A stump count sizes no allocation before its lines are read.
        ("stage 0 -0.53580487 5", "stage 0 -0.53580487 18446744073709551615"),
        ("stage 0 ", "stage 24 "),
        ("stump 5 6 8 3 5", "stump 99 6 8 3 5"),
        ("stump 5 6 8 3 5", "stump 5 255 255 255 255"),
        ("stump 5 6 8 3 5 -91", "stump 5 6 8 3 5 not-a-number"),
        ("0.7160332", "-inf"),
    ];
    for (from, to) in mutations {
        let text = base.replacen(from, to, 1);
        assert_ne!(&text, &base, "mutation `{from}` -> `{to}` must apply");
        // Typed error, not a panic; the clean prefix must not leak out.
        let r = from_text(&text);
        assert!(r.is_err(), "mutation `{from}` -> `{to}` must be rejected");
    }
}
