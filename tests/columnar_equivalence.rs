//! Property tests pinning the columnar hot path to the row-major
//! reference: for arbitrary cached results (including NaN coordinates
//! and non-numeric cells) and arbitrary regions (rect / sphere /
//! polytope), columnar selection must produce the identical row set in
//! the identical order, and the zero-copy byte assembly must reproduce
//! the tree serializer byte for byte.

use fp_suite::geometry::{HalfSpace, HyperRect, HyperSphere, Point, Polytope, Region};
use fp_suite::proxy::query::{eval_entry_region, eval_region_over, EvalScratch};
use fp_suite::skyserver::{ColumnarRows, ResultSet};
use fp_suite::sqlmini::Value;
use proptest::prelude::*;

/// Coordinate cells: mostly finite floats in the interesting window,
/// some integers, some NaN (numeric, never selected), and — rarely —
/// a non-numeric cell that must poison both evaluation paths alike.
fn arb_coord() -> impl Strategy<Value = Value> {
    prop_oneof![
        8 => (-2.0f64..2.0).prop_map(Value::Float),
        2 => (-2i64..2).prop_map(Value::Int),
        1 => Just(Value::Float(f64::NAN)),
        1 => Just(Value::Str("not-a-number".to_string())),
    ]
}

/// Payload cells exercise every case the row writer branches on:
/// integers up to the `i64` extremes; floats of every magnitude,
/// including signed zero, both sides of the `{:.1}`/shortest-form
/// boundary at 1e15, infinities, NaN and a subnormal; booleans;
/// strings that need XML escaping, non-ASCII and empty strings; nulls.
fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        (-1.0f64..1.0).prop_map(Value::Float),
        any::<f64>().prop_map(Value::Float),
        Just(Value::Float(-0.0)),
        Just(Value::Float(1e15 - 1.0)),
        Just(Value::Float(1e15)),
        Just(Value::Float(-1e15)),
        Just(Value::Float(1e16)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::MIN_POSITIVE / 4.0)),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Str("a<b&\"c\">'d'".to_string())),
        Just(Value::Str("ω café ☃ 中".to_string())),
        prop::collection::vec(any::<char>(), 0..8)
            .prop_map(|cs| Value::Str(cs.into_iter().collect())),
        Just(Value::Str(String::new())),
        Just(Value::Null),
    ]
}

fn arb_result() -> impl Strategy<Value = ResultSet> {
    prop::collection::vec((arb_coord(), arb_coord(), arb_payload()), 0..80).prop_map(|cells| {
        ResultSet {
            columns: vec!["objID".into(), "x".into(), "y".into(), "tag".into()],
            rows: cells
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, tag))| vec![Value::Int(i as i64), x, y, tag])
                .collect(),
        }
    })
}

fn arb_region() -> impl Strategy<Value = Region> {
    prop_oneof![
        // Axis-aligned rectangles.
        (-2.0f64..1.0, -2.0f64..1.0, 0.1f64..2.5, 0.1f64..2.5).prop_map(|(x, y, w, h)| {
            Region::Rect(HyperRect::new(vec![x, y], vec![x + w, y + h]).unwrap())
        }),
        // Balls.
        (-1.5f64..1.5, -1.5f64..1.5, 0.1f64..2.0).prop_map(|(x, y, r)| {
            Region::Sphere(HyperSphere::new(Point::from_slice(&[x, y]), r).unwrap())
        }),
        // Diamonds |p - c|_1 <= r as four half-spaces plus their bbox.
        (-1.5f64..1.5, -1.5f64..1.5, 0.1f64..2.0).prop_map(|(x, y, r)| {
            let faces = vec![
                HalfSpace::new(vec![1.0, 1.0], x + y + r).unwrap(),
                HalfSpace::new(vec![1.0, -1.0], x - y + r).unwrap(),
                HalfSpace::new(vec![-1.0, 1.0], y - x + r).unwrap(),
                HalfSpace::new(vec![-1.0, -1.0], -x - y + r).unwrap(),
            ];
            let bbox = HyperRect::new(vec![x - r, y - r], vec![x + r, y + r]).unwrap();
            Region::Polytope(Polytope::new(faces, bbox).unwrap())
        }),
    ]
}

const COORD_IDX: [usize; 2] = [1, 2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Columnar selection ≡ row-major `eval_region_over`: same rows,
    /// same order — and the build rejects exactly the results the
    /// row-major path rejects (some non-numeric coordinate cell).
    #[test]
    fn columnar_selection_matches_row_major(rs in arb_result(), region in arb_region()) {
        let columnar = ColumnarRows::build(&rs, &COORD_IDX);
        let reference = eval_region_over(&rs, &COORD_IDX, &region);
        prop_assert_eq!(
            columnar.is_some(),
            reference.is_some(),
            "build and row-major eval must agree on malformed results"
        );
        let (Some(columnar), Some(reference)) = (columnar, reference) else { return Ok(()) };

        let mut scratch = EvalScratch::default();
        let fast = eval_entry_region(&rs, Some(&columnar), &COORD_IDX, &region, &mut scratch)
            .expect("numeric coordinates evaluate");
        prop_assert!(fast.columnar, "matching coordinate sets must take the fast path");
        prop_assert_eq!(&fast.result, &reference);
        prop_assert_eq!(fast.stats.rows_selected, reference.len());
        prop_assert!(fast.stats.rows_scanned <= rs.len(), "pruning never scans more than all rows");
        prop_assert!(fast.stats.rows_scanned >= fast.stats.rows_selected);
    }

    /// The pre-serialized slab assembles the same bytes the `Element`
    /// tree serializer produces, for any selected subset; the direct
    /// writer and the charged size agree with it too.
    #[test]
    fn assembled_bytes_match_tree_serializer(rs in arb_result(), region in arb_region()) {
        let tree = rs.to_xml().to_xml().into_bytes();
        prop_assert_eq!(rs.to_xml_string().into_bytes(), tree.clone());
        prop_assert_eq!(rs.xml_bytes(), tree.len());
        let Some(columnar) = ColumnarRows::build(&rs, &COORD_IDX) else { return Ok(()) };
        let mut selected = Vec::new();
        let mut point = Vec::new();
        columnar.select_region(&region, &mut selected, &mut point);
        let subset = columnar.materialize(&rs, &selected);
        prop_assert_eq!(
            columnar.assemble_document(&selected),
            subset.to_xml().to_xml().into_bytes(),
            "span assembly must be byte-identical to serialization"
        );
        // The full document too (the exact-hit and miss serving path),
        // and the size read off the form (the charged size).
        prop_assert_eq!(columnar.document_len(), tree.len());
        prop_assert_eq!(columnar.full_document(), tree);
    }

    /// NaN coordinates are numeric (no fallback) but never selected.
    #[test]
    fn nan_rows_are_never_selected(region in arb_region()) {
        let rs = ResultSet {
            columns: vec!["objID".into(), "x".into(), "y".into(), "tag".into()],
            rows: vec![
                vec![Value::Int(0), Value::Float(f64::NAN), Value::Float(0.0), Value::Null],
                vec![Value::Int(1), Value::Float(0.0), Value::Float(f64::NAN), Value::Null],
            ],
        };
        let columnar = ColumnarRows::build(&rs, &COORD_IDX).expect("NaN is numeric");
        let mut scratch = EvalScratch::default();
        let fast = eval_entry_region(&rs, Some(&columnar), &COORD_IDX, &region, &mut scratch)
            .expect("NaN rows evaluate");
        prop_assert!(fast.result.is_empty());
        let reference = eval_region_over(&rs, &COORD_IDX, &region).expect("NaN rows evaluate");
        prop_assert!(reference.is_empty());
    }
}
