//! JSON (de)serialization round-trips for instances, arrangements, and
//! generator configurations — the interchange surface a deployment would
//! use between its arrangement service and the rest of the platform.

use geacc::algorithms::greedy;
use geacc::datagen::{City, MeetupConfig, SyntheticConfig};
use geacc::{Arrangement, ConflictGraph, EventId, Instance, SimMatrix, SimilarityModel};
use proptest::prelude::*;
use serde_json::Value;

#[test]
fn toy_instance_roundtrips() {
    let inst = geacc::toy::table1_instance();
    let json = serde_json::to_string_pretty(&inst).unwrap();
    let back: Instance = serde_json::from_str(&json).unwrap();
    assert_eq!(inst, back);
    // And the deserialized instance solves identically.
    assert_eq!(greedy(&inst), greedy(&back));
}

#[test]
fn synthetic_instance_roundtrips() {
    let inst = SyntheticConfig {
        num_events: 8,
        num_users: 25,
        dim: 4,
        ..SyntheticConfig::default()
    }
    .generate();
    let json = serde_json::to_string(&inst).unwrap();
    let back: Instance = serde_json::from_str(&json).unwrap();
    assert_eq!(inst, back);
}

#[test]
fn meetup_instance_roundtrips() {
    let inst = MeetupConfig::new(City::Auckland).generate();
    let json = serde_json::to_string(&inst).unwrap();
    let back: Instance = serde_json::from_str(&json).unwrap();
    assert_eq!(inst, back);
}

#[test]
fn arrangement_roundtrips_and_revalidates() {
    let inst = geacc::toy::table1_instance();
    let arr = greedy(&inst);
    let json = serde_json::to_string(&arr).unwrap();
    let back: Arrangement = serde_json::from_str(&json).unwrap();
    assert_eq!(arr, back);
    assert!(back.validate(&inst).is_empty());
    assert_eq!(back.max_sum(), arr.max_sum());
}

#[test]
fn configs_roundtrip() {
    let s = SyntheticConfig::default();
    let back: SyntheticConfig = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
    assert_eq!(s, back);

    let m = MeetupConfig::new(City::Singapore);
    let back: MeetupConfig = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(m, back);
}

#[test]
fn malformed_instances_are_rejected_not_panicked() {
    // Matrix shape mismatch.
    let json = serde_json::json!({
        "dim": 1,
        "model": {"Matrix": {"num_events": 2, "num_users": 2,
                              "values": [0.1, 0.2, 0.3, 0.4]}},
        "event_attrs": [[0.0]],
        "user_attrs": [[0.0], [0.0]],
        "event_caps": [1],
        "user_caps": [1, 1],
        "conflicts": {"num_events": 1, "pairs": []}
    });
    assert!(serde_json::from_value::<Instance>(json).is_err());

    // Conflict pair out of range.
    let json = serde_json::json!({
        "num_events": 2,
        "pairs": [[0, 9]]
    });
    assert!(serde_json::from_value::<ConflictGraph>(json).is_err());
}

#[test]
fn from_matrix_instances_serialize_with_their_matrix() {
    let inst = Instance::from_matrix(
        SimMatrix::from_rows(&[vec![0.5, 0.25]]),
        vec![2],
        vec![1, 1],
        ConflictGraph::empty(1),
    )
    .unwrap();
    let back: Instance = serde_json::from_str(&serde_json::to_string(&inst).unwrap()).unwrap();
    assert_eq!(back.similarity(EventId(0), geacc::UserId(1)), 0.25);
    assert_eq!(inst, back);
}

// ---------------------------------------------------------------------
// Nested float arrays: the parser packs equal-width float rows, and
// every reader must see exactly what the element-by-element path sees.
// ---------------------------------------------------------------------

/// A JSON array tree: float and integer leaves.
#[derive(Debug, Clone)]
enum Node {
    Float(f64),
    Int(u64),
    Array(Vec<Node>),
}

impl Node {
    /// Compact JSON, floats shortest-roundtrip as the printer writes them.
    fn text(&self) -> String {
        match self {
            Node::Float(x) => serde_json::to_string(x).unwrap(),
            Node::Int(n) => n.to_string(),
            Node::Array(items) => {
                let items: Vec<String> = items.iter().map(Node::text).collect();
                format!("[{}]", items.join(","))
            }
        }
    }

    /// The same tree as a `Value`, built element by element, never parsed.
    fn value(&self) -> Value {
        match self {
            Node::Float(x) => serde_json::to_value(x).unwrap(),
            Node::Int(n) => serde_json::to_value(n).unwrap(),
            Node::Array(items) => Value::Array(items.iter().map(Node::value).collect()),
        }
    }
}

/// Finite floats, with the awkward ones (signed zero, subnormals, huge
/// and integral values) well represented.
fn finite_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }),
        -1e3..1e3f64,
        (0u32..1000).prop_map(f64::from),
        Just(-0.0),
        Just(0.0),
    ]
}

/// The shapes a nested float array can take.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every row the same width (packs into rows).
    Equal,
    /// One row one float longer than the rest.
    Ragged,
    /// One empty row among them (alone, `[[]]`).
    EmptyRow,
    /// An integer literal inside one row.
    IntInRow,
    /// The rows split into two groups: three levels deep.
    Depth3,
}

fn nested_floats() -> impl Strategy<Value = (Shape, Node)> {
    const SHAPES: [Shape; 5] = [
        Shape::Equal,
        Shape::Ragged,
        Shape::EmptyRow,
        Shape::IntInRow,
        Shape::Depth3,
    ];
    (0..SHAPES.len(), 1usize..5, 0usize..6)
        .prop_flat_map(|(shape, width, rows)| {
            (
                Just(SHAPES[shape]),
                proptest::collection::vec(proptest::collection::vec(finite_float(), width), rows),
                0usize..64,
                0u64..1000,
            )
        })
        .prop_map(|(shape, mut rows, pick, int)| {
            let node = |row: &Vec<f64>| Node::Array(row.iter().map(|&x| Node::Float(x)).collect());
            let mut nodes: Vec<Node> = rows.iter().map(node).collect();
            match shape {
                Shape::Equal => {}
                Shape::Ragged if !rows.is_empty() => {
                    let i = pick % rows.len();
                    rows[i].push(0.25);
                    nodes[i] = node(&rows[i]);
                }
                Shape::EmptyRow => nodes.insert(pick % (nodes.len() + 1), Node::Array(Vec::new())),
                Shape::IntInRow if !rows.is_empty() => {
                    let i = pick % rows.len();
                    if let Node::Array(items) = &mut nodes[i] {
                        let j = pick % items.len();
                        items[j] = Node::Int(int);
                    }
                }
                Shape::Depth3 => {
                    let tail = nodes.split_off(pick % (nodes.len() + 1));
                    nodes = vec![Node::Array(nodes), Node::Array(tail)];
                }
                Shape::Ragged | Shape::IntInRow => {}
            }
            (shape, Node::Array(nodes))
        })
}

fn bits2(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Attribute values in the Euclidean model's `[0, 10]` cube.
fn attribute() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..=10.0f64,
        Just(-0.0),
        Just(10.0),
        Just(f64::MIN_POSITIVE)
    ]
}

/// An attribute-based instance with arbitrary in-range attributes.
fn attribute_instance() -> impl Strategy<Value = Instance> {
    (1usize..5, 1usize..5, 1usize..12)
        .prop_flat_map(|(dim, nv, nu)| {
            (
                Just(dim),
                proptest::collection::vec(proptest::collection::vec(attribute(), dim), nv),
                proptest::collection::vec(proptest::collection::vec(attribute(), dim), nu),
                proptest::collection::vec(0u32..4, nv + nu),
            )
        })
        .prop_map(|(dim, events, users, caps)| {
            let mut b = Instance::builder(dim, SimilarityModel::Euclidean { t: 10.0 });
            for (v, attrs) in events.iter().enumerate() {
                b.event(attrs, caps[v]);
            }
            for (u, attrs) in users.iter().enumerate() {
                b.user(attrs, caps[events.len() + u]);
            }
            b.build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nested_float_arrays_read_alike_packed_or_not((shape, node) in nested_floats()) {
        let text = node.text();
        let unpacked = node.value();
        // Print -> parse -> print is byte for byte, compact and pretty,
        // and the parsed tree prints as the element-by-element one does.
        let parsed: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&parsed).unwrap(), text.clone());
        prop_assert_eq!(serde_json::to_string(&unpacked).unwrap(), text.clone());
        let pretty = serde_json::to_string_pretty(&unpacked).unwrap();
        let reparsed: Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(serde_json::to_string_pretty(&reparsed).unwrap(), pretty);
        // Typed reads: `from_str` (packed where the rows pack) and
        // `from_value` (always element by element) agree to the bit.
        match shape {
            Shape::Depth3 => {
                let packed: Vec<Vec<Vec<f64>>> = serde_json::from_str(&text).unwrap();
                let plain: Vec<Vec<Vec<f64>>> = serde_json::from_value(unpacked).unwrap();
                let bits3 = |v: &[Vec<Vec<f64>>]| v.iter().map(|rows| bits2(rows)).collect::<Vec<_>>();
                prop_assert_eq!(bits3(&packed), bits3(&plain));
            }
            _ => {
                let packed: Vec<Vec<f64>> = serde_json::from_str(&text).unwrap();
                let plain: Vec<Vec<f64>> = serde_json::from_value(unpacked).unwrap();
                prop_assert_eq!(bits2(&packed), bits2(&plain));
                // Integers read as floats but are not floats: a `u32`
                // reader fails alike on both paths.
                let packed = serde_json::from_str::<Vec<Vec<u32>>>(&text).map_err(|e| e.to_string());
                let plain = serde_json::from_value::<Vec<Vec<u32>>>(node.value()).map_err(|e| e.to_string());
                prop_assert_eq!(packed, plain);
            }
        }
    }

    #[test]
    fn instances_read_alike_packed_or_not(inst in attribute_instance()) {
        let text = serde_json::to_string(&inst).unwrap();
        let packed: Instance = serde_json::from_str(&text).unwrap();
        let plain: Instance = serde_json::from_value(serde_json::to_value(&inst).unwrap()).unwrap();
        prop_assert_eq!(&packed, &inst);
        prop_assert_eq!(&plain, &inst);
        // Finite floats print shortest-roundtrip: equal text, equal bits.
        prop_assert_eq!(serde_json::to_string(&packed).unwrap(), text.clone());
        prop_assert_eq!(serde_json::to_string(&plain).unwrap(), text.clone());
        let pretty = serde_json::to_string_pretty(&inst).unwrap();
        let back: Instance = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(serde_json::to_string_pretty(&back).unwrap(), pretty);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
