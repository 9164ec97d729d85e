//! Read-view differential: random mutation streams, failing mutations
//! included, go through the request path the server runs for every
//! line — `protocol::parse_request`, then `Service::handle`, then the
//! reply envelope as wire text and back. After every step each
//! `query_event` reply and a sample of `query_user` replies must match
//! a reference built beside the service: an `IncrementalArranger`
//! replaying the same stream, plus a from-scratch `GraphFlats::build`
//! of its live instance. Similarities must match bit for bit,
//! attendees must come in ascending user id, and `count` must equal
//! the reference's attendee count.

mod common;

use common::service;
use geacc_core::parallel::Threads;
use geacc_core::{
    ConflictGraph, DynamicConfig, EventId, GraphFlats, IncrementalArranger, Instance, Mutation,
    Side, SimilarityModel, UserId,
};
use geacc_server::{protocol, Service};
use proptest::prelude::*;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Attribute dimensionality of every generated instance.
const DIM: usize = 3;

/// Deterministic attribute values in `[0, 1]`, in hundredths.
fn attrs(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (seed.wrapping_add(i as u64 * 7919) % 101) as f64 / 100.0)
        .collect()
}

/// A random Euclidean base instance, the similarity model the served
/// workloads use.
#[derive(Debug, Clone)]
struct BaseSpec {
    seed: u64,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    conflict_pairs: Vec<(usize, usize)>,
}

impl BaseSpec {
    fn build(&self) -> Instance {
        let mut builder = Instance::builder(DIM, SimilarityModel::Euclidean { t: 1.0 });
        for (v, &cap) in self.cap_v.iter().enumerate() {
            builder.event(&attrs(self.seed ^ (v as u64 * 31), DIM), cap);
        }
        for (u, &cap) in self.cap_u.iter().enumerate() {
            builder.user(&attrs(self.seed ^ (u as u64 * 131 + 7), DIM), cap);
        }
        let nv = self.cap_v.len();
        builder.conflicts(ConflictGraph::from_pairs(
            nv,
            self.conflict_pairs
                .iter()
                .map(|&(a, b)| (EventId((a % nv) as u32), EventId((b % nv) as u32))),
        ));
        builder.build().expect("spec shapes are consistent")
    }
}

fn base_spec() -> impl Strategy<Value = BaseSpec> {
    (1usize..=6, 1usize..=12).prop_flat_map(|(nv, nu)| {
        (
            0u64..u64::MAX,
            proptest::collection::vec(0u32..=4, nv),
            proptest::collection::vec(0u32..=3, nu),
            proptest::collection::vec((0..nv, 0..nv), 0..=nv),
        )
            .prop_map(|(seed, cap_v, cap_u, conflict_pairs)| BaseSpec {
                seed,
                cap_v,
                cap_u,
                conflict_pairs,
            })
    })
}

/// A raw step, turned into a mutation against the reference's current
/// dimensions. Ids range one or two past the instance, so some steps
/// fail as unknown ids; kinds 7 and 8 fail on a bad attribute vector.
#[derive(Debug, Clone, Copy)]
struct OpSpec {
    kind: u8,
    x: usize,
    y: usize,
    cap: u32,
    seed: u64,
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0u8..9, 0usize..1024, 0usize..1024, 0u32..4, 0u64..u64::MAX).prop_map(
        |(kind, x, y, cap, seed)| OpSpec {
            kind,
            x,
            y,
            cap,
            seed,
        },
    )
}

fn materialize(op: OpSpec, inst: &Instance) -> Mutation {
    let (nv, nu) = (inst.num_events(), inst.num_users());
    match op.kind {
        0 | 1 => Mutation::AddUser {
            attrs: attrs(op.seed, DIM),
            capacity: op.cap,
        },
        2 => Mutation::AddEvent {
            attrs: attrs(op.seed, DIM),
            capacity: op.cap + 1,
            conflicts: (0..nv.min(16))
                .filter(|i| (op.seed >> i) & 1 == 1)
                .map(|i| EventId(i as u32))
                .collect(),
        },
        3 => Mutation::RemoveUser {
            user: UserId((op.x % (nu + 1)) as u32),
        },
        4 => Mutation::CloseEvent {
            event: EventId((op.x % (nv + 1)) as u32),
        },
        5 => Mutation::AddConflict {
            a: EventId((op.x % (nv + 1)) as u32),
            b: EventId((op.y % nv) as u32),
        },
        6 => {
            let (side, n) = if op.y % 2 == 0 {
                (Side::Event, nv)
            } else {
                (Side::User, nu)
            };
            Mutation::SetCapacity {
                side,
                id: (op.x % (n + 1)) as u32,
                capacity: op.cap,
            }
        }
        7 => Mutation::AddUser {
            attrs: attrs(op.seed, DIM + 1),
            capacity: op.cap,
        },
        _ => Mutation::AddEvent {
            attrs: vec![2.0; DIM],
            capacity: op.cap,
            conflicts: Vec::new(),
        },
    }
}

/// One request line through the server's per-line path, returned as
/// the client would read it: the envelope printed and parsed back.
fn reply(service: &Service, line: &str) -> Value {
    let (id, result) = match protocol::parse_request(line) {
        Ok(request) => (
            request.id,
            service.handle(&request, Instant::now() + Duration::from_secs(60)),
        ),
        Err(e) => (None, Err(e)),
    };
    let envelope = match result {
        Ok(data) => protocol::ok_envelope(id, data),
        Err(err) => protocol::err_envelope(id, &err),
    };
    serde_json::from_str(&serde_json::to_string(&envelope).unwrap()).unwrap()
}

fn succeeded(envelope: &Value) -> bool {
    protocol::get(envelope, "ok") == Some(&Value::Bool(true))
}

fn data(envelope: &Value) -> Result<&Value, TestCaseError> {
    prop_assert!(succeeded(envelope), "read failed: {envelope:?}");
    Ok(protocol::get(envelope, "data").unwrap())
}

/// `(id, similarity bits)` of each entry of a reply list.
fn entries(list: Option<&Value>, id_key: &str) -> Vec<(u64, u64)> {
    let Some(Value::Array(items)) = list else {
        return Vec::new();
    };
    items
        .iter()
        .map(|item| {
            let sim: f64 =
                serde_json::from_value(protocol::get(item, "similarity").unwrap().clone()).unwrap();
            (protocol::get_u64(item, id_key).unwrap(), sim.to_bits())
        })
        .collect()
}

/// Check every `query_event` and the sampled `query_user` replies
/// against the reference arranger and a scratch CSR of its instance.
fn check_reads(
    service: &Service,
    reference: &IncrementalArranger,
    probes: &[usize],
) -> Result<(), TestCaseError> {
    let inst = reference.instance();
    let arrangement = reference.arrangement();
    let flats = GraphFlats::build(inst, Threads::single());
    for v in inst.events() {
        let envelope = reply(
            service,
            &format!(r#"{{"op": "query_event", "event": {}}}"#, v.0),
        );
        let got = data(&envelope)?;
        let attendees = entries(protocol::get(got, "attendees"), "user");
        prop_assert!(
            attendees.windows(2).all(|w| w[0].0 < w[1].0),
            "{v} attendees not in ascending user id: {attendees:?}"
        );
        let expected: Vec<(u64, u64)> = inst
            .users()
            .filter(|&u| arrangement.contains(v, u))
            .map(|u| (u64::from(u.0), flats.similarity(v, u).to_bits()))
            .collect();
        prop_assert_eq!(
            &attendees,
            &expected,
            "query_event {}: served {:?}, reference {:?}",
            v,
            attendees,
            expected
        );
        prop_assert_eq!(
            protocol::get_u64(got, "count"),
            Some(expected.len() as u64),
            "query_event {} count",
            v
        );
        prop_assert_eq!(
            protocol::get_u64(got, "capacity"),
            Some(u64::from(inst.event_capacity(v)))
        );
    }
    // The newest user (where sign-ups land) and the sampled ones.
    let nu = inst.num_users();
    for u in probes.iter().map(|p| p % nu).chain([nu - 1]) {
        let u = UserId(u as u32);
        let envelope = reply(
            service,
            &format!(r#"{{"op": "query_user", "user": {}}}"#, u.0),
        );
        let got = data(&envelope)?;
        let expected: Vec<(u64, u64)> = arrangement
            .events_of(u)
            .iter()
            .map(|&v| (u64::from(v.0), flats.similarity(v, u).to_bits()))
            .collect();
        let events = entries(protocol::get(got, "events"), "event");
        prop_assert_eq!(
            &events,
            &expected,
            "query_user {}: served {:?}, reference {:?}",
            u,
            events,
            expected
        );
        prop_assert_eq!(
            protocol::get_u64(got, "capacity"),
            Some(u64::from(inst.user_capacity(u)))
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step of a random stream — every mutation kind, some
    /// of them failing — the served read view agrees with a replayed
    /// reference and a scratch CSR of its instance.
    #[test]
    fn served_reads_match_a_replayed_reference_after_every_step(
        spec in base_spec(),
        ops in proptest::collection::vec(op_spec(), 1..24),
        probes in proptest::collection::vec(0usize..1024, 3),
    ) {
        let base = spec.build();
        let instance = serde_json::to_string(&base).unwrap();
        let service = service();
        let loaded = reply(&service, &format!(r#"{{"op": "load", "instance": {instance}}}"#));
        prop_assert!(succeeded(&loaded), "load failed: {loaded:?}");
        let mut reference = IncrementalArranger::new(
            serde_json::from_str(&instance).unwrap(),
            DynamicConfig { rebuild_drift_ratio: 0.2 },
        );
        check_reads(&service, &reference, &probes)?;

        for &op in &ops {
            let mutation = materialize(op, reference.instance());
            let line = format!(
                r#"{{"op": "mutate", "mutation": {}}}"#,
                serde_json::to_string(&mutation).unwrap()
            );
            let served = reply(&service, &line);
            let applied = reference.apply(mutation.clone()).is_ok();
            prop_assert_eq!(succeeded(&served), applied, "{:?}: {:?}", mutation, served);
            check_reads(&service, &reference, &probes)?;
        }
    }
}
