//! Wire pin: a fixed op stream through the request path the server runs
//! for every line — `protocol::parse_request`, then `Service::handle`,
//! then the response envelope — on a service with a WAL. The FNV-1a
//! digests of the reply lines and of the WAL bytes are constants: a
//! change to the service that alters one reply byte or one logged byte
//! fails here. Recovery on the same directory must then reproduce the
//! final fingerprint the live service reported.

mod common;

use common::{service, tmp_dir};
use geacc_core::DynamicConfig;
use geacc_server::wal::FsyncPolicy;
use geacc_server::{protocol, recovery, Service};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Digest of every reply line of [`op_stream`], `elapsed_ms` removed.
const REPLY_DIGEST: u64 = 0x7ec6_caf5_afa6_bc29;
/// Digest of the WAL file the stream leaves behind.
const WAL_DIGEST: u64 = 0x5b99_668e_2d08_695f;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The op stream: an inline load, every mutation kind with and without
/// an idempotency key, a keyed retry, a stale seq, failing mutations,
/// point reads, budgeted solves of three algorithms, and a
/// snapshot/restore round trip. `{dir}` stands for the scratch dir.
fn op_stream() -> Vec<String> {
    let inst = serde_json::to_string(&geacc_core::toy::table1_instance()).unwrap();
    let mut lines = vec![format!(r#"{{"op": "load", "id": 1, "instance": {inst}}}"#)];
    lines.extend(
        [
            r#"{"op": "mutate", "id": 2, "mutation": {"AddConflict": {"a": 1, "b": 2}}}"#,
            r#"{"op": "mutate", "client_id": "c1", "seq": 1, "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}"#,
            r#"{"op": "mutate", "client_id": "c1", "seq": 1, "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}"#,
            r#"{"op": "mutate", "client_id": "c1", "seq": 0, "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}"#,
            r#"{"op": "mutate", "client_id": "c1", "seq": 2, "mutation": {"AddUser": {"attrs": [0.7, 0.4, 0.9], "capacity": 2}}}"#,
            r#"{"op": "mutate", "mutation": {"AddEvent": {"attrs": [0.5, 0.25, 0.75, 0.6, 0.3, 0.8], "capacity": 3, "conflicts": [0]}}}"#,
            r#"{"op": "mutate", "client_id": "c2", "seq": 5, "mutation": {"RemoveUser": {"user": 1}}}"#,
            r#"{"op": "mutate", "mutation": {"CloseEvent": {"event": 2}}}"#,
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "Event", "id": 0, "capacity": 1}}}"#,
            r#"{"op": "mutate", "mutation": {"CloseEvent": {"event": 99}}}"#,
            r#"{"op": "mutate", "client_id": "c2", "seq": 6, "mutation": {"RemoveUser": {"user": 42}}}"#,
            r#"{"op": "mutate", "client_id": "c2", "seq": 6, "mutation": {"RemoveUser": {"user": 42}}}"#,
            r#"{"op": "query_user", "id": 3, "user": 0}"#,
            r#"{"op": "query_user", "user": 5}"#,
            r#"{"op": "query_event", "event": 0}"#,
            r#"{"op": "query_event", "event": 3}"#,
            r#"{"op": "solve", "algorithm": "greedy", "max_nodes": 1000}"#,
            r#"{"op": "solve", "algorithm": "mincostflow", "max_nodes": 1000}"#,
            r#"{"op": "solve", "algorithm": "alns", "seed": 7, "max_nodes": 2000}"#,
            r#"{"op": "query_user", "user": 0}"#,
            r#"{"op": "snapshot", "path": "{dir}/manual.json"}"#,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 3}}}"#,
            r#"{"op": "restore", "path": "{dir}/manual.json"}"#,
            r#"{"op": "query_event", "event": 0}"#,
            r#"{"op": "promote"}"#,
            r#"{"op": "health"}"#,
            r#"{"op": "florp"}"#,
            r#"{"op": "mutate"}"#,
        ]
        .map(String::from),
    );
    lines
}

/// One request line through the server's per-line path; returns the
/// reply line with `elapsed_ms` (wall clock) cut out.
fn reply(service: &Service, line: &str) -> String {
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
    let mut text = serde_json::to_string(&envelope).unwrap();
    if let Some(at) = text.find("\"elapsed_ms\":") {
        let end = at + text[at..].find(',').unwrap() + 1;
        text.replace_range(at..end, "");
    }
    text
}

#[test]
fn op_stream_replies_and_wal_bytes_are_pinned() {
    let dir = tmp_dir("pin");
    let dir_text = dir.display().to_string();
    let service = service();
    let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
    let writer = recovery::open_writer(&dir, FsyncPolicy::Never, &rec).unwrap();
    service.install_recovered(rec, writer, dir.clone(), FsyncPolicy::Never, None);

    let mut replies = FNV_OFFSET;
    let mut last = String::new();
    for line in op_stream() {
        let line = line.replace("{dir}", &dir_text);
        last = reply(&service, &line).replace(&dir_text, "{dir}");
        fnv1a(&mut replies, last.as_bytes());
        fnv1a(&mut replies, b"\n");
    }
    assert!(last.starts_with(r#"{"ok":false"#), "{last}");

    let mut wal = FNV_OFFSET;
    fnv1a(&mut wal, &std::fs::read(recovery::wal_path(&dir)).unwrap());
    assert_eq!(
        (format!("{replies:#018x}"), format!("{wal:#018x}")),
        (
            format!("{REPLY_DIGEST:#018x}"),
            format!("{WAL_DIGEST:#018x}")
        ),
        "(reply digest, WAL digest) moved"
    );

    let health = reply(&service, r#"{"op": "health"}"#);
    let health: Value = serde_json::from_str(&health).unwrap();
    let live = protocol::get(&health, "data").unwrap();
    drop(service);
    let recovered = recovery::recover(&dir, DynamicConfig::default())
        .unwrap()
        .session
        .expect("the stream loaded a session");
    assert_eq!(
        protocol::get_u64(live, "fingerprint"),
        Some(recovered.arranger.fingerprint())
    );
    assert_eq!(
        protocol::get_u64(live, "epoch"),
        Some(recovered.arranger.epoch())
    );
    std::fs::remove_dir_all(&dir).ok();
}
