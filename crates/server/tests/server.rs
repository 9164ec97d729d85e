//! End-to-end tests over a real TCP socket: a full client session, the
//! shutdown drain, and admission control under overload.

mod common;

use common::*;
use geacc_server::server::MAX_LINE_BYTES;
use geacc_server::{protocol, ServerConfig};
use serde_json::Value;
use std::time::Duration;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        default_timeout_ms: 10_000,
        ..ServerConfig::default()
    }
}

#[test]
fn full_session_over_tcp() {
    let handle = ServerHandle::spawn(test_config());
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);

    let loaded = client.call(&load_line());
    assert_eq!(protocol::get_u64(&loaded, "id"), Some(1));
    assert_eq!(protocol::get_u64(ok_data(&loaded), "epoch"), Some(0));

    let mutated =
        client.call(r#"{"op": "mutate", "id": 2, "mutation": {"AddConflict": {"a": 1, "b": 2}}}"#);
    assert_eq!(protocol::get_u64(ok_data(&mutated), "epoch"), Some(1));

    // A second connection sees the same live state.
    let mut other = Client::connect(&addr);
    let stats = other.call(r#"{"op": "stats", "id": 3}"#);
    let arranger = protocol::get(ok_data(&stats), "arranger").unwrap();
    assert_eq!(protocol::get_u64(arranger, "epoch"), Some(1));

    // Malformed and unknown requests answer structured errors without
    // killing the connection.
    let bad = client.call("this is not json");
    assert_eq!(err_code(&bad), "bad_json");
    let unknown = client.call(r#"{"op": "florp", "id": 4}"#);
    assert_eq!(err_code(&unknown), "unknown_op");
    let still_alive = client.call(r#"{"op": "query_user", "id": 5, "user": 0}"#);
    assert!(protocol::get(ok_data(&still_alive), "events").is_some());

    let bye = client.call(r#"{"op": "shutdown", "id": 6}"#);
    assert_eq!(
        protocol::get(ok_data(&bye), "stopping"),
        Some(&Value::Bool(true))
    );
    let metrics = handle.join();
    assert_eq!(metrics.connections, 2);
    assert!(metrics.requests.get("mutate").copied() == Some(1));
    assert_eq!(metrics.mutations_applied, 1);
    assert!(metrics.latency_count >= 6);
}

#[test]
fn hostile_inline_load_is_a_bad_request() {
    let handle = ServerHandle::spawn(test_config());
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);

    // Attribute rows of length 1 under a declared 2^40 dimension: the
    // loader must reject the document before sizing a buffer from `dim`
    // (an allocation abort would take the whole daemon down).
    let hostile = load_line().replacen("\"dim\":1,", "\"dim\":1099511627776,", 1);
    assert_ne!(hostile, load_line(), "template lost its dim probe");
    let rejected = client.call(&hostile);
    assert_eq!(err_code(&rejected), "bad_request");

    let health = client.call(r#"{"op": "health", "id": 2}"#);
    assert_eq!(protocol::get_u64(&health, "id"), Some(2));
    ok_data(&health);

    client.call(r#"{"op": "shutdown"}"#);
    handle.join();
}

#[test]
fn oversized_line_is_refused_and_its_connection_closed() {
    let handle = ServerHandle::spawn(test_config());
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);
    ok_data(&client.call(r#"{"op": "health", "id": 1}"#));

    // One byte past the cap and no newline: the line can never fit.
    client.send_raw(&vec![b' '; MAX_LINE_BYTES + 1]);
    let refused = client.recv();
    assert_eq!(err_code(&refused), "bad_request");
    let message = protocol::get_str(err_body(&refused), "message").unwrap();
    assert!(
        message.contains(&MAX_LINE_BYTES.to_string()),
        "the error must name the cap: {message}"
    );
    assert!(client.closed(), "the connection must be closed");

    let mut other = Client::connect(&addr);
    ok_data(&other.call(r#"{"op": "health", "id": 2}"#));
    other.call(r#"{"op": "shutdown"}"#);
    let metrics = handle.join();
    assert_eq!(metrics.errors, 1);
}

#[test]
fn pipelined_requests_echo_ids() {
    let handle = ServerHandle::spawn(test_config());
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);
    ok_data(&client.call(&load_line()));

    // Fire a burst without reading, then collect. Responses may be
    // reordered by the worker pool; ids must let us match them up.
    let n = 10u64;
    for i in 0..n {
        client.send(&format!(
            r#"{{"op": "query_user", "id": {}, "user": {}}}"#,
            100 + i,
            i % 5
        ));
    }
    let mut seen: Vec<u64> = (0..n)
        .map(|_| {
            let response = client.recv();
            ok_data(&response);
            protocol::get_u64(&response, "id").expect("echoed id")
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (100..100 + n).collect::<Vec<_>>());

    client.call(r#"{"op": "shutdown"}"#);
    handle.join();
}

#[test]
fn overload_rejects_with_structured_errors() {
    // One worker stuck on a slow solve + a queue of depth 1 ⇒ further
    // requests must be rejected as `overloaded`, never queued unbounded.
    let handle = ServerHandle::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        default_timeout_ms: 10_000,
        ..ServerConfig::default()
    });
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);
    ok_data(&client.call(&pathological_load_line()));

    // Occupy the single worker: a hard exact solve that runs its full
    // 1s budget.
    client.send(r#"{"op": "solve", "id": 1, "algorithm": "prune", "timeout_ms": 1000}"#);
    std::thread::sleep(Duration::from_millis(100));

    // Saturate: pipeline a burst of mutates without reading. With the
    // worker busy, at most one request fits the depth-1 queue; the rest
    // bounce with a structured error the moment they arrive. (The burst
    // must be queue-class ops — the event loop answers reads like
    // `stats` inline no matter how wedged the workers are.)
    let mut flood = Client::connect(&addr);
    let n = 20;
    for i in 0..n {
        flood.send(&format!(
            r#"{{"op": "mutate", "id": {}, "mutation": {{"SetCapacity": {{"side": "User", "id": 3, "capacity": 2}}}}}}"#,
            1000 + i
        ));
    }
    let mut overloaded = 0;
    let mut admitted = 0;
    for _ in 0..n {
        let response = flood.recv();
        match protocol::get(&response, "ok") {
            Some(Value::Bool(true)) => admitted += 1,
            _ => {
                assert_eq!(err_code(&response), "overloaded");
                overloaded += 1;
            }
        }
    }
    assert!(overloaded > 0, "expected overload rejections");
    assert!(admitted < n, "queue must not absorb the whole burst");

    // The stuck solve still completes and the server still answers.
    ok_data(&client.recv());
    ok_data(&client.call(r#"{"op": "stats"}"#));
    client.call(r#"{"op": "shutdown"}"#);
    let metrics = handle.join();
    assert_eq!(metrics.rejected, overloaded);
    assert!(metrics.errors >= overloaded);
}

#[test]
fn snapshot_and_restore_across_server_instances() {
    let dir = std::env::temp_dir().join("geacc-server-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.json");
    let path_str = path.to_str().unwrap();

    let handle = ServerHandle::spawn(test_config());
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);
    ok_data(&client.call(&load_line()));
    ok_data(&client.call(
        r#"{"op": "mutate", "mutation": {"AddUser": {"attrs": [0.7, 0.4, 0.9], "capacity": 2}}}"#,
    ));
    ok_data(&client.call(r#"{"op": "mutate", "mutation": {"CloseEvent": {"event": 1}}}"#));
    let saved = client.call(&format!(r#"{{"op": "snapshot", "path": "{path_str}"}}"#));
    assert_eq!(protocol::get_u64(ok_data(&saved), "mutations"), Some(2));
    let before = client.call(r#"{"op": "query_event", "event": 0}"#);
    client.call(r#"{"op": "shutdown"}"#);
    handle.join();

    let handle = ServerHandle::spawn(test_config());
    let addr = handle.addr.clone();
    let mut client = Client::connect(&addr);
    let restored = client.call(&format!(r#"{{"op": "restore", "path": "{path_str}"}}"#));
    assert_eq!(protocol::get_u64(ok_data(&restored), "epoch"), Some(2));
    let after = client.call(r#"{"op": "query_event", "event": 0}"#);
    assert_eq!(ok_data(&before), ok_data(&after));
    client.call(r#"{"op": "shutdown"}"#);
    handle.join();
    std::fs::remove_file(&path).ok();
}
