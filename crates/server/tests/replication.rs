//! End-to-end replication tests: live streaming into a read-only
//! follower, the deterministic crash-point sweep (cut the stream at
//! every record boundary, promote, check the promoted node serves the
//! exact acked prefix bit-identically), generation fencing of a stale
//! primary, `retry_after_ms` + the retrying client under overload, and
//! a property check that client-side retry storms never double-apply a
//! keyed mutation.

mod common;

use common::*;
use geacc_server::chaos::{ChaosPlan, ChaosProxy, LinePolicy};
use geacc_server::client::{ClientConfig, RetryClient};
use geacc_server::server::MAX_LINE_BYTES;
use geacc_server::{protocol, recovery, wal, ServerConfig};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Replica streams the primary's records live, matches its state
/// exactly, and refuses writes with a structured `read_only` error.
#[test]
fn replica_follows_live_and_rejects_writes() {
    let primary_dir = tmp_dir("live-primary");
    let replica_dir = tmp_dir("live-replica");
    let primary = ServerHandle::spawn(ServerConfig {
        accept_replicas: true,
        ..durable_config(&primary_dir)
    });
    let replica = ServerHandle::spawn(ServerConfig {
        replica_of: Some(primary.addr.clone()),
        ..durable_config(&replica_dir)
    });

    let mut on_primary = Client::connect(&primary.addr);
    ok_data(&on_primary.call(&load_line()));
    for mutation in mutation_bodies() {
        ok_data(&on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)));
    }
    let primary_health = health(&mut on_primary);
    let want = fingerprint(&primary_health);

    let mut on_replica = Client::connect(&replica.addr);
    wait_for("replica to converge", Duration::from_secs(10), || {
        let h = health(&mut on_replica);
        (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
    });

    let h = health(&mut on_replica);
    assert_eq!(protocol::get_str(&h, "status"), Some("replica"));
    assert_eq!(protocol::get_str(&h, "role"), Some("replica"));
    assert_eq!(protocol::get_u64(&h, "lag_records"), Some(0));
    assert_eq!(protocol::get_u64(&h, "lag_bytes"), Some(0));
    assert_eq!(
        protocol::get_u64(&h, "epoch"),
        protocol::get_u64(&primary_health, "epoch")
    );

    // Reads serve; writes refuse with a structured error.
    let query = on_replica.call(r#"{"op": "query_user", "user": 0}"#);
    assert!(protocol::get(ok_data(&query), "events").is_some());
    let denied = on_replica.call(
        r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 1, "capacity": 2}}}"#,
    );
    assert_eq!(
        protocol::get_str(err_body(&denied), "code"),
        Some("read_only")
    );

    // The stats section agrees with health on both roles.
    let stats = on_replica.call(r#"{"op": "stats"}"#);
    let replication = protocol::get(ok_data(&stats), "replication").unwrap();
    assert_eq!(protocol::get_str(replication, "role"), Some("replica"));
    assert_eq!(protocol::get_u64(replication, "lag_records"), Some(0));
    let stats = on_primary.call(r#"{"op": "stats"}"#);
    let replication = protocol::get(ok_data(&stats), "replication").unwrap();
    assert_eq!(protocol::get_str(replication, "role"), Some("primary"));
    assert_eq!(protocol::get_u64(replication, "replicas"), Some(1));

    replica.shutdown();
    primary.shutdown();
}

/// A replica that joins *after* the primary has state catches up via
/// the snapshot path, then streams the tail.
#[test]
fn late_replica_catches_up_via_snapshot() {
    let primary_dir = tmp_dir("snap-primary");
    let replica_dir = tmp_dir("snap-replica");
    let primary = ServerHandle::spawn(ServerConfig {
        accept_replicas: true,
        ..durable_config(&primary_dir)
    });
    let mut on_primary = Client::connect(&primary.addr);
    ok_data(&on_primary.call(&load_line()));
    for mutation in mutation_bodies() {
        ok_data(&on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)));
    }
    let want = fingerprint(&health(&mut on_primary));

    let replica = ServerHandle::spawn(ServerConfig {
        replica_of: Some(primary.addr.clone()),
        ..durable_config(&replica_dir)
    });
    let mut on_replica = Client::connect(&replica.addr);
    wait_for("snapshot catch-up", Duration::from_secs(10), || {
        let h = health(&mut on_replica);
        (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
    });

    // And it keeps following: one more mutation flows through.
    ok_data(&on_primary.call(
        r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 2, "capacity": 3}}}"#,
    ));
    let want = fingerprint(&health(&mut on_primary));
    wait_for("post-snapshot tail", Duration::from_secs(10), || {
        let h = health(&mut on_replica);
        (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
    });

    replica.shutdown();
    primary.shutdown();
}

/// The tentpole acceptance sweep: for every record boundary k, cut the
/// replication stream after exactly k shipped records (the chaos cut
/// budget is global, so reconnects cannot sneak past it), promote the
/// replica, and check the promoted node serves precisely the replay of
/// the first k acked records — with a WAL that is bit-identical to the
/// primary's first k-record prefix.
#[test]
fn crash_point_sweep_promotes_the_exact_acked_prefix() {
    let mutations = mutation_bodies();
    let total_records = 1 + mutations.len() as u64; // load + mutations

    for k in 1..=total_records {
        let primary_dir = tmp_dir(&format!("sweep-primary-{k}"));
        let replica_dir = tmp_dir(&format!("sweep-replica-{k}"));
        let primary = ServerHandle::spawn(ServerConfig {
            accept_replicas: true,
            ..durable_config(&primary_dir)
        });

        // The proxy sits on the replica→primary path and cuts the
        // primary→replica direction before the (k+1)th record line.
        let plan = ChaosPlan {
            seed: 0xC0FFEE ^ k,
            server_to_client: LinePolicy {
                cut_after_matching: Some((r#""repl":"record""#.to_string(), k)),
                ..LinePolicy::default()
            },
            ..ChaosPlan::default()
        };
        let proxy = ChaosProxy::spawn(primary.addr.parse().unwrap(), plan).unwrap();
        let replica = ServerHandle::spawn(ServerConfig {
            replica_of: Some(proxy.addr().to_string()),
            ..durable_config(&replica_dir)
        });

        // Wait until the replica is attached before writing, so its WAL
        // is a byte prefix of the primary's (no snapshot shortcut).
        let mut on_replica = Client::connect(&replica.addr);
        wait_for("replica attach", Duration::from_secs(10), || {
            let h = health(&mut on_replica);
            (protocol::get(&h, "connected") == Some(&Value::Bool(true))).then_some(())
        });

        let mut on_primary = Client::connect(&primary.addr);
        ok_data(&on_primary.call(&load_line()));
        for mutation in &mutations {
            ok_data(&on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)));
        }

        // Record boundaries come from the primary's own WAL.
        let primary_wal = std::fs::read(recovery::wal_path(&primary_dir)).unwrap();
        let scan = wal::scan(&primary_wal).unwrap();
        assert_eq!(scan.records.len() as u64, total_records);
        let boundary = if k == total_records {
            scan.valid_len
        } else {
            scan.records[k as usize].offset
        };

        wait_for(
            &format!("replica to stall at boundary {k}"),
            Duration::from_secs(10),
            || {
                let stats = on_replica.call(r#"{"op": "stats"}"#);
                let replication = protocol::get(ok_data(&stats), "replication")?.clone();
                (protocol::get_u64(&replication, "remote_offset") == Some(boundary)).then_some(())
            },
        );

        // Promote. The replica becomes a primary at a higher generation
        // and stops following.
        let promoted = ok_data(&on_replica.call(r#"{"op": "promote"}"#)).clone();
        assert_eq!(
            protocol::get(&promoted, "promoted"),
            Some(&Value::Bool(true))
        );
        assert!(protocol::get_u64(&promoted, "generation") >= Some(1));

        // The promoted node serves exactly the replay of the acked
        // k-record prefix.
        let prefix: Vec<_> = scan.records[..k as usize]
            .iter()
            .map(|r| r.record.clone())
            .collect();
        let expected = recovery::replay_prefix(&prefix, geacc_core::DynamicConfig::default())
            .expect("prefix starts with load");
        let h = health(&mut on_replica);
        assert_eq!(protocol::get_str(&h, "role"), Some("primary"));
        assert_eq!(
            protocol::get_u64(&h, "fingerprint"),
            Some(expected.arranger.fingerprint()),
            "promoted state diverged from replay of the first {k} records"
        );
        assert_eq!(
            protocol::get_u64(&h, "epoch"),
            Some(expected.arranger.epoch())
        );

        // Bit-identical WAL prefix: the replica's log is the primary's
        // first `boundary` bytes, verbatim.
        let replica_wal = std::fs::read(recovery::wal_path(&replica_dir)).unwrap();
        assert_eq!(
            replica_wal,
            primary_wal[..boundary as usize],
            "replica WAL is not a byte-identical prefix at k={k}"
        );

        // And it accepts writes now.
        let resumed = on_replica.call(
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 3, "capacity": 2}}}"#,
        );
        ok_data(&resumed);

        replica.shutdown();
        drop(proxy);
        primary.shutdown();
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }
}

/// Generation fencing: once a replica has been promoted, pointing its
/// data directory back at the stale old primary is refused at the
/// handshake, and its state stays intact.
#[test]
fn stale_primary_is_fenced_after_promotion() {
    let primary_dir = tmp_dir("fence-primary");
    let replica_dir = tmp_dir("fence-replica");
    let primary = ServerHandle::spawn(ServerConfig {
        accept_replicas: true,
        ..durable_config(&primary_dir)
    });
    let replica = ServerHandle::spawn(ServerConfig {
        replica_of: Some(primary.addr.clone()),
        ..durable_config(&replica_dir)
    });

    let mut on_primary = Client::connect(&primary.addr);
    ok_data(&on_primary.call(&load_line()));
    ok_data(&on_primary.call(
        r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}"#,
    ));
    let want = fingerprint(&health(&mut on_primary));

    let mut on_replica = Client::connect(&replica.addr);
    wait_for("replica to converge", Duration::from_secs(10), || {
        let h = health(&mut on_replica);
        (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
    });
    let promoted = ok_data(&on_replica.call(r#"{"op": "promote"}"#)).clone();
    assert_eq!(
        protocol::get(&promoted, "promoted"),
        Some(&Value::Bool(true))
    );
    let promoted_generation = protocol::get_u64(&promoted, "generation").unwrap();
    replica.shutdown();

    // Restart the promoted node's directory as a replica of the stale
    // primary: its persisted generation outranks the primary's, so the
    // handshake is refused and nothing is applied or reset.
    let rejoined = ServerHandle::spawn(ServerConfig {
        replica_of: Some(primary.addr.clone()),
        ..durable_config(&replica_dir)
    });
    let mut on_rejoined = Client::connect(&rejoined.addr);
    wait_for("fencing to trip", Duration::from_secs(10), || {
        let stats = on_rejoined.call(r#"{"op": "stats"}"#);
        let server = protocol::get(ok_data(&stats), "server")?.clone();
        (protocol::get_u64(&server, "repl_fenced") >= Some(1)).then_some(())
    });
    let h = health(&mut on_rejoined);
    assert_eq!(protocol::get(&h, "connected"), Some(&Value::Bool(false)));
    assert_eq!(protocol::get_u64(&h, "fingerprint"), Some(want));
    assert_eq!(
        protocol::get_u64(&h, "generation"),
        Some(promoted_generation)
    );

    rejoined.shutdown();
    primary.shutdown();
}

/// `overloaded` rejections carry the configured `retry_after_ms` hint,
/// and the retrying client rides them out to a successful mutate.
#[test]
fn retry_client_rides_out_overload_with_the_server_hint() {
    let handle = ServerHandle::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        default_timeout_ms: 10_000,
        retry_after_ms: 7,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle.addr);
    ok_data(&client.call(&pathological_load_line()));

    // Occupy the single worker with a budgeted solve, then fill the
    // depth-1 queue with a mutate, so the next queued arrival is
    // rejected immediately. (Reads like `stats` can't exercise this any
    // more — the event loop answers them inline, never queueing them.)
    client.send(r#"{"op": "solve", "id": 1, "algorithm": "prune", "timeout_ms": 700}"#);
    // The filler may only go in once the worker has dequeued the solve
    // (its batch is counted then); before that the solve itself holds
    // the queue slot.
    let mut watcher = Client::connect(&handle.addr);
    wait_for(
        "the solve to occupy the worker",
        Duration::from_secs(10),
        || {
            let stats = watcher.call(r#"{"op": "stats"}"#);
            let server = protocol::get(ok_data(&stats), "server")?.clone();
            (protocol::get_u64(&server, "solve_batches") >= Some(1)).then_some(())
        },
    );
    let mut filler = Client::connect(&handle.addr);
    filler.send(
        r#"{"op": "mutate", "id": 2, "mutation": {"SetCapacity": {"side": "User", "id": 1, "capacity": 2}}}"#,
    );
    std::thread::sleep(Duration::from_millis(50));

    let mut probe = Client::connect(&handle.addr);
    let rejected = probe.call(
        r#"{"op": "mutate", "id": 3, "mutation": {"SetCapacity": {"side": "User", "id": 2, "capacity": 2}}}"#,
    );
    let error = err_body(&rejected);
    assert_eq!(protocol::get_str(error, "code"), Some("overloaded"));
    assert_eq!(protocol::get_u64(error, "retry_after_ms"), Some(7));

    // The retrying client backs off on the hint and lands the mutation
    // once the worker frees up.
    let mut retry = RetryClient::new(
        handle.addr.clone(),
        ClientConfig {
            seed: 42,
            ..ClientConfig::default()
        },
    );
    let mutation: Value =
        serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 3}}"#)
            .unwrap();
    let applied = retry.mutate(mutation).expect("retries ride out overload");
    assert!(protocol::get_u64(&applied, "epoch").is_some());
    assert!(
        retry.stats().retries >= 1,
        "expected at least one retry, stats: {:?}",
        retry.stats()
    );

    // Drain the in-flight responses so shutdown is orderly.
    ok_data(&filler.recv());
    client.recv();
    handle.shutdown();
}

/// Chaos duplication on the replication stream: record lines delivered
/// twice are applied once (the replica skips offsets below its cursor),
/// so the follower still converges to the primary's exact state.
#[test]
fn duplicated_record_lines_apply_once() {
    let primary_dir = tmp_dir("dup-primary");
    let replica_dir = tmp_dir("dup-replica");
    let primary = ServerHandle::spawn(ServerConfig {
        accept_replicas: true,
        ..durable_config(&primary_dir)
    });
    let plan = ChaosPlan {
        seed: 7,
        server_to_client: LinePolicy {
            dup_pct: 60,
            ..LinePolicy::default()
        },
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(primary.addr.parse().unwrap(), plan).unwrap();
    let replica = ServerHandle::spawn(ServerConfig {
        replica_of: Some(proxy.addr().to_string()),
        ..durable_config(&replica_dir)
    });

    // Attach before writing so the replica's WAL is a byte prefix of
    // the primary's (no snapshot shortcut hiding the Load record).
    let mut on_replica = Client::connect(&replica.addr);
    wait_for("replica attach", Duration::from_secs(10), || {
        let h = health(&mut on_replica);
        (protocol::get(&h, "connected") == Some(&Value::Bool(true))).then_some(())
    });

    let mut on_primary = Client::connect(&primary.addr);
    ok_data(&on_primary.call(&load_line()));
    for mutation in mutation_bodies() {
        ok_data(&on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)));
    }
    let want = fingerprint(&health(&mut on_primary));

    wait_for(
        "replica to converge through dups",
        Duration::from_secs(10),
        || {
            let h = health(&mut on_replica);
            (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
        },
    );
    // The WAL stayed a clean prefix (each record applied exactly once).
    let replica_wal = std::fs::read(recovery::wal_path(&replica_dir)).unwrap();
    let primary_wal = std::fs::read(recovery::wal_path(&primary_dir)).unwrap();
    assert_eq!(replica_wal, primary_wal);

    replica.shutdown();
    drop(proxy);
    primary.shutdown();
}

/// A replica connection that sends a line past the length cap (acks are
/// a few dozen bytes) loses its subscription once the primary has read
/// one byte past the cap, and the primary keeps serving.
#[test]
fn oversized_replica_line_drops_the_subscriber() {
    let primary_dir = tmp_dir("oversized-ack");
    let primary = ServerHandle::spawn(ServerConfig {
        accept_replicas: true,
        ..durable_config(&primary_dir)
    });
    let mut on_primary = Client::connect(&primary.addr);
    let mut replicas = || {
        let stats = on_primary.call(r#"{"op": "stats"}"#);
        let replication = protocol::get(ok_data(&stats), "replication").unwrap();
        protocol::get_u64(replication, "replicas").unwrap()
    };
    let mut fake = Client::connect(&primary.addr);
    fake.send(r#"{"op": "replicate", "from_offset": 0, "generation": 0}"#);
    assert_eq!(protocol::get_str(&fake.recv(), "repl"), Some("hello"));
    assert_eq!(replicas(), 1);

    // One byte past the cap and no newline, in 1 MiB writes.
    let chunk = vec![b' '; 1 << 20];
    let mut left = MAX_LINE_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        fake.send_raw(&chunk[..n]);
        left -= n;
    }
    wait_for(
        "the subscriber to be dropped",
        Duration::from_secs(10),
        || (replicas() == 0).then_some(()),
    );
    let mut other = Client::connect(&primary.addr);
    assert_eq!(protocol::get_str(&health(&mut other), "status"), Some("ok"));
    ok_data(&other.call(&load_line()));
    primary.shutdown();
}

/// Property: replaying every keyed mutation 0–3 extra times (a client
/// retry storm after reconnects) yields exactly the state of the
/// retry-free run — the dedup table absorbs the repeats.
mod dedup_storm {
    use super::*;
    use geacc_server::Service;
    use proptest::prelude::*;

    fn call(svc: &Service, line: &str) -> Value {
        let req = protocol::parse_request(line).unwrap();
        svc.handle(&req, Instant::now() + Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{line} failed: {e:?}"))
    }

    fn mutation_json(choice: u8) -> String {
        // Capacity churn over the toy ids; all apply cleanly or fail
        // deterministically, either way identically on both runs.
        let side = if choice % 2 == 0 { "User" } else { "Event" };
        let id = (choice / 2) % 3;
        let capacity = 1 + (choice % 4);
        format!(r#"{{"SetCapacity": {{"side": "{side}", "id": {id}, "capacity": {capacity}}}}}"#)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn retry_storms_never_double_apply(
            choices in proptest::collection::vec(0u8..24, 1..12),
            repeats in proptest::collection::vec(0usize..4, 1..12),
        ) {
            let clean = service();
            let stormy = service();
            call(&clean, &super::load_line());
            call(&stormy, &super::load_line());

            for (i, choice) in choices.iter().enumerate() {
                let mutation = mutation_json(*choice);
                let line = format!(
                    r#"{{"op": "mutate", "client_id": "storm", "seq": {i}, "mutation": {mutation}}}"#
                );
                let clean_response = call(&clean, &line);
                // The stormy run sends the same keyed request 1 + r
                // times, as a client that lost the ack would. Replays
                // answer from the dedup cache with the original ack,
                // byte for byte.
                let r = repeats[i % repeats.len()];
                let first = call(&stormy, &line);
                for _ in 0..r {
                    let replayed = call(&stormy, &line);
                    prop_assert_eq!(&replayed, &first, "replayed ack diverged");
                }
                prop_assert_eq!(
                    protocol::get_u64(&first, "epoch"),
                    protocol::get_u64(&clean_response, "epoch")
                );
            }

            let clean_health = call(&clean, r#"{"op": "health"}"#);
            let stormy_health = call(&stormy, r#"{"op": "health"}"#);
            prop_assert_eq!(
                protocol::get_u64(&stormy_health, "epoch"),
                protocol::get_u64(&clean_health, "epoch"),
                "retry storm changed the epoch"
            );
            prop_assert_eq!(
                protocol::get_u64(&stormy_health, "fingerprint"),
                protocol::get_u64(&clean_health, "fingerprint"),
                "retry storm changed the arrangement"
            );
        }
    }
}
