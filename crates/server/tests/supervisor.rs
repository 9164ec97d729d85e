//! End-to-end self-healing tests: unattended lease-based failover (kill
//! the primary, no human `promote`), the deterministic cut-point sweep
//! under supervision (the promoted node serves exactly the acked prefix
//! it was shipped, bit-identically), partition failover with the old
//! primary self-fencing and rejoining as a replica, a retry that
//! straddles the promotion (exactly-once via the shipped dedup table),
//! and the `primary_hint` self-correction of a misconfigured client.

mod common;

use common::*;
use geacc_server::chaos::{ChaosPlan, ChaosProxy, LinePolicy};
use geacc_server::client::{ClientConfig, RetryClient};
use geacc_server::{protocol, recovery, wal, ServerConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Reserve a concrete local address before the server exists, so nodes
/// with circular peer lists (r1 probes r2, r2 probes r1) can be
/// configured up front.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// health() over a *fresh* connection each time: across a failover the
/// node under a persistent connection may die, which would poison the
/// helper for every later probe.
fn health_at(addr: &str) -> Option<Value> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer
        .write_all(b"{\"op\": \"health\", \"id\": 0}\n")
        .ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    let response: Value = serde_json::from_str(line.trim()).ok()?;
    protocol::get(&response, "data").cloned()
}

fn supervised(config: ServerConfig, node_id: u64, peers: Vec<String>) -> ServerConfig {
    ServerConfig {
        supervise: true,
        lease_interval_ms: 50,
        missed_leases: 3,
        node_id: Some(node_id),
        peers,
        ..config
    }
}

/// The headline scenario: a supervised primary with two supervised
/// replicas dies unannounced; with no human in the loop the lower
/// node-id replica (equal offsets) promotes itself, the loser re-points
/// at the winner, a topology-aware client seeded at the *loser* lands
/// its write on the winner, and the promoted state is exactly the acked
/// state — WAL bit-identical.
#[test]
fn unattended_failover_elects_highest_ranked_replica() {
    let primary_dir = tmp_dir("auto-primary");
    let r1_dir = tmp_dir("auto-r1");
    let r2_dir = tmp_dir("auto-r2");
    let r1_addr = free_addr();
    let r2_addr = free_addr();

    let primary = ServerHandle::spawn(supervised(
        ServerConfig {
            accept_replicas: true,
            ..durable_config(&primary_dir)
        },
        10,
        Vec::new(),
    ));
    let r1 = ServerHandle::spawn(supervised(
        ServerConfig {
            addr: r1_addr.clone(),
            replica_of: Some(primary.addr.clone()),
            ..durable_config(&r1_dir)
        },
        1,
        vec![r2_addr.clone()],
    ));
    let r2 = ServerHandle::spawn(supervised(
        ServerConfig {
            addr: r2_addr.clone(),
            replica_of: Some(primary.addr.clone()),
            ..durable_config(&r2_dir)
        },
        2,
        vec![r1_addr.clone()],
    ));

    // Both replicas must be attached before the first write, so their
    // WALs are byte prefixes of the primary's (a late joiner would be
    // bootstrapped from a snapshot and skip the Load record).
    for addr in [&r1_addr, &r2_addr] {
        wait_for("replica to attach", Duration::from_secs(10), || {
            let h = health_at(addr)?;
            (protocol::get(&h, "connected") == Some(&Value::Bool(true))).then_some(())
        });
    }

    let mut on_primary = Client::connect(&primary.addr);
    ok_data(&on_primary.call(&load_line()));
    for mutation in mutation_bodies() {
        ok_data(&on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)));
    }
    let want = fingerprint(&health(&mut on_primary));
    for addr in [&r1_addr, &r2_addr] {
        wait_for("replica to converge", Duration::from_secs(10), || {
            let h = health_at(addr)?;
            (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
        });
    }
    let primary_wal = std::fs::read(recovery::wal_path(&primary_dir)).unwrap();
    drop(on_primary);
    primary.crash();

    // No `promote` from here on. r1 and r2 have identical offsets, so
    // the rank tiebreak (lowest node id) must elect r1.
    wait_for("r1 to self-promote", Duration::from_secs(15), || {
        let h = health_at(&r1_addr)?;
        (protocol::get_str(&h, "role") == Some("primary")
            && protocol::get_str(&h, "status") == Some("ok"))
        .then_some(())
    });
    let promoted = health_at(&r1_addr).unwrap();
    assert!(protocol::get_u64(&promoted, "generation") >= Some(1));
    assert_eq!(protocol::get_u64(&promoted, "fingerprint"), Some(want));

    // The loser stays a replica and re-points at the winner.
    wait_for("r2 to follow the winner", Duration::from_secs(15), || {
        let h = health_at(&r2_addr)?;
        (protocol::get_str(&h, "role") == Some("replica")
            && protocol::get_str(&h, "primary_hint") == Some(r1_addr.as_str()))
        .then_some(())
    });

    // The promoted WAL is the dead primary's acked log, byte for byte.
    let r1_wal = std::fs::read(recovery::wal_path(&r1_dir)).unwrap();
    assert_eq!(r1_wal, primary_wal, "promoted WAL diverged from acked log");

    // A client seeded at the *loser* self-routes to the winner.
    let mut client = RetryClient::new(
        r2_addr.clone(),
        ClientConfig {
            request_timeout: Duration::from_secs(20),
            max_retries: 30,
            seed: 11,
            ..ClientConfig::default()
        },
    );
    let mutation: Value =
        serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 2, "capacity": 3}}"#)
            .unwrap();
    let applied = client.mutate(mutation).expect("write lands on the winner");
    assert!(protocol::get_u64(&applied, "epoch").is_some());
    assert_eq!(client.current_addr(), r1_addr.as_str());
    assert!(client.stats().redirects >= 1, "{:?}", client.stats());

    // And the loser keeps replicating — now from the new primary.
    let new_want = fingerprint(&health_at(&r1_addr).unwrap());
    assert_ne!(new_want, want);
    wait_for("r2 to stream from r1", Duration::from_secs(15), || {
        let h = health_at(&r2_addr)?;
        (protocol::get_u64(&h, "fingerprint") == Some(new_want)).then_some(())
    });

    // Unattended promotion is visible in the metrics.
    let mut on_r1 = Client::connect(&r1_addr);
    let stats = on_r1.call(r#"{"op": "stats"}"#);
    let server = protocol::get(ok_data(&stats), "server").unwrap().clone();
    assert!(protocol::get_u64(&server, "sup_promotions") >= Some(1));

    r2.shutdown();
    r1.shutdown();
}

/// The acceptance sweep: lease expiry × stream cut points. For every
/// record boundary k the chaos proxy pins the replica at exactly k
/// shipped records while heartbeats keep flowing — a slow stream must
/// NOT trigger an election (the supervisor probes the upstream directly
/// before electing). Only a full partition expires the lease; then the
/// replica self-promotes and must serve precisely the replay of the
/// first k acked records, with a WAL bit-identical to the primary's
/// k-record prefix and a durably bumped generation. Zero split-brain:
/// the promotion happens at a generation that fences the old primary.
#[test]
fn cut_point_sweep_under_supervision_promotes_exact_acked_prefix() {
    let mutations = mutation_bodies();
    let total_records = 1 + mutations.len() as u64; // load + mutations

    for (lease_ms, missed) in [(40u64, 2u32), (80, 3)] {
        for k in 1..=total_records {
            let tag = format!("sweep-{lease_ms}-{k}");
            let primary_dir = tmp_dir(&format!("{tag}-primary"));
            let replica_dir = tmp_dir(&format!("{tag}-replica"));
            let primary = ServerHandle::spawn(ServerConfig {
                accept_replicas: true,
                ..durable_config(&primary_dir)
            });

            let plan = ChaosPlan {
                seed: 0xFA11 ^ k ^ lease_ms,
                server_to_client: LinePolicy {
                    cut_after_matching: Some((r#""repl":"record""#.to_string(), k)),
                    ..LinePolicy::default()
                },
                ..ChaosPlan::default()
            };
            let proxy = ChaosProxy::spawn(primary.addr.parse().unwrap(), plan).unwrap();
            let replica = ServerHandle::spawn(ServerConfig {
                replica_of: Some(proxy.addr().to_string()),
                supervise: true,
                lease_interval_ms: lease_ms,
                missed_leases: missed,
                node_id: Some(5),
                ..durable_config(&replica_dir)
            });

            // Attach before writing so the replica's WAL is a byte
            // prefix of the primary's (no snapshot shortcut).
            wait_for("replica attach", Duration::from_secs(10), || {
                let h = health_at(&replica.addr)?;
                (protocol::get(&h, "connected") == Some(&Value::Bool(true))).then_some(())
            });

            let mut on_primary = Client::connect(&primary.addr);
            ok_data(&on_primary.call(&load_line()));
            for mutation in &mutations {
                ok_data(
                    &on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)),
                );
            }

            let primary_wal = std::fs::read(recovery::wal_path(&primary_dir)).unwrap();
            let scan = wal::scan(&primary_wal).unwrap();
            assert_eq!(scan.records.len() as u64, total_records);
            let boundary = if k == total_records {
                scan.valid_len
            } else {
                scan.records[k as usize].offset
            };

            let mut on_replica = Client::connect(&replica.addr);
            wait_for(
                &format!("replica to stall at boundary {k}"),
                Duration::from_secs(10),
                || {
                    let stats = on_replica.call(r#"{"op": "stats"}"#);
                    let replication = protocol::get(ok_data(&stats), "replication")?.clone();
                    (protocol::get_u64(&replication, "remote_offset") == Some(boundary))
                        .then_some(())
                },
            );

            // A stalled stream is not a dead primary: with heartbeats
            // (and a direct health probe) still answering, the replica
            // must sit out several full promote windows without
            // electing itself.
            if k == 1 {
                let promote_window = Duration::from_millis(lease_ms * u64::from(missed + 2));
                std::thread::sleep(promote_window * 3);
                let h = health_at(&replica.addr).unwrap();
                assert_eq!(
                    protocol::get_str(&h, "role"),
                    Some("replica"),
                    "replica promoted under a slow-but-alive primary"
                );
            }

            // Now the primary really is unreachable from the replica.
            proxy.partition(true);
            wait_for(
                &format!("self-promotion at boundary {k}"),
                Duration::from_secs(15),
                || {
                    let h = health_at(&replica.addr)?;
                    (protocol::get_str(&h, "role") == Some("primary")
                        && protocol::get_str(&h, "status") == Some("ok"))
                    .then_some(())
                },
            );

            // Exactly the replay of the first k acked records.
            let prefix: Vec<_> = scan.records[..k as usize]
                .iter()
                .map(|r| r.record.clone())
                .collect();
            let expected = recovery::replay_prefix(&prefix, geacc_core::DynamicConfig::default())
                .expect("prefix starts with load");
            let h = health_at(&replica.addr).unwrap();
            assert_eq!(
                protocol::get_u64(&h, "fingerprint"),
                Some(expected.arranger.fingerprint()),
                "promoted state diverged from replay of the first {k} records"
            );
            assert_eq!(
                protocol::get_u64(&h, "epoch"),
                Some(expected.arranger.epoch())
            );
            // The generation bump is durable and fences the old
            // primary's generation.
            assert!(protocol::get_u64(&h, "generation") >= Some(1));
            let meta = geacc_server::repl::load_meta(&replica_dir).unwrap();
            assert!(meta.generation >= 1, "generation bump not persisted");

            let replica_wal = std::fs::read(recovery::wal_path(&replica_dir)).unwrap();
            assert_eq!(
                replica_wal,
                primary_wal[..boundary as usize],
                "replica WAL is not a byte-identical prefix at k={k}"
            );

            // Writable, unattended.
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
}

/// Partition failover, observed continuously: the old primary fences
/// itself (structured `lease_lost` refusals) before any replica's
/// promote window elapses, a replica promotes at a higher generation,
/// and when the old primary can see the winner it demotes itself and
/// rejoins as a replica — zero human operations, and at no sampled
/// instant are two nodes simultaneously willing to ack writes.
#[test]
fn partitioned_primary_fences_then_rejoins_as_replica() {
    let primary_dir = tmp_dir("part-primary");
    let r1_dir = tmp_dir("part-r1");
    let r2_dir = tmp_dir("part-r2");
    let primary_addr = free_addr();
    let r1_addr = free_addr();
    let r2_addr = free_addr();

    // The primary is supervised with its replicas as peers (probation:
    // it boots fenced until it has probed them). Replicas reach the
    // primary through ONE shared proxy — the partition we will cut —
    // while inter-node probes use the real addresses.
    let primary = ServerHandle::spawn(supervised(
        ServerConfig {
            addr: primary_addr.clone(),
            accept_replicas: true,
            ..durable_config(&primary_dir)
        },
        10,
        vec![r1_addr.clone(), r2_addr.clone()],
    ));
    let proxy = ChaosProxy::spawn(primary_addr.parse().unwrap(), ChaosPlan::default()).unwrap();
    let r1 = ServerHandle::spawn(supervised(
        ServerConfig {
            addr: r1_addr.clone(),
            replica_of: Some(proxy.addr().to_string()),
            ..durable_config(&r1_dir)
        },
        1,
        vec![r2_addr.clone()],
    ));
    let r2 = ServerHandle::spawn(supervised(
        ServerConfig {
            addr: r2_addr.clone(),
            replica_of: Some(proxy.addr().to_string()),
            ..durable_config(&r2_dir)
        },
        2,
        vec![r1_addr.clone()],
    ));

    // Probation lifts once the primary has seen its peers healthy.
    wait_for(
        "primary to leave probation",
        Duration::from_secs(10),
        || {
            let h = health_at(&primary_addr)?;
            (protocol::get_str(&h, "status") == Some("ok")).then_some(())
        },
    );

    let mut on_primary = Client::connect(&primary.addr);
    ok_data(&on_primary.call(&load_line()));
    for mutation in mutation_bodies() {
        ok_data(&on_primary.call(&format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#)));
    }
    let want = fingerprint(&health(&mut on_primary));
    for addr in [&r1_addr, &r2_addr] {
        wait_for("replica to converge", Duration::from_secs(10), || {
            let h = health_at(addr)?;
            (protocol::get_u64(&h, "fingerprint") == Some(want)).then_some(())
        });
    }

    // Continuous split-brain watch: sample every node's health and
    // count, per sampling round, how many would ack a write (primary
    // role, not fenced). The rounds are fast (<10ms) against windows
    // of >=100ms, so an overlap would be caught.
    let watch_stop = Arc::new(AtomicBool::new(false));
    let watch = {
        let stop = Arc::clone(&watch_stop);
        let addrs = [primary_addr.clone(), r1_addr.clone(), r2_addr.clone()];
        std::thread::spawn(move || {
            let mut max_writable = 0usize;
            let mut last_gen: [u64; 3] = [0; 3];
            let mut regressions = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let mut writable = 0usize;
                for (i, addr) in addrs.iter().enumerate() {
                    let Some(h) = health_at(addr) else { continue };
                    let role = protocol::get_str(&h, "role");
                    let status = protocol::get_str(&h, "status");
                    if role == Some("primary") && status != Some("fenced") {
                        writable += 1;
                    }
                    if let Some(generation) = protocol::get_u64(&h, "generation") {
                        if generation < last_gen[i] {
                            regressions += 1;
                        }
                        last_gen[i] = generation;
                    }
                }
                max_writable = max_writable.max(writable);
                std::thread::sleep(Duration::from_millis(5));
            }
            (max_writable, regressions)
        })
    };

    // Cut the replication path. Probes still flow on the real
    // addresses, which is exactly the asymmetric case the fence
    // ordering must survive.
    proxy.partition(true);

    // The old primary fences itself and refuses writes structurally.
    wait_for("old primary to self-fence", Duration::from_secs(10), || {
        let denied = Client::connect(&primary_addr).call(
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 1, "capacity": 2}}}"#,
        );
        if protocol::get(&denied, "ok") == Some(&Value::Bool(false)) {
            let error = err_body(&denied);
            (protocol::get_str(error, "code") == Some("lease_lost")).then_some(())
        } else {
            None
        }
    });

    // r1 (lower node id, equal offset) promotes at a higher generation.
    wait_for("r1 to self-promote", Duration::from_secs(15), || {
        let h = health_at(&r1_addr)?;
        (protocol::get_str(&h, "role") == Some("primary")
            && protocol::get_str(&h, "status") == Some("ok")
            && protocol::get_u64(&h, "generation") >= Some(1))
        .then_some(())
    });

    // The fenced old primary sees the senior generation via its peer
    // probes, demotes itself, and rejoins as a replica of the winner.
    wait_for(
        "old primary to demote and rejoin",
        Duration::from_secs(15),
        || {
            let h = health_at(&primary_addr)?;
            (protocol::get_str(&h, "role") == Some("replica")
                && protocol::get_str(&h, "primary_hint") == Some(r1_addr.as_str()))
            .then_some(())
        },
    );

    // No acked write was lost: the winner serves the exact pre-cut state.
    assert_eq!(
        protocol::get_u64(&health_at(&r1_addr).unwrap(), "fingerprint"),
        Some(want)
    );

    // A client still pointed at the deposed primary self-corrects: its
    // `read_only` rejection carries the winner as `primary_hint`.
    let denied = Client::connect(&primary_addr).call(
        r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 1, "capacity": 2}}}"#,
    );
    let error = err_body(&denied);
    assert_eq!(protocol::get_str(error, "code"), Some("read_only"));
    assert_eq!(
        protocol::get_str(error, "primary_hint"),
        Some(r1_addr.as_str())
    );
    let mut client = RetryClient::new(
        primary_addr.clone(),
        ClientConfig {
            request_timeout: Duration::from_secs(20),
            max_retries: 30,
            seed: 5,
            ..ClientConfig::default()
        },
    );
    let mutation: Value =
        serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 1, "capacity": 2}}"#)
            .unwrap();
    client.mutate(mutation).expect("client follows the hint");
    assert_eq!(client.current_addr(), r1_addr.as_str());

    // Everyone converges on the new primary's state — including the
    // deposed primary, now streaming as a replica.
    let new_want = fingerprint(&health_at(&r1_addr).unwrap());
    for addr in [&primary_addr, &r2_addr] {
        wait_for("cluster to reconverge", Duration::from_secs(20), || {
            let h = health_at(addr)?;
            (protocol::get_u64(&h, "fingerprint") == Some(new_want)
                && protocol::get_str(&h, "role") == Some("replica"))
            .then_some(())
        });
    }

    watch_stop.store(true, Ordering::SeqCst);
    let (max_writable, regressions) = watch.join().unwrap();
    assert!(
        max_writable <= 1,
        "split brain: {max_writable} nodes were simultaneously willing to ack writes"
    );
    assert_eq!(regressions, 0, "a node's generation went backwards");

    // The deposed node records its own fencing and demotion.
    let stats = Client::connect(&primary_addr).call(r#"{"op": "stats"}"#);
    let server = protocol::get(ok_data(&stats), "server").unwrap().clone();
    assert!(protocol::get_u64(&server, "sup_fenced") >= Some(1));
    assert!(protocol::get_u64(&server, "sup_demotions") >= Some(1));

    r2.shutdown();
    r1.shutdown();
    primary.shutdown();
}

/// Satellite: a retry that straddles the promotion. The client's ack is
/// cut after the primary applied (and shipped) the mutation; the
/// primary then dies; the client's resend — same `(client_id, seq)` —
/// lands on the self-promoted replica, whose dedup table was rebuilt
/// from the shipped WAL, and is answered as a duplicate instead of
/// double-applied.
#[test]
fn ack_lost_retry_across_promotion_applies_exactly_once() {
    let primary_dir = tmp_dir("straddle-primary");
    let replica_dir = tmp_dir("straddle-replica");
    let primary_addr = free_addr();

    // Client traffic reaches the primary through a chaos proxy that
    // cuts the SECOND mutate ack (the first `"delta"` line passes, the
    // budget is then exhausted and every later one cuts). The primary
    // advertises the proxy address, so hint-following clients route
    // through it.
    let plan = ChaosPlan {
        seed: 0x5eed,
        server_to_client: LinePolicy {
            cut_after_matching: Some((r#""delta""#.to_string(), 1)),
            ..LinePolicy::default()
        },
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(primary_addr.parse().unwrap(), plan).unwrap();
    let primary = ServerHandle::spawn(ServerConfig {
        addr: primary_addr.clone(),
        accept_replicas: true,
        supervise: true,
        lease_interval_ms: 50,
        missed_leases: 2,
        node_id: Some(10),
        advertise: Some(proxy.addr().to_string()),
        ..durable_config(&primary_dir)
    });
    let replica = ServerHandle::spawn(ServerConfig {
        replica_of: Some(primary_addr.clone()),
        supervise: true,
        lease_interval_ms: 50,
        missed_leases: 2,
        node_id: Some(1),
        ..durable_config(&replica_dir)
    });

    let mut on_primary = Client::connect(&primary_addr);
    ok_data(&on_primary.call(&load_line()));
    wait_for("replica to attach", Duration::from_secs(10), || {
        let h = health_at(&replica.addr)?;
        (protocol::get_u64(&h, "epoch") == Some(0)).then_some(())
    });

    // The client is seeded at the replica: its first write is refused
    // `read_only` with the primary's advertised (proxy) address as the
    // hint, which it follows.
    let mut client = RetryClient::new(
        replica.addr.clone(),
        ClientConfig {
            request_timeout: Duration::from_secs(30),
            max_retries: 60,
            backoff_cap: Duration::from_millis(100),
            seed: 3,
            client_id: "straddler".to_string(),
            ..ClientConfig::default()
        },
    );
    let m1: Value =
        serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}"#)
            .unwrap();
    let applied = client.mutate(m1).expect("first keyed mutate lands");
    assert!(protocol::get_u64(&applied, "epoch").is_some());
    assert_eq!(client.current_addr(), proxy.addr().to_string().as_str());

    // Second keyed mutate: the primary applies + ships it, but the ack
    // never reaches the client. The client keeps retrying (every resend
    // through the proxy is answered from the primary's dedup cache —
    // and cut again). Run it on its own thread while we kill the
    // primary under it.
    let m2: Value =
        serde_json::from_str(r#"{"SetCapacity": {"side": "Event", "id": 1, "capacity": 3}}"#)
            .unwrap();
    let straddle = std::thread::spawn(move || {
        let result = client.mutate(m2);
        (result, client.stats(), client.current_addr().to_string())
    });

    // Wait until the mutation has been applied AND shipped (the replica
    // reaches epoch 2: load=0, m1=1, m2=2), then crash the primary.
    wait_for("m2 to reach the replica", Duration::from_secs(15), || {
        let h = health_at(&replica.addr)?;
        (protocol::get_u64(&h, "epoch") == Some(2)).then_some(())
    });
    drop(on_primary);
    primary.crash();

    // Unattended: the replica's lease expires and it promotes itself.
    wait_for("replica to self-promote", Duration::from_secs(15), || {
        let h = health_at(&replica.addr)?;
        (protocol::get_str(&h, "role") == Some("primary")
            && protocol::get_str(&h, "status") == Some("ok"))
        .then_some(())
    });

    let (result, stats, final_addr) = straddle.join().unwrap();
    let replay = result.expect("straddling retry succeeds after failover");
    assert_eq!(
        protocol::get(&replay, "deduped"),
        Some(&Value::Bool(true)),
        "resend was answered by application, not the shipped dedup table: {replay:?}"
    );
    assert_eq!(final_addr, replica.addr, "retry did not land on the winner");
    assert!(stats.redirects >= 1, "{stats:?}");

    // Exactly once: the promoted node's epoch counts each mutation one
    // time (a double-apply would read 3).
    let h = health_at(&replica.addr).unwrap();
    assert_eq!(protocol::get_u64(&h, "epoch"), Some(2));

    replica.shutdown();
    drop(proxy);
}

/// Satellite: even with no supervision anywhere, a replica knows its
/// upstream and hands it out as `primary_hint` on `read_only`
/// rejections, so a client misconfigured to write at the replica
/// self-corrects in one hop.
#[test]
fn unsupervised_replica_hints_its_primary_to_misconfigured_clients() {
    let primary_dir = tmp_dir("hint-primary");
    let replica_dir = tmp_dir("hint-replica");
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
    wait_for("replica to attach", Duration::from_secs(10), || {
        let h = health_at(&replica.addr)?;
        (protocol::get_u64(&h, "epoch") == Some(0)).then_some(())
    });

    // The raw rejection names the primary.
    let denied = Client::connect(&replica.addr).call(
        r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}"#,
    );
    let error = err_body(&denied);
    assert_eq!(protocol::get_str(error, "code"), Some("read_only"));
    assert_eq!(
        protocol::get_str(error, "primary_hint"),
        Some(primary.addr.as_str())
    );
    // Health exposes the same topology.
    let h = health_at(&replica.addr).unwrap();
    assert_eq!(
        protocol::get_str(&h, "primary_hint"),
        Some(primary.addr.as_str())
    );

    // A retrying client seeded at the replica lands the write on the
    // primary in one redirect.
    let mut client = RetryClient::new(replica.addr.clone(), ClientConfig::default());
    let mutation: Value =
        serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}"#)
            .unwrap();
    let applied = client.mutate(mutation).expect("hint self-corrects");
    assert_eq!(protocol::get_u64(&applied, "epoch"), Some(1));
    assert_eq!(client.current_addr(), primary.addr.as_str());
    assert_eq!(client.stats().redirects, 1, "{:?}", client.stats());

    replica.shutdown();
    primary.shutdown();
}
