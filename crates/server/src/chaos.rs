//! A deterministic in-process chaos proxy for the line protocol.
//!
//! Sits between a client (or replica) and a server, forwarding
//! newline-delimited traffic while injecting faults from a seeded
//! plan: per-line drop/duplicate/delay rolls, a hard partition switch,
//! and a deterministic cut trigger that ends the stream right before
//! the Nth line matching a needle — which is how the failover
//! tests sweep "crash at every record boundary" without racing a real
//! kill.
//!
//! Everything is std-only and line-oriented; binary traffic is not
//! supported (the protocol is newline-delimited JSON throughout).

use crate::lock;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault policy for one direction of a connection. Percentages are
/// rolled per line with a seeded xorshift, so a given (seed, traffic)
/// pair always faults identically.
#[derive(Debug, Clone, Default)]
pub struct LinePolicy {
    /// Chance (0–100) a line is silently dropped.
    pub drop_pct: u8,
    /// Chance (0–100) a line is forwarded twice.
    pub dup_pct: u8,
    /// Chance (0–100) a line is delayed by `delay_ms` before forwarding.
    pub delay_pct: u8,
    pub delay_ms: u64,
    /// Deterministic cut: forward lines until `count` lines containing
    /// `needle` have passed, then end the stream *before* forwarding the
    /// next matching line. The budget is shared across
    /// every connection in this direction, so a client that reconnects
    /// after the cut still cannot get a line past it — exactly the
    /// "primary died at record boundary k" shape the failover sweep
    /// needs.
    pub cut_after_matching: Option<(String, u64)>,
    /// Deterministic targeted delay: every line containing the needle
    /// is held for the given milliseconds before forwarding. Unlike
    /// `delay_pct` this hits *specific* traffic (e.g. heartbeat pings)
    /// on every line — how the lease tests make a healthy-but-slow
    /// primary look dead to its followers.
    pub delay_matching: Option<(String, u64)>,
}

/// A full chaos plan: one policy per direction plus the jitter seed.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    pub seed: u64,
    pub client_to_server: LinePolicy,
    pub server_to_client: LinePolicy,
}

struct ConnHandle {
    kill: Arc<AtomicBool>,
}

/// The running proxy. Dropping it stops the accept loop and severs all
/// connections.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    partitioned: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    accepted: Arc<AtomicUsize>,
    accept_handle: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Bind an ephemeral local port and start proxying to `upstream`.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let partitioned = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let accepted = Arc::new(AtomicUsize::new(0));
        // One shared cut budget per direction, so reconnects keep
        // counting where the severed connection left off.
        let cut_counts = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];

        let accept_stop = Arc::clone(&stop);
        let accept_partitioned = Arc::clone(&partitioned);
        let accept_conns = Arc::clone(&conns);
        let accept_counter = Arc::clone(&accepted);
        let accept_cuts = [Arc::clone(&cut_counts[0]), Arc::clone(&cut_counts[1])];
        let accept_handle = std::thread::spawn(move || {
            loop {
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((downstream, _)) => {
                        if accept_partitioned.load(Ordering::SeqCst) {
                            let _ = downstream.shutdown(Shutdown::Both);
                            continue;
                        }
                        let index = accept_counter.fetch_add(1, Ordering::SeqCst);
                        let kill = Arc::new(AtomicBool::new(false));
                        {
                            let mut guard = lock(&accept_conns);
                            guard.push(ConnHandle {
                                kill: Arc::clone(&kill),
                            });
                        }
                        if pump_pair(
                            downstream,
                            upstream,
                            &plan,
                            index,
                            Arc::clone(&accept_stop),
                            kill,
                            [Arc::clone(&accept_cuts[0]), Arc::clone(&accept_cuts[1])],
                        )
                        .is_err()
                        {
                            // Upstream refused; downstream was shut in
                            // pump_pair's error path.
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return,
                }
            }
        });

        Ok(ChaosProxy {
            addr,
            stop,
            partitioned,
            conns,
            accepted,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted so far.
    pub fn connections(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Partition on: refuse new connections and sever existing ones.
    /// Partition off: allow new connections again.
    pub fn partition(&self, on: bool) {
        self.partitioned.store(on, Ordering::SeqCst);
        if on {
            let mut guard = lock(&self.conns);
            for conn in guard.drain(..) {
                conn.kill.store(true, Ordering::SeqCst);
            }
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.partition(true);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Wire one accepted downstream connection to a fresh upstream one and
/// start the two pump threads. Detached: they exit when either side
/// closes, the kill flag trips, or the proxy stops.
fn pump_pair(
    downstream: TcpStream,
    upstream_addr: SocketAddr,
    plan: &ChaosPlan,
    index: usize,
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    cut_counts: [Arc<AtomicU64>; 2],
) -> std::io::Result<()> {
    let upstream = match TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(1)) {
        Ok(s) => s,
        Err(e) => {
            let _ = downstream.shutdown(Shutdown::Both);
            return Err(e);
        }
    };
    downstream.set_nodelay(true).ok();
    upstream.set_nodelay(true).ok();

    let d_read = downstream.try_clone()?;
    let u_read = upstream.try_clone()?;

    const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
    let c2s_seed = plan.seed ^ (index as u64).wrapping_mul(PHI) ^ 1;
    let s2c_seed = plan.seed ^ (index as u64).wrapping_mul(PHI) ^ 2;

    let c2s_policy = plan.client_to_server.clone();
    let s2c_policy = plan.server_to_client.clone();

    let c2s_stop = Arc::clone(&stop);
    let c2s_kill = Arc::clone(&kill);
    let c2s_down = downstream.try_clone()?;
    let c2s_up = upstream.try_clone()?;
    let [c2s_cut, s2c_cut] = cut_counts;
    std::thread::spawn(move || {
        pump(
            d_read,
            c2s_up,
            &c2s_policy,
            c2s_seed,
            &c2s_stop,
            &c2s_kill,
            &c2s_cut,
        );
        // Either direction dying severs both sockets so the partner
        // pump unblocks too.
        let _ = c2s_down.shutdown(Shutdown::Both);
        let _ = upstream.shutdown(Shutdown::Both);
    });
    std::thread::spawn(move || {
        pump(
            u_read,
            downstream,
            &s2c_policy,
            s2c_seed,
            &stop,
            &kill,
            &s2c_cut,
        );
    });
    Ok(())
}

/// Forward lines from `from` to `to`, applying the policy.
fn pump(
    from: TcpStream,
    mut to: TcpStream,
    policy: &LinePolicy,
    seed: u64,
    stop: &Arc<AtomicBool>,
    kill: &Arc<AtomicBool>,
    cut_count: &Arc<AtomicU64>,
) {
    from.set_read_timeout(Some(Duration::from_millis(100))).ok();
    let mut reader = BufReader::new(from);
    let mut rng = seed | 1;
    let mut partial: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) || kill.load(Ordering::SeqCst) {
            sever(&reader, &to);
            return;
        }
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                sever(&reader, &to);
                return;
            }
            Ok(_) => {
                partial.push(byte[0]);
                if byte[0] != b'\n' {
                    continue;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => {
                sever(&reader, &to);
                return;
            }
        }
        let line = std::mem::take(&mut partial);
        let text = String::from_utf8_lossy(&line);

        if let Some((needle, count)) = &policy.cut_after_matching {
            if text.contains(needle.as_str()) && cut_count.fetch_add(1, Ordering::SeqCst) >= *count
            {
                // The cut: nothing from this line on reaches `to`. Only
                // its write side is shut: server-to-client, a full
                // shutdown makes the kernel answer the client's late
                // writes (a replica's acks) with a reset, which discards
                // lines already forwarded but not yet read. The partner
                // pump severs both sockets once the client hangs up. The
                // shared counter is already past the budget, so every
                // later matching line (on any connection) cuts too.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
        }

        if let Some((needle, delay_ms)) = &policy.delay_matching {
            if text.contains(needle.as_str()) {
                std::thread::sleep(Duration::from_millis(*delay_ms));
            }
        }

        let roll = (xorshift(&mut rng) % 100) as u8;
        if roll < policy.drop_pct {
            continue;
        }
        let delayed = roll < policy.drop_pct.saturating_add(policy.delay_pct);
        if delayed {
            std::thread::sleep(Duration::from_millis(policy.delay_ms));
        }
        if to.write_all(&line).and_then(|_| to.flush()).is_err() {
            sever(&reader, &to);
            return;
        }
        let dup_roll = (xorshift(&mut rng) % 100) as u8;
        if dup_roll < policy.dup_pct && to.write_all(&line).and_then(|_| to.flush()).is_err() {
            sever(&reader, &to);
            return;
        }
    }
}

fn sever(reader: &BufReader<TcpStream>, to: &TcpStream) {
    let _ = reader.get_ref().shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// An echo server that prefixes lines with "echo:". Detached: the
    /// accept thread dies with the test process (joining it would race
    /// against proxy teardown dropping in-flight lines).
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let mut writer = stream.try_clone().unwrap();
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if writer
                        .write_all(format!("echo:{line}\n").as_bytes())
                        .is_err()
                    {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn clean_plan_forwards_transparently() {
        let addr = echo_server();
        let proxy = ChaosProxy::spawn(addr, ChaosPlan::default()).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.write_all(b"hello\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "echo:hello");
        assert_eq!(proxy.connections(), 1);
    }

    #[test]
    fn cut_after_matching_kills_before_the_nth_match() {
        let addr = echo_server();
        let plan = ChaosPlan {
            client_to_server: LinePolicy {
                cut_after_matching: Some(("ping".to_string(), 2)),
                ..LinePolicy::default()
            },
            ..ChaosPlan::default()
        };
        let proxy = ChaosProxy::spawn(addr, plan).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        // Two matching lines pass…
        for _ in 0..2 {
            stream.write_all(b"ping\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "echo:ping");
        }
        // …a non-matching line also passes…
        stream.write_all(b"other\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "echo:other");
        // …the third match severs the connection before forwarding.
        stream.write_all(b"ping\n").ok();
        line.clear();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "connection should be cut, got {line:?}");
        // A new connection forwards non-matching lines, but the cut
        // budget is global: another matching line cuts again.
        let mut stream2 = TcpStream::connect(proxy.addr()).unwrap();
        stream2.write_all(b"again\n").unwrap();
        let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
        let mut line2 = String::new();
        reader2.read_line(&mut line2).unwrap();
        assert_eq!(line2.trim(), "echo:again");
        stream2.write_all(b"ping\n").ok();
        line2.clear();
        let n = reader2.read_line(&mut line2).unwrap_or(0);
        assert_eq!(n, 0, "cut budget is shared across connections");
    }

    #[test]
    fn delay_matching_holds_only_matching_lines() {
        let addr = echo_server();
        let plan = ChaosPlan {
            client_to_server: LinePolicy {
                delay_matching: Some(("slow".to_string(), 120)),
                ..LinePolicy::default()
            },
            ..ChaosPlan::default()
        };
        let proxy = ChaosProxy::spawn(addr, plan).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        let start = std::time::Instant::now();
        stream.write_all(b"fast\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "echo:fast");
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "non-matching line should not be delayed"
        );

        let start = std::time::Instant::now();
        stream.write_all(b"slow ping\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "echo:slow ping");
        assert!(
            start.elapsed() >= Duration::from_millis(120),
            "matching line should be held for the full delay"
        );
    }

    #[test]
    fn partition_refuses_and_severs() {
        let addr = echo_server();
        let proxy = ChaosProxy::spawn(addr, ChaosPlan::default()).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.write_all(b"hello\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        proxy.partition(true);
        // Existing connection dies.
        line.clear();
        stream.write_all(b"post-partition\n").ok();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0);
        // New connections are refused (accepted then shut immediately).
        let probe = TcpStream::connect(proxy.addr()).unwrap();
        let mut probe_reader = BufReader::new(probe.try_clone().unwrap());
        let mut probe_line = String::new();
        let n = probe_reader.read_line(&mut probe_line).unwrap_or(0);
        assert_eq!(n, 0);
        // Heal and reconnect.
        proxy.partition(false);
        let mut stream2 = TcpStream::connect(proxy.addr()).unwrap();
        stream2.write_all(b"back\n").unwrap();
        let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
        let mut line2 = String::new();
        reader2.read_line(&mut line2).unwrap();
        assert_eq!(line2.trim(), "echo:back");
    }
}
