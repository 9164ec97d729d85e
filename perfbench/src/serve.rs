//! The real service in a child process, and a line client for it.
//!
//! The child is this binary re-run as `serve`: it binds `geacc-server`
//! the way `loadgen` does (`Server::bind` + `Server::run`) with every
//! thread count set explicitly, so the numbers do not depend on the
//! host's defaults. A process of its own gives the server its own peak
//! RSS and keeps the load generator out of its heap.

use crate::util;
use geacc_core::parallel::Threads;
use geacc_server::{FsyncPolicy, Server, ServerConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Event loops, workers and solve threads of every served workload.
pub const IO_THREADS: usize = 1;
pub const WORKERS: usize = 1;
pub const SOLVE_THREADS: usize = 1;
/// Deadline for requests without their own `timeout_ms`; generous, so
/// admission never expires a request on this benchmark's loads.
pub const DEFAULT_TIMEOUT_MS: u64 = 600_000;

/// The child side: serve until a `shutdown` op, then exit.
pub fn serve_main(wal_dir: Option<PathBuf>) -> Result<(), String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        io_threads: IO_THREADS,
        solve_threads: Threads::new(SOLVE_THREADS),
        default_timeout_ms: DEFAULT_TIMEOUT_MS,
        wal_dir,
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(())
}

/// A running server child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn start(wal_dir: Option<&Path>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").stdout(Stdio::piped()).stdin(Stdio::null());
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().ok_or("server stdout")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start: {line:?}"))
            }
        }
    }

    pub fn peak_rss_mb(&self) -> f64 {
        util::vm_hwm_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Ask the server to drain and exit; kill it if it does not.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.call(b"{\"op\": \"shutdown\"}").map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not drain within 20 s".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A newline-JSON connection with its own read buffer, so a reply's
/// arrival time is the time of the read that completed it.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    arrived: Instant,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            pos: 0,
            end: 0,
            arrived: Instant::now(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// The next reply line (without its newline) and when it arrived.
    pub fn read_line(&mut self) -> std::io::Result<(Instant, &[u8])> {
        loop {
            if let Some(i) = self.buf[self.pos..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let start = self.pos;
                self.pos += i + 1;
                return Ok((self.arrived, &self.buf[start..start + i]));
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        self.end += n;
        self.arrived = Instant::now();
        Ok(())
    }

    /// One request line, one reply (owned).
    pub fn call(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut framed = line.to_vec();
        framed.push(b'\n');
        self.send(&framed)?;
        Ok(self.read_line()?.1.to_vec())
    }
}
