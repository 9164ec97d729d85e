//! Seeded randomness, sample statistics, reply digests and provenance.

use serde_json::Value;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every op sequence is a pure
/// function of the workload seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// A set of timing (or other) samples.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Midpoint median; 0 when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().fold(0.0, |a, b| a + b)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }
}

/// Op rates over consecutive blocks of a fixed number of ops, so a run
/// reports the median block rate as well as its whole-phase rate.
pub struct Blocks {
    size: usize,
    pending: usize,
    since: Instant,
    pub rates: Samples,
}

impl Blocks {
    pub fn new(size: usize) -> Blocks {
        Blocks {
            size,
            pending: 0,
            since: Instant::now(),
            rates: Samples::default(),
        }
    }

    /// Count `n` completed ops.
    pub fn done(&mut self, n: usize) {
        self.pending += n;
        if self.pending >= self.size {
            let now = Instant::now();
            let secs = (now - self.since).as_secs_f64();
            self.rates.push(self.pending as f64 / secs);
            self.pending = 0;
            self.since = now;
        }
    }
}

/// FNV-1a, folded over reply bodies in stream order.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ["ab", "c"] and ["a", "bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a reply line without its echoed id: everything from the
    /// `data`/`error` key on. Envelopes serialize as `ok`, `id`, then
    /// `data` or `error`, so the first such key is the envelope's own.
    pub fn add_reply(&mut self, line: &[u8]) {
        self.add(reply_body(line));
    }
}

/// The part of a reply line after its `id` echo.
pub fn reply_body(line: &[u8]) -> &[u8] {
    for key in [&b",\"data\":"[..], &b",\"error\":"[..]] {
        if let Some(at) = find(line, key) {
            return &line[at..];
        }
    }
    line
}

pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// `/proc/self/mounts`).
pub fn fs_type(path: &std::path::Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best = ("unknown".to_string(), 0usize);
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(mnt) && mnt.len() >= best.1 {
            best = (kind.to_string(), mnt.len());
        }
    }
    best.0
}

/// Run a program and return its trimmed stdout, or `"unknown"`.
fn capture(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Commit, date, host and command of this run, as a JSON object.
pub fn provenance(argv: &[String]) -> Value {
    // A checkout without git metadata still names its commit when the
    // caller exports it. Git is asked only about this directory's own
    // repository, never one it happens to sit inside.
    let commit = std::env::var("GEACC_BENCH_COMMIT")
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| {
            if std::path::Path::new(".git").exists() {
                capture("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            }
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut command = String::new();
    for (i, a) in argv.iter().enumerate() {
        if i > 0 {
            command.push(' ');
        }
        let _ = write!(command, "{a}");
    }
    obj(vec![
        ("commit", Value::String(commit)),
        (
            "source_fnv",
            Value::String(format!("{:016x}", source_digest())),
        ),
        (
            "date",
            Value::String(capture("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        ("nproc", num(nproc)),
        ("kernel", Value::String(kernel)),
        ("command", Value::String(command)),
    ])
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// (`crates/`, `vendor/`, the root manifests): the identity of the code
/// measured, for checkouts that carry no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("vendor".as_ref(), &mut files);
    files.sort();
    let mut digest = Digest::default();
    for path in files {
        digest.add(path.to_string_lossy().as_bytes());
        digest.add(&std::fs::read(&path).unwrap_or_default());
    }
    digest.0
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Any serializable scalar as a JSON value.
pub fn num<T: serde::Serialize>(x: T) -> Value {
    serde_json::to_value(&x).unwrap_or(Value::Null)
}
