//! What one workload run reports: metrics with their sample counts, and
//! the ledger of ops attempted, succeeded and failed by class and cause.

use crate::util::{num, obj, Samples};
use serde_json::Value;
use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
    /// How: `median`, `p99`, `min` (fastest repeat), `mean`, `count`, …
    pub stat: &'static str,
}

impl Metric {
    pub fn json(&self) -> Value {
        obj(vec![
            ("value", num(self.value)),
            ("unit", Value::String(self.unit.into())),
            ("n", num(self.n)),
            ("stat", Value::String(self.stat.into())),
        ])
    }
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        n: usize,
        stat: &'static str,
    ) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            stat,
        });
    }

    pub fn median(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.put(name, s.median(), unit, s.len(), "median");
    }

    pub fn p99(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.put(name, s.quantile(0.99), unit, s.len(), "p99");
    }

    pub fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, 1, "count");
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn json(&self) -> Value {
        Value::Object(self.0.iter().map(|m| (m.name.clone(), m.json())).collect())
    }
}

/// Per op class: attempted, succeeded, and failures by cause.
#[derive(Default)]
pub struct Ledger {
    classes: BTreeMap<&'static str, (u64, u64, BTreeMap<String, u64>)>,
}

/// The cause a failed answer check is filed under. A reply with
/// `"ok": false` is filed under its error code (`overloaded`,
/// `deadline_exceeded`, `wal_failed`, …); a transport error ends the run
/// (exit 1), since the connection it broke carries the rest of the ops.
pub const MISMATCH: &str = "check_mismatch";

impl Ledger {
    pub fn ok(&mut self, class: &'static str) {
        let e = self.classes.entry(class).or_default();
        e.0 += 1;
        e.1 += 1;
    }

    pub fn fail(&mut self, class: &'static str, cause: &str) {
        let e = self.classes.entry(class).or_default();
        e.0 += 1;
        *e.2.entry(cause.to_string()).or_default() += 1;
    }

    /// File one reply: `ok` when it is a success envelope that passes
    /// `check`, else the server's error code or a check mismatch.
    pub fn reply(&mut self, class: &'static str, line: &[u8], check: bool) {
        if !line.starts_with(b"{\"ok\":true") {
            self.fail(class, &error_code(line));
        } else if check {
            self.ok(class);
        } else {
            self.fail(class, MISMATCH);
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        for (class, (attempted, ok, causes)) in other.classes {
            let e = self.classes.entry(class).or_default();
            e.0 += attempted;
            e.1 += ok;
            for (cause, n) in causes {
                *e.2.entry(cause).or_default() += n;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.0 - c.1).sum()
    }

    pub fn json(&self) -> Value {
        Value::Object(
            self.classes
                .iter()
                .map(|(class, (attempted, ok, causes))| {
                    let causes =
                        Value::Object(causes.iter().map(|(k, v)| (k.clone(), num(v))).collect());
                    (
                        class.to_string(),
                        obj(vec![
                            ("attempted", num(attempted)),
                            ("succeeded", num(ok)),
                            ("failed", causes),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The `error.code` of an error envelope (`overloaded`,
/// `deadline_exceeded`, `wal_failed`, …).
pub fn error_code(line: &[u8]) -> String {
    let key = b"\"code\":\"";
    crate::util::find(line, key)
        .map(|at| {
            let rest = &line[at + key.len()..];
            let end = rest.iter().position(|&b| b == b'"').unwrap_or(rest.len());
            String::from_utf8_lossy(&rest[..end]).into_owned()
        })
        .unwrap_or_else(|| "malformed_reply".into())
}
