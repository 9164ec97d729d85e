//! The wire protocol: newline-delimited JSON request/response envelopes.
//!
//! One request per line, one response per line, over a plain TCP stream —
//! debuggable with `nc`. Requests are objects with an `op` string, an
//! optional numeric `id` (echoed back for pipelining clients), and
//! op-specific fields alongside:
//!
//! ```json
//! {"op": "mutate", "id": 7, "mutation": {"AddConflict": {"a": 0, "b": 2}}}
//! ```
//!
//! Responses are `{"ok": true, "id": …, "data": …}` or
//! `{"ok": false, "id": …, "error": {"code": …, "message": …}}`.
//!
//! Envelopes are built and picked apart as [`Value`] trees by hand
//! rather than derived structs: the vendored serde derive treats missing
//! fields as hard errors, and the envelope is exactly where optional
//! fields (`id`, per-op parameters) live. Closed payload types
//! ([`geacc_core::Mutation`], instances, arrangements) still go through
//! derived serde via `from_value`.

use serde_json::{json, Value};
use std::io::{BufRead, Read, Write};

/// A parsed request line: the op name, the client's echo id, and the
/// whole object (ops fish their parameters out of it).
#[derive(Debug, Clone)]
pub struct Request {
    pub op: String,
    pub id: Option<u64>,
    pub body: Value,
}

/// A structured service error: a stable machine code plus a human
/// message, optionally carrying a `retry_after_ms` hint for rejections
/// the client should retry later (`overloaded`), and/or a
/// `primary_hint` address for rejections a client should redirect to
/// the cluster primary for (`read_only`, `stale_generation`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    pub code: &'static str,
    pub message: String,
    pub retry_after_ms: Option<u64>,
    pub primary_hint: Option<String>,
}

impl ServiceError {
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
            retry_after_ms: None,
            primary_hint: None,
        }
    }

    /// Attach a retry hint: the client should back off at least this
    /// long before resending.
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Attach a topology hint: the address where the current primary
    /// (the node that can serve this request) is believed to live.
    pub fn with_primary_hint(mut self, addr: impl Into<String>) -> Self {
        self.primary_hint = Some(addr.into());
        self
    }
}

/// Look up `key` in an object `Value`.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// `key` as a string, if present and a string.
pub fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match get(value, key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// `key` as a u64, if present and a non-negative integer.
pub fn get_u64(value: &Value, key: &str) -> Option<u64> {
    match get(value, key) {
        Some(v) => as_u64(v),
        None => None,
    }
}

/// A `Value` as a u64, if it is a non-negative integer.
pub fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Number(n) => serde_json::from_value(Value::Number(*n)).ok(),
        _ => None,
    }
}

/// Parse one request line. Errors carry the code the response should
/// use (`bad_json` for malformed lines, `bad_request` for well-formed
/// JSON that is not a request envelope).
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let body: Value = serde_json::from_str(line)
        .map_err(|e| ServiceError::new("bad_json", format!("malformed request: {e}")))?;
    let op = get_str(&body, "op")
        .ok_or_else(|| ServiceError::new("bad_request", "request must have a string \"op\""))?
        .to_string();
    let id = get_u64(&body, "id");
    Ok(Request { op, id, body })
}

fn id_value(id: Option<u64>) -> Value {
    match id {
        // A u64 always serializes; if the shim ever disagrees, a null
        // echo id beats panicking a worker mid-response.
        Some(id) => serde_json::to_value(&id).unwrap_or(Value::Null),
        None => Value::Null,
    }
}

/// A success envelope.
pub fn ok_envelope(id: Option<u64>, data: Value) -> Value {
    Value::Object(vec![
        ("ok".to_string(), json!(true)),
        ("id".to_string(), id_value(id)),
        ("data".to_string(), data),
    ])
}

/// An error envelope. `retry_after_ms` is emitted only when the error
/// carries the hint, so existing clients keep parsing the same shape.
pub fn err_envelope(id: Option<u64>, error: &ServiceError) -> Value {
    let mut fields = vec![
        ("code".to_string(), Value::String(error.code.to_string())),
        ("message".to_string(), Value::String(error.message.clone())),
    ];
    if let Some(ms) = error.retry_after_ms {
        // The vendored `json!` parses stringified tokens (literals
        // only), so the number Value is built via to_value.
        let ms = serde_json::to_value(&ms).unwrap_or(Value::Null);
        fields.push(("retry_after_ms".to_string(), ms));
    }
    if let Some(addr) = &error.primary_hint {
        fields.push(("primary_hint".to_string(), Value::String(addr.clone())));
    }
    Value::Object(vec![
        ("ok".to_string(), json!(false)),
        ("id".to_string(), id_value(id)),
        ("error".to_string(), Value::Object(fields)),
    ])
}

/// Stream one response line: the envelope, a newline, a flush (the
/// protocol is line-oriented, so the peer must see the line now, not at
/// buffer pressure). The line is staged in one buffer and written with a
/// single call — trickling an envelope through many small writes on an
/// unbuffered socket invites Nagle/delayed-ACK stalls of ~40 ms per
/// response.
pub fn write_response<W: Write>(mut writer: W, envelope: &Value) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(256);
    serde_json::to_writer(&mut line, envelope).map_err(|e| std::io::Error::other(e.to_string()))?;
    line.push(b'\n');
    writer.write_all(&line)?;
    writer.flush()
}

/// How [`read_line_capped`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// The buffer ends with a whole line, newline included.
    Line,
    /// The stream ended; the buffer holds whatever came after the last
    /// newline (nothing, or a torn last line).
    Eof,
    /// The line runs past the cap: the buffer holds its first `cap + 1`
    /// bytes and no newline.
    TooLong,
}

/// Read from `reader` onto the end of `line` up to and including the
/// next newline, holding no more than `cap` bytes of one line before
/// its newline, so a peer that never sends one costs at most `cap + 1`
/// buffered bytes. A read error (a timeout) leaves the bytes read so
/// far in `line`; calling again with the same buffer continues the
/// line.
pub fn read_line_capped<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    let room = (cap + 1).saturating_sub(line.len());
    reader.by_ref().take(room as u64).read_until(b'\n', line)?;
    Ok(if line.last() == Some(&b'\n') {
        LineRead::Line
    } else if line.len() > cap {
        LineRead::TooLong
    } else {
        LineRead::Eof
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_reads_stop_one_byte_past_the_cap() {
        let mut line = Vec::new();
        let mut reader = &b"abcd\nabcde\nab"[..];
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, b"abcd\n");
        line.clear();
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineRead::TooLong
        );
        assert_eq!(line, b"abcde");
        line.clear();
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, b"\n");
        line.clear();
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineRead::Eof
        );
        assert_eq!(line, b"ab");
        // A line cut short earlier continues, and still counts toward the cap.
        let mut line = b"ab".to_vec();
        let mut reader = &b"cd\n"[..];
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineRead::Line
        );
        let mut line = b"abc".to_vec();
        let mut reader = &b"de\n"[..];
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineRead::TooLong
        );
    }

    #[test]
    fn parses_op_id_and_body() {
        let r = parse_request(r#"{"op": "mutate", "id": 7, "mutation": {"x": 1}}"#).unwrap();
        assert_eq!(r.op, "mutate");
        assert_eq!(r.id, Some(7));
        assert!(get(&r.body, "mutation").is_some());

        let r = parse_request(r#"{"op": "stats"}"#).unwrap();
        assert_eq!(r.id, None);
    }

    #[test]
    fn rejects_malformed_and_envelope_less_lines() {
        assert_eq!(parse_request("{oops").unwrap_err().code, "bad_json");
        assert_eq!(
            parse_request(r#"{"id": 3}"#).unwrap_err().code,
            "bad_request"
        );
        assert_eq!(parse_request(r#"[1, 2]"#).unwrap_err().code, "bad_request");
    }

    #[test]
    fn envelopes_serialize_as_expected() {
        let ok = ok_envelope(Some(3), json!({"epoch": 1}));
        assert_eq!(
            serde_json::to_string(&ok).unwrap(),
            r#"{"ok":true,"id":3,"data":{"epoch":1}}"#
        );
        let err = err_envelope(None, &ServiceError::new("overloaded", "queue full"));
        let text = serde_json::to_string(&err).unwrap();
        assert!(text.contains(r#""ok":false"#));
        assert!(text.contains(r#""code":"overloaded""#));
        assert!(!text.contains("retry_after_ms"));
    }

    #[test]
    fn retry_after_hint_is_emitted_when_present() {
        let err = ServiceError::new("overloaded", "queue full").with_retry_after(25);
        let text = serde_json::to_string(&err_envelope(Some(1), &err)).unwrap();
        assert!(text.contains(r#""retry_after_ms":25"#));
        assert!(!text.contains("primary_hint"));
    }

    #[test]
    fn primary_hint_is_emitted_when_present() {
        let err = ServiceError::new("read_only", "replica refuses writes")
            .with_primary_hint("10.0.0.7:7411");
        let text = serde_json::to_string(&err_envelope(Some(1), &err)).unwrap();
        assert!(text.contains(r#""primary_hint":"10.0.0.7:7411""#));
    }

    #[test]
    fn write_response_emits_one_line_and_flushes() {
        let mut sink = Vec::new();
        write_response(&mut sink, &ok_envelope(None, json!(null))).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(text.matches('\n').count(), 1);
    }
}
