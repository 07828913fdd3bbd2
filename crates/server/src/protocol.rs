//! Wire protocol: length-prefixed frames carrying text commands and JSON
//! replies.
//!
//! A frame is a 4-byte little-endian payload length followed by that many
//! payload bytes.  Requests are UTF-8 command lines (`GET`, `MGET`, `SCAN`,
//! `PUT`, `DEL`, `FLUSH`, `STATS`); responses are JSON objects rendered
//! with the hand-rolled
//! [`leco_bench::report::Json`] machinery.  Every response carries a
//! `code` field using HTTP-flavoured numbers: `200` success, `400` the
//! request was malformed (the connection survives), `500` the server failed
//! to execute a well-formed request.  See `docs/SERVING.md` for the byte
//! layout with a worked example.

use leco_bench::report::Json;
use leco_scan::{Agg, ScanSpec};

/// Hard ceiling on a frame payload.  A length prefix beyond this is treated
/// as a corrupt stream: the server replies with an error and closes, because
/// a length-prefixed protocol cannot resynchronise after an untrusted
/// length.
pub const MAX_FRAME: usize = 1 << 20;

/// Cap on the keys of a single `MGET` — bounds per-request memory.
pub const MAX_MGET_KEYS: usize = 4096;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `GET <key>` — exact-match point lookup.
    Get {
        /// Key to look up (no embedded whitespace — the command line is
        /// whitespace-tokenised).
        key: Vec<u8>,
    },
    /// `MGET <key> <key> …` — batched exact-match lookups, answered in
    /// request order.
    MGet {
        /// Keys, in the order the reply's `values` array will use.
        keys: Vec<Vec<u8>>,
    },
    /// `SCAN <table> [FILTER <col> <lo> <hi>] [GROUPBY <id> AGG avg <val> | SUM <col>]`
    Scan {
        /// Table name from the manifest.
        table: String,
        /// The filter and aggregate, columns by name.
        spec: ScanSpec,
    },
    /// `PUT <table> <v0> <v1> …` — ingest one row into a live table.  The
    /// `200` reply is sent only after the row's WAL batch is fsync'd.
    Put {
        /// Live table name from the manifest.
        table: String,
        /// One `u64` per column, in schema order.
        row: Vec<u64>,
    },
    /// `DEL <table> <key>` — delete every live row whose key column equals
    /// `key`.  Durable before the reply, like `PUT`.
    Del {
        /// Live table name from the manifest.
        table: String,
        /// Key-column value to delete.
        key: u64,
    },
    /// `FLUSH` — freeze and compact every live table on every shard; the
    /// reply reports how many rows moved into immutable table files.
    Flush,
    /// `STATS` — server/shard/registry counters.
    Stats,
}

/// Parse a request payload.  Errors are client-facing `400` messages.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let mut tokens = text.split_ascii_whitespace();
    let verb = tokens.next().ok_or_else(|| "empty request".to_string())?;
    match verb {
        "GET" => {
            let key = tokens.next().ok_or_else(|| "GET needs a key".to_string())?;
            if tokens.next().is_some() {
                return Err("GET takes exactly one key".into());
            }
            Ok(Request::Get {
                key: key.as_bytes().to_vec(),
            })
        }
        "MGET" => {
            let keys: Vec<Vec<u8>> = tokens.map(|t| t.as_bytes().to_vec()).collect();
            if keys.is_empty() {
                return Err("MGET needs at least one key".into());
            }
            if keys.len() > MAX_MGET_KEYS {
                return Err(format!("MGET is capped at {MAX_MGET_KEYS} keys"));
            }
            Ok(Request::MGet { keys })
        }
        "SCAN" => parse_scan(&mut tokens),
        "PUT" => {
            let table = tokens
                .next()
                .ok_or_else(|| "PUT needs a table name".to_string())?
                .to_string();
            let row = tokens
                .map(|t| {
                    t.parse::<u64>()
                        .map_err(|e| format!("PUT value {t:?} is not a u64: {e}"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            if row.is_empty() {
                return Err("PUT needs at least one column value".into());
            }
            Ok(Request::Put { table, row })
        }
        "DEL" => {
            let table = tokens
                .next()
                .ok_or_else(|| "DEL needs a table name".to_string())?
                .to_string();
            let key = parse_u64(tokens.next(), "DEL key")?;
            if tokens.next().is_some() {
                return Err("DEL takes exactly one key".into());
            }
            Ok(Request::Del { table, key })
        }
        "FLUSH" => {
            if tokens.next().is_some() {
                return Err("FLUSH takes no arguments".into());
            }
            Ok(Request::Flush)
        }
        "STATS" => {
            if tokens.next().is_some() {
                return Err("STATS takes no arguments".into());
            }
            Ok(Request::Stats)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn parse_scan<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<Request, String> {
    let table = tokens
        .next()
        .ok_or_else(|| "SCAN needs a table name".to_string())?
        .to_string();
    let mut spec = ScanSpec::count();
    while let Some(clause) = tokens.next() {
        match clause {
            "FILTER" => {
                if spec.filter.is_some() {
                    return Err("duplicate FILTER clause".into());
                }
                let col = tokens
                    .next()
                    .ok_or_else(|| "FILTER needs <col> <lo> <hi>".to_string())?;
                let lo = parse_u64(tokens.next(), "FILTER lo")?;
                let hi = parse_u64(tokens.next(), "FILTER hi")?;
                if lo > hi {
                    return Err(format!("FILTER range is empty: lo {lo} > hi {hi}"));
                }
                spec = spec.filter(col, lo, hi);
            }
            "GROUPBY" => {
                if spec.agg != Agg::Count {
                    return Err("duplicate aggregate clause".into());
                }
                let id = tokens
                    .next()
                    .ok_or_else(|| "GROUPBY needs <id> AGG avg <val>".to_string())?;
                if tokens.next() != Some("AGG") || tokens.next() != Some("avg") {
                    return Err("GROUPBY only supports `AGG avg`".into());
                }
                let val = tokens
                    .next()
                    .ok_or_else(|| "GROUPBY … AGG avg needs a value column".to_string())?;
                spec = spec.group_by_avg(id, val);
            }
            "SUM" => {
                if spec.agg != Agg::Count {
                    return Err("duplicate aggregate clause".into());
                }
                let col = tokens
                    .next()
                    .ok_or_else(|| "SUM needs a column".to_string())?;
                spec = spec.sum(col);
            }
            other => return Err(format!("unknown SCAN clause {other:?}")),
        }
    }
    Ok(Request::Scan { table, spec })
}

fn parse_u64(token: Option<&str>, what: &str) -> Result<u64, String> {
    token
        .ok_or_else(|| format!("{what} is missing"))?
        .parse::<u64>()
        .map_err(|e| format!("{what} is not a u64: {e}"))
}

/// Append a `[len | payload]` frame to `out`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why [`FrameCursor::next_frame`] refused to produce a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`]; the stream cannot be
    /// resynchronised and must be closed.
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder: bytes go in via [`Self::push`], complete
/// frames come out via [`Self::next_frame`].  This is what lets one read
/// syscall yield a whole *batch* of pipelined requests.
#[derive(Debug, Default)]
pub struct FrameCursor {
    buf: Vec<u8>,
    start: usize,
}

impl FrameCursor {
    /// An empty cursor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer bounded
        // by one partial frame plus one read chunk.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= MAX_FRAME) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame payload, `Ok(None)` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.start += 4 + len;
        Ok(Some(payload))
    }
}

/// `{"code":200,"status":"ok", …fields}`.
pub fn ok_response(fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("code".to_string(), Json::Num(200.0)),
        ("status".to_string(), Json::Str("ok".into())),
    ];
    obj.extend(fields);
    Json::Obj(obj)
}

/// `{"code":<code>,"status":"error","error":<message>}`.
pub fn error_response(code: u16, message: &str) -> Json {
    Json::Obj(vec![
        ("code".to_string(), Json::Num(code as f64)),
        ("status".to_string(), Json::Str("error".into())),
        ("error".to_string(), Json::Str(message.to_string())),
    ])
}

/// The `code` field of a response, `0` when missing or non-numeric.
pub fn response_code(reply: &Json) -> u16 {
    reply
        .get("code")
        .and_then(Json::as_f64)
        .map(|c| c as u16)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(
            parse_request(b"GET user42").unwrap(),
            Request::Get {
                key: b"user42".to_vec()
            }
        );
        assert_eq!(
            parse_request(b"MGET a b c").unwrap(),
            Request::MGet {
                keys: vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
            }
        );
        assert_eq!(
            parse_request(b"SCAN sensors FILTER ts 100 200 GROUPBY id AGG avg val").unwrap(),
            Request::Scan {
                table: "sensors".into(),
                spec: ScanSpec::count()
                    .filter("ts", 100, 200)
                    .group_by_avg("id", "val"),
            }
        );
        assert_eq!(
            parse_request(b"SCAN sensors SUM val").unwrap(),
            Request::Scan {
                table: "sensors".into(),
                spec: ScanSpec::count().sum("val"),
            }
        );
        assert_eq!(parse_request(b"STATS").unwrap(), Request::Stats);
        assert_eq!(
            parse_request(b"PUT sensors 17 3 9000").unwrap(),
            Request::Put {
                table: "sensors".into(),
                row: vec![17, 3, 9000],
            }
        );
        assert_eq!(
            parse_request(b"DEL sensors 17").unwrap(),
            Request::Del {
                table: "sensors".into(),
                key: 17,
            }
        );
        assert_eq!(parse_request(b"FLUSH").unwrap(), Request::Flush);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b""[..],
            b"FROB x",
            b"GET",
            b"GET a b",
            b"MGET",
            b"SCAN",
            b"SCAN t FILTER ts 5",
            b"SCAN t FILTER ts 9 3",
            b"SCAN t GROUPBY id AGG min val",
            b"SCAN t BOGUS",
            b"STATS now",
            b"PUT",
            b"PUT t",
            b"PUT t 1 nope 3",
            b"PUT t -4",
            b"DEL t",
            b"DEL t x",
            b"DEL t 1 2",
            b"FLUSH now",
            b"\xff\xfe",
        ] {
            assert!(parse_request(bad).is_err(), "{:?}", bad);
        }
    }

    #[test]
    fn frame_cursor_reassembles_split_and_batched_frames() {
        let mut wire = Vec::new();
        frame_into(&mut wire, b"GET a");
        frame_into(&mut wire, b"GET b");
        frame_into(&mut wire, b"STATS");
        let mut cursor = FrameCursor::new();
        // Feed one byte at a time: frames must come out intact and in order.
        let mut got = Vec::new();
        for byte in &wire {
            cursor.push(std::slice::from_ref(byte));
            while let Some(frame) = cursor.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(
            got,
            vec![b"GET a".to_vec(), b"GET b".to_vec(), b"STATS".to_vec()]
        );
        assert_eq!(cursor.pending_bytes(), 0);
    }

    #[test]
    fn frame_cursor_rejects_oversized_lengths() {
        let mut cursor = FrameCursor::new();
        cursor.push(&(u32::MAX).to_le_bytes());
        assert_eq!(
            cursor.next_frame(),
            Err(FrameError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn response_codes_round_trip() {
        assert_eq!(response_code(&ok_response(vec![])), 200);
        assert_eq!(response_code(&error_response(400, "nope")), 400);
        let rendered = error_response(500, "boom").render();
        assert_eq!(response_code(&Json::parse(&rendered).unwrap()), 500);
    }
}
