//! Wire protocol: length-prefixed frames carrying text commands and JSON
//! or binary replies.
//!
//! A frame is a 4-byte little-endian payload length followed by that many
//! payload bytes.  Requests are UTF-8 command lines (`GET`, `MGET`, `SCAN`,
//! `PUT`, `DEL`, `FLUSH`, `STATS`); responses are JSON objects rendered
//! with the hand-rolled
//! [`leco_bench::report::Json`] machinery, except a successful `SCAN`,
//! whose exact integer result travels as one binary frame
//! ([`encode_scan_reply`]) that the client turns back into the same JSON
//! object ([`decode_scan_reply`]).  Every response carries a
//! `code` field using HTTP-flavoured numbers: `200` success, `400` the
//! request was malformed (the connection survives), `500` the server failed
//! to execute a well-formed request.  See `docs/SERVING.md` for the byte
//! layout with a worked example.

use leco_bench::report::Json;
use leco_columnar::Partial;
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

/// First payload byte of a binary `SCAN` reply.  It is a UTF-8
/// continuation byte, so no JSON reply — which always starts with `{` —
/// and no UTF-8 text at all can start with it.
pub const SCAN_REPLY_TAG: u8 = 0x80;

/// Append the payload of a `200` `SCAN` reply for `partial`, merged from
/// `shards` shards: [`SCAN_REPLY_TAG`], then LEB128 varints for
/// `rows_selected`, `rows_scanned`, `morsels`, `shards`, `sum` and the
/// group count, then one `(id delta, sum, count)` entry per group in
/// ascending id order (the first id is absolute).
pub fn encode_scan_reply(out: &mut Vec<u8>, partial: &Partial, shards: usize) {
    let groups = &partial.groups;
    out.push(SCAN_REPLY_TAG);
    for field in [
        partial.rows_selected as u128,
        partial.rows_scanned as u128,
        partial.morsels as u128,
        shards as u128,
        partial.sum,
        groups.len() as u128,
    ] {
        put_varint(out, field);
    }
    let mut prev = 0u64;
    for &(id, sum, count) in groups {
        put_varint(out, (id - prev) as u128);
        put_varint(out, sum);
        put_varint(out, count as u128);
        prev = id;
    }
}

/// Decode a binary `SCAN` reply into the JSON object a client sees:
/// `code`, `status`, `rows_selected`, `rows_scanned`, `morsels`, `shards`,
/// `sum` (a decimal string — a `u128` does not survive an f64) and `groups`
/// as `[[id, avg], …]`, with each average divided the way
/// [`Partial::group_avgs`] divides.
///
/// A truncated or corrupt frame is an `Err`, never a panic; allocation is
/// bounded by the payload's length, since every group takes at least three
/// bytes.
pub fn decode_scan_reply(payload: &[u8]) -> Result<Json, String> {
    match payload.first() {
        Some(&SCAN_REPLY_TAG) => {}
        Some(tag) => return Err(format!("unknown reply tag {tag:#04x}")),
        None => return Err("empty reply".into()),
    }
    let mut pos = 1;
    let u64_field = |pos: &mut usize| get_varint(payload, pos, 64).map(|v| v as u64);
    let rows_selected = u64_field(&mut pos)?;
    let rows_scanned = u64_field(&mut pos)?;
    let morsels = u64_field(&mut pos)?;
    let shards = u64_field(&mut pos)?;
    let sum = get_varint(payload, &mut pos, 128)?;
    let n_groups = u64_field(&mut pos)?;
    if n_groups > ((payload.len() - pos) / 3) as u64 {
        return Err(format!("{n_groups} groups cannot fit the frame"));
    }
    let mut groups = Vec::with_capacity(n_groups as usize);
    let mut id = 0u64;
    for g in 0..n_groups {
        let delta = u64_field(&mut pos)?;
        id = match id.checked_add(delta) {
            Some(next) if g == 0 || delta > 0 => next,
            _ => return Err(format!("group {g}: id delta {delta} after id {id}")),
        };
        let group_sum = get_varint(payload, &mut pos, 128)?;
        let count = u64_field(&mut pos)?;
        if count == 0 {
            return Err(format!("group {g}: zero count"));
        }
        let avg = group_sum as f64 / count as f64;
        groups.push(Json::Arr(vec![Json::Num(id as f64), Json::Num(avg)]));
    }
    if pos != payload.len() {
        return Err(format!("{} trailing bytes", payload.len() - pos));
    }
    Ok(ok_response(vec![
        ("rows_selected".into(), Json::Num(rows_selected as f64)),
        ("rows_scanned".into(), Json::Num(rows_scanned as f64)),
        ("morsels".into(), Json::Num(morsels as f64)),
        ("shards".into(), Json::Num(shards as f64)),
        ("sum".into(), Json::Str(sum.to_string())),
        ("groups".into(), Json::Arr(groups)),
    ]))
}

/// Append `value` as an unsigned LEB128 varint: seven bits per byte, low
/// group first, the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut value: u128) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Read one LEB128 varint of at most `bits` bits at `*pos`.  Rejects a
/// truncated varint, one whose value overflows `bits`, and a non-canonical
/// one that ends in a zero continuation group.
fn get_varint(bytes: &[u8], pos: &mut usize, bits: u32) -> Result<u128, String> {
    let mut value = 0u128;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or("truncated scan reply")?;
        *pos += 1;
        let low = (byte & 0x7f) as u128;
        if shift >= bits || (bits - shift < 7 && low >> (bits - shift) != 0) {
            return Err(format!("varint overflows {bits} bits"));
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err("over-long varint".into());
            }
            return Ok(value);
        }
        shift += 7;
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
    use proptest::prelude::*;

    /// The JSON object the server rendered for a `SCAN` before replies
    /// went binary: the oracle [`decode_scan_reply`] must reproduce.
    fn scan_reply_json(merged: &Partial, n_shards: usize) -> Json {
        let groups = merged.group_avgs();
        ok_response(vec![
            (
                "rows_selected".into(),
                Json::Num(merged.rows_selected as f64),
            ),
            ("rows_scanned".into(), Json::Num(merged.rows_scanned as f64)),
            ("morsels".into(), Json::Num(merged.morsels as f64)),
            ("shards".into(), Json::Num(n_shards as f64)),
            ("sum".into(), Json::Str(merged.sum.to_string())),
            (
                "groups".into(),
                Json::Arr(
                    groups
                        .iter()
                        .map(|&(id, avg)| Json::Arr(vec![Json::Num(id as f64), Json::Num(avg)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn encoded(partial: &Partial, shards: usize) -> Vec<u8> {
        let mut out = Vec::new();
        encode_scan_reply(&mut out, partial, shards);
        out
    }

    /// Spread a uniform draw over every magnitude: shift it right by a
    /// random amount, so small, mid-sized and maximal values all occur.
    fn spread(x: u128, shift: u8) -> u128 {
        x >> (shift % 128)
    }

    fn partial_from(ids: &[u64], sums: &[u128], counts: &[u64]) -> Partial {
        let mut p = Partial {
            rows_scanned: ids.len() as u64 * 3,
            rows_selected: ids.len() as u64,
            morsels: ids.len() / 7,
            sum: sums.iter().fold(0u128, |a, &s| a.wrapping_add(s)),
            ..Partial::default()
        };
        for (i, &id) in ids.iter().enumerate() {
            p.groups.push((id, sums[i], counts[i]));
        }
        p
    }

    proptest! {
        #[test]
        fn scan_reply_round_trips_to_the_json_oracle(
            ids in proptest::collection::btree_set(any::<u64>(), 0..2_001),
            raw_sums in proptest::collection::vec(any::<u128>(), 2_000),
            shifts in proptest::collection::vec(any::<u8>(), 2_000),
            raw_counts in proptest::collection::vec(any::<u64>(), 2_000),
            shards in 1usize..=4,
        ) {
            let ids: Vec<u64> = ids.into_iter().collect();
            let sums: Vec<u128> = raw_sums
                .iter()
                .zip(&shifts)
                .map(|(&s, &k)| spread(s, k))
                .collect();
            let counts: Vec<u64> = raw_counts
                .iter()
                .zip(&shifts)
                .map(|(&c, &k)| (spread(c as u128, k / 2) as u64).max(1))
                .collect();
            let p = partial_from(&ids, &sums, &counts);
            let frame = encoded(&p, shards);
            let json = decode_scan_reply(&frame).unwrap();
            let oracle = scan_reply_json(&p, shards);
            prop_assert_eq!(json.render(), oracle.render());
            prop_assert!(frame.len() <= oracle.render().len());
            let got = json.get("groups").and_then(Json::as_arr).unwrap();
            let want = p.group_avgs();
            prop_assert_eq!(got.len(), want.len());
            for (pair, &(id, avg)) in got.iter().zip(&want) {
                let pair = pair.as_arr().unwrap();
                prop_assert_eq!(pair[0].as_f64().unwrap(), id as f64);
                prop_assert_eq!(pair[1].as_f64().unwrap().to_bits(), avg.to_bits());
            }
        }
    }

    #[test]
    fn scan_reply_edges_round_trip() {
        let extremes = partial_from(
            &[0, 1, u64::MAX - 1, u64::MAX],
            &[0, u128::MAX, 1, u128::MAX],
            &[1, u64::MAX, 3, 1],
        );
        let mut maxed = extremes.clone();
        maxed.rows_scanned = u64::MAX;
        maxed.rows_selected = u64::MAX;
        maxed.morsels = usize::MAX;
        maxed.sum = u128::MAX;
        for (p, shards) in [(Partial::default(), 1), (extremes, 4), (maxed, 2)] {
            let json = decode_scan_reply(&encoded(&p, shards)).unwrap();
            assert_eq!(json.render(), scan_reply_json(&p, shards).render());
        }
    }

    /// Valid frames covering zero, one and many groups, small and huge
    /// values.
    fn sample_frames() -> Vec<Vec<u8>> {
        vec![
            encoded(&Partial::default(), 1),
            encoded(&partial_from(&[7], &[300], &[2]), 2),
            encoded(
                &partial_from(
                    &[0, 5, 130, u64::MAX],
                    &[1, 1 << 70, 0, u128::MAX],
                    &[1, 9, 200, 4],
                ),
                4,
            ),
        ]
    }

    #[test]
    fn scan_reply_rejects_corrupt_frames() {
        let group_frame = encoded(&partial_from(&[7, 9], &[300, 5], &[2, 1]), 2);
        // tag, rows_selected 2, rows_scanned 6, morsels 0, shards 2,
        // sum 305 (0xB1 0x02), 2 groups, then (7, 300 = 0xAC 0x02, 2)
        // and (delta 2, 5, 1).
        assert_eq!(
            group_frame,
            [0x80, 2, 6, 0, 2, 0xB1, 0x02, 2, 7, 0xAC, 0x02, 2, 2, 5, 1]
        );
        let with = |at: usize, bytes: &[u8]| {
            let mut f = group_frame[..at].to_vec();
            f.extend_from_slice(bytes);
            f
        };
        let mut eleven_byte = vec![0x80u8, 0xFF];
        eleven_byte.extend_from_slice(&[0xFF; 9]);
        eleven_byte.push(0x01);
        let unknown_tag: Vec<u8> = [0x81].iter().chain(&group_frame[1..]).copied().collect();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty reply", vec![]),
            ("unknown reply tag 0x81", unknown_tag),
            ("unknown reply tag 0x7b", b"{\"code\":200}".to_vec()),
            ("truncated", vec![0x80, 0x85]),
            ("truncated", group_frame[..5].to_vec()),
            ("truncated", group_frame[..14].to_vec()),
            ("over-long", vec![0x80, 0x82, 0x00, 6, 0, 2, 0, 0]),
            ("overflows 64", eleven_byte),
            (
                "overflows 64",
                vec![
                    0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02,
                ],
            ),
            ("zero count", with(12, &[2, 5, 0])),
            ("id delta 0", with(12, &[0, 5, 1])),
            (
                "after id 7",
                with(
                    12,
                    &[
                        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 5, 1,
                    ],
                ),
            ),
            ("65536 groups cannot fit", {
                let mut f = with(7, &[0x80, 0x80, 0x04]);
                f.extend_from_slice(&group_frame[8..]);
                f
            }),
            ("1 trailing bytes", with(15, &[0])),
        ];
        for (want, frame) in cases {
            let err = decode_scan_reply(&frame).unwrap_err();
            assert!(err.contains(want), "{frame:?}: {err:?} lacks {want:?}");
        }
        assert!(decode_scan_reply(&group_frame).is_ok());
        // u128 sums: 19 bytes hold 128 bits, a 20th is over-long, and a
        // 19th byte above 0x03 overflows.
        let mut max_sum = vec![0x80, 0, 0, 0, 1];
        put_varint(&mut max_sum, u128::MAX);
        assert_eq!(max_sum.len(), 5 + 19);
        let mut ok = max_sum.clone();
        ok.push(0);
        assert!(decode_scan_reply(&ok).is_ok());
        let mut overflow = max_sum.clone();
        *overflow.last_mut().unwrap() = 0x07;
        overflow.push(0);
        assert!(decode_scan_reply(&overflow).is_err());
    }

    #[test]
    fn scan_reply_truncations_and_bit_flips_are_errors_or_well_formed() {
        for frame in sample_frames() {
            for len in 0..frame.len() {
                assert!(decode_scan_reply(&frame[..len]).is_err(), "prefix {len}");
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(json) = decode_scan_reply(&flipped) {
                    let text = json.render();
                    assert_eq!(Json::parse(&text).unwrap().render(), text);
                    assert_eq!(response_code(&json), 200);
                    let groups = json.get("groups").and_then(Json::as_arr).unwrap();
                    assert!(groups.len() <= flipped.len() / 3);
                }
            }
        }
    }

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
