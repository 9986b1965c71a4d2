//! The workspace's one flat-JSONL codec and its per-line CRC32 frame.
//!
//! Every artifact the workspace persists or sends — journals, cache
//! entries, the poison list, checkpoints, forensics snapshots, goldens,
//! BENCH files, reproducers, `faults.jsonl`, `chaos.jsonl`, `prof.jsonl`
//! and the `vtq-serve` wire protocol — is flat JSONL: one JSON object per
//! line whose values are scalars (a string, or a bare number, `true`,
//! `false`, `null`), never nested. [`quote`] is the only string escaper
//! and [`FlatRecord`] the only parser and encoder.
//!
//! [`frame_line`] appends a CRC32 field to a line and [`check_line`]
//! verifies and strips it. Lines without a checksum are accepted as
//! legacy (written before framing existed); a present-but-wrong checksum
//! is a typed [`CorruptFrame`] error, never a panic or a silent accept.
//! The codec lives here because checkpoints are the lowest layer that
//! writes a framed artifact.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};

/// Computes the IEEE CRC32 (reflected, polynomial `0xEDB88320`) of
/// `bytes`. Bitwise, table-free: artifact lines are short, so the
/// simplicity is worth more than a 1 KiB lookup table.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xffff_ffff, bytes) ^ 0xffff_ffff
}

/// Streaming form of [`crc32`]: feeds `bytes` into a running register
/// (seed with `0xffff_ffff`, finish by XOR-ing with `0xffff_ffff`).
/// Lets [`check_line`] hash a reconstructed line without allocating it.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    crc
}

/// The marker introducing the checksum suffix of a framed line.
const CRC_MARKER: &str = ",\"crc\":\"";
/// Total suffix length: `,"crc":"` + 8 hex digits + `"}`.
const CRC_SUFFIX_LEN: usize = CRC_MARKER.len() + 8 + 2;

/// A persisted line whose checksum field is present but wrong or
/// malformed. Carries everything a forensic message needs; parsers
/// surface it as their own typed error, they never panic on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptFrame {
    /// The checksum text stored on the line (may be malformed).
    pub stored: String,
    /// The CRC32 actually computed over the line's payload bytes.
    pub computed: u32,
    /// A short prefix of the offending line, for forensics.
    pub excerpt: String,
}

impl std::fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt frame: stored crc {:?} != computed {:08x} (line starts {:?})",
            self.stored, self.computed, self.excerpt
        )
    }
}

impl std::error::Error for CorruptFrame {}

/// Appends the checksum field to a flat JSON `line` (which must be a
/// complete `{...}` object): `{"k":"v"}` becomes
/// `{"k":"v","crc":"xxxxxxxx"}` where the CRC32 is computed over the
/// *original* line bytes. Lines that do not end in `}` (not flat JSON)
/// are returned unchanged so callers can frame unconditionally.
pub fn frame_line(line: &str) -> String {
    if !line.ends_with('}') {
        return line.to_string();
    }
    let crc = crc32(line.as_bytes());
    let body = &line[..line.len() - 1];
    format!("{body}{CRC_MARKER}{crc:08x}\"}}")
}

/// Frames each of `lines` with [`frame_line`] and terminates it with
/// `\n`: the body of a whole framed artifact.
pub fn frame_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> String {
    lines.into_iter().map(|l| frame_line(l.as_ref()) + "\n").collect()
}

/// Verifies a line written by [`frame_line`], returning the original
/// unframed line on success.
///
/// * Line carries a well-formed, matching checksum — `Ok` with the
///   suffix stripped.
/// * Checksum present but mismatched or malformed — `Err(CorruptFrame)`.
/// * No checksum field at all — `Ok` with the line as-is (legacy
///   artifact written before framing; its payload is parsed normally).
///
/// A bit flip *inside the checksum field name itself* demotes the line
/// to legacy-with-an-extra-field, which is accepted: the payload bytes
/// are intact in that case, so no wrong data is admitted.
pub fn check_line(line: &str) -> Result<String, CorruptFrame> {
    let Some(marker_at) = line.rfind(CRC_MARKER) else {
        return Ok(line.to_string()); // legacy unframed line
    };
    if accept_unverified() {
        // Sabotage gate (tests only): strip a well-formed suffix without
        // verifying, otherwise accept the line verbatim.
        if marker_at + CRC_SUFFIX_LEN == line.len() {
            return Ok(format!("{}}}", &line[..marker_at]));
        }
        return Ok(line.to_string());
    }
    let excerpt: String = line.chars().take(48).collect();
    let stored = &line[marker_at + CRC_MARKER.len()..];
    // Reconstruct the original line without allocating: payload prefix
    // up to the marker, then the closing brace the framer stripped.
    let computed =
        crc32_update(crc32_update(0xffff_ffff, &line.as_bytes()[..marker_at]), b"}") ^ 0xffff_ffff;
    // `get` (not indexing): corruption can land a multibyte char across
    // the slice boundary, and forensics must never panic.
    let hex = stored
        .get(..8)
        .filter(|_| marker_at + CRC_SUFFIX_LEN == line.len() && line.ends_with("\"}"));
    match hex.and_then(|h| u32::from_str_radix(h, 16).ok()) {
        Some(want) if want == computed => Ok(format!("{}}}", &line[..marker_at])),
        _ => Err(CorruptFrame { stored: stored.to_string(), computed, excerpt }),
    }
}

/// True if `line` carries a checksum suffix (well-formed or not).
pub fn is_framed(line: &str) -> bool {
    line.contains(CRC_MARKER)
}

static ACCEPT_UNVERIFIED: AtomicBool = AtomicBool::new(false);

fn accept_unverified() -> bool {
    ACCEPT_UNVERIFIED.load(Ordering::Relaxed)
}

/// Sabotage hook for the chaos campaign: when set, [`check_line`]
/// accepts every frame without verifying its checksum. The campaign's
/// per-seed canary (frame, flip a payload bit, expect `CorruptFrame`)
/// exists to catch exactly this being left on. Process-global; tests
/// touching it must restore `false`.
#[doc(hidden)]
pub fn sabotage_accept_unverified_frames(on: bool) {
    ACCEPT_UNVERIFIED.store(on, Ordering::Relaxed);
}

/// Quotes `s` as a JSON string literal. `"` and `\` are backslash-escaped,
/// `\n`, `\r` and `\t` use their short escapes, other control characters
/// become `\u00XX`, everything else (non-ASCII included) is copied as is.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A typed failure to read a flat record: which line, which field, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatError {
    /// 1-based line within the parsed text; 0 for a line parsed on its own
    /// or a failure of the document as a whole (empty, missing trailer).
    pub line: usize,
    /// The field at fault, if the failure is about one field.
    pub key: Option<String>,
    /// What was wrong.
    pub reason: String,
}

impl FlatError {
    /// An error about line `line` as a whole.
    pub fn new(line: usize, reason: impl Into<String>) -> FlatError {
        FlatError { line, key: None, reason: reason.into() }
    }
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "parse error: {}", self.reason),
            n => write!(f, "parse error at line {n}: {}", self.reason),
        }
    }
}

impl std::error::Error for FlatError {}

/// A field value: a string (held unescaped) or a bare token (number,
/// `true`, `false`, `null`) held as written, so records re-encode exactly.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Bare(String),
}

/// One flat JSON object: `"key":value` pairs with scalar values, in order.
///
/// Build with [`with_str`](Self::with_str)/[`with`](Self::with) and encode
/// with `to_string()` (frame it with [`frame_line`]); read with
/// [`parse`](Self::parse) or [`records`] and the typed getters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatRecord {
    line: usize,
    fields: Vec<(String, Scalar)>,
}

/// Parses every non-blank line of `text`, numbering lines from 1.
pub fn records(text: &str) -> impl Iterator<Item = Result<FlatRecord, FlatError>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| FlatRecord::parse_numbered(i + 1, l))
}

impl FlatRecord {
    /// Appends a string field.
    pub fn with_str(mut self, key: &str, value: &str) -> FlatRecord {
        self.fields.push((key.to_string(), Scalar::Str(value.to_string())));
        self
    }

    /// Appends a bare field (a number or `bool`) rendered with `Display`.
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> FlatRecord {
        self.fields.push((key.to_string(), Scalar::Bare(value.to_string())));
        self
    }

    /// Parses one line: verifies its CRC frame with [`check_line`], then
    /// requires exactly one complete flat object. A torn line, an
    /// unterminated string, a bad escape, a nested value, a duplicate key
    /// or trailing bytes is a [`FlatError`] (at line 0).
    pub fn parse(line: &str) -> Result<FlatRecord, FlatError> {
        FlatRecord::parse_numbered(0, line)
    }

    fn parse_numbered(line: usize, text: &str) -> Result<FlatRecord, FlatError> {
        let payload = check_line(text).map_err(|e| FlatError::new(line, e.to_string()))?;
        let mut p = Parser { s: payload.as_bytes(), at: 0 };
        let fields = p.object().map_err(|reason| FlatError::new(line, reason))?;
        Ok(FlatRecord { line, fields })
    }

    /// The 1-based line this record was read from (0 if parsed alone).
    pub fn line(&self) -> usize {
        self.line
    }

    /// An error about field `key` of this record.
    pub fn error(&self, key: &str, reason: impl Into<String>) -> FlatError {
        FlatError { line: self.line, key: Some(key.to_string()), reason: reason.into() }
    }

    fn get(&self, key: &str) -> Option<&Scalar> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn required<T>(&self, key: &str, value: Option<T>) -> Result<T, FlatError> {
        value.ok_or_else(|| self.error(key, format!("missing field `{key}`")))
    }

    /// String field `key`; `None` if absent, an error if not a string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, FlatError> {
        match self.get(key) {
            None => Ok(None),
            Some(Scalar::Str(s)) => Ok(Some(s)),
            Some(Scalar::Bare(b)) => {
                Err(self.error(key, format!("field `{key}` is not a string: {b}")))
            }
        }
    }

    /// String field `key`, required.
    pub fn str(&self, key: &str) -> Result<&str, FlatError> {
        self.required(key, self.opt_str(key)?)
    }

    /// String field `key` decoded by `decode`, whose error is attributed
    /// to this line and key.
    pub fn str_with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, FlatError> {
        decode(self.str(key)?).map_err(|reason| self.error(key, format!("field `{key}`: {reason}")))
    }

    /// Bare field `key` parsed as `T`; `None` if absent.
    fn opt_bare<T: std::str::FromStr>(
        &self,
        key: &str,
        what: &str,
    ) -> Result<Option<T>, FlatError> {
        let bad =
            |v: &dyn fmt::Debug| self.error(key, format!("field `{key}` is not {what}: {v:?}"));
        match self.get(key) {
            None => Ok(None),
            Some(Scalar::Bare(b)) => b.parse().map(Some).map_err(|_| bad(b)),
            Some(Scalar::Str(s)) => Err(bad(s)),
        }
    }

    /// Unsigned integer field `key`; `None` if absent.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, FlatError> {
        self.opt_bare(key, "an integer")
    }

    /// Unsigned integer field `key`, required.
    pub fn u64(&self, key: &str) -> Result<u64, FlatError> {
        self.required(key, self.opt_u64(key)?)
    }

    /// Number field `key`, required.
    pub fn f64(&self, key: &str) -> Result<f64, FlatError> {
        self.required(key, self.opt_bare(key, "a number")?)
    }

    /// `true`/`false` field `key`, required.
    pub fn bool(&self, key: &str) -> Result<bool, FlatError> {
        self.required(key, self.opt_bare(key, "a boolean")?)
    }
}

impl fmt::Display for FlatRecord {
    /// Encodes the record as one line, fields in insertion order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            match value {
                Scalar::Str(s) => write!(f, "{sep}{}:{}", quote(key), quote(s))?,
                Scalar::Bare(b) => write!(f, "{sep}{}:{b}", quote(key))?,
            }
        }
        f.write_str("}")
    }
}

const TORN: &str = "not a JSON object: the line ends inside it (torn line)";

/// Reader of one flat object; errors are reasons, without the line.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn object(&mut self) -> Result<Vec<(String, Scalar)>, String> {
        if self.peek() != Some(b'{') {
            return Err("not a JSON object".to_string());
        }
        self.at += 1;
        let mut fields: Vec<(String, Scalar)> = Vec::new();
        let mut close = self.peek() == Some(b'}');
        while !close {
            if self.peek() != Some(b'"') {
                return Err(self.unexpected("a quoted key"));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(self.unexpected(&format!("`:` after key `{key}`")));
            }
            self.at += 1;
            let value = match self.peek() {
                Some(b'"') => Scalar::Str(self.string()?),
                _ => Scalar::Bare(self.bare()?),
            };
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field `{key}`"));
            }
            fields.push((key, value));
            close = match self.peek() {
                Some(b',') => false,
                Some(b'}') => true,
                _ => return Err(self.unexpected("`,` or `}`")),
            };
            self.at += usize::from(!close);
        }
        self.at += 1;
        if self.peek().is_some() {
            return Err("trailing bytes after the object".to_string());
        }
        Ok(fields)
    }

    /// Skips whitespace and peeks at the next byte.
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        self.s.get(self.at).copied()
    }

    fn unexpected(&self, wanted: &str) -> String {
        match self.s.get(self.at) {
            None => TORN.to_string(),
            Some(&b) => format!("malformed pair: expected {wanted}, found `{}`", char::from(b)),
        }
    }

    /// A bare token: ASCII letters, digits, `+`, `-` and `.`.
    fn bare(&mut self) -> Result<String, String> {
        let start = self.at;
        while self.s.get(self.at).is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b)) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.unexpected("a scalar value"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.at]).into_owned())
    }

    /// A quoted string starting at its opening `"`, unescaped.
    fn string(&mut self) -> Result<String, String> {
        let mut out = Vec::new();
        loop {
            self.at += 1;
            match *self.s.get(self.at).ok_or(TORN)? {
                b'"' => break,
                b'\\' => {
                    self.at += 1;
                    let c = match *self.s.get(self.at).ok_or(TORN)? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.at + 1..self.at + 5).ok_or(TORN)?;
                            self.at += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad `\\u` escape in string")?
                        }
                        e => return Err(format!("bad escape `\\{}` in string", char::from(e))),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b if b < 0x20 => return Err("raw control character in string".to_string()),
                b => out.push(b),
            }
        }
        self.at += 1;
        String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"record\":\"cell\",\"key\":\"bunny/base\",\"cycles\":12345}";

    #[test]
    fn frame_round_trips() {
        let framed = frame_line(LINE);
        assert!(is_framed(&framed), "{framed}");
        assert_eq!(check_line(&framed).unwrap(), LINE);
        let record = FlatRecord::parse(&framed).unwrap();
        assert_eq!(record.to_string(), LINE);
    }

    #[test]
    fn legacy_unframed_lines_are_accepted() {
        assert!(!is_framed(LINE));
        assert_eq!(check_line(LINE).unwrap(), LINE);
        assert_eq!(FlatRecord::parse(LINE).unwrap().u64("cycles").unwrap(), 12345);
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_payload_safe() {
        let original = FlatRecord::parse(LINE).unwrap();
        let framed = frame_line(LINE);
        for i in 0..framed.len() {
            for bit in 0..8u8 {
                let mut bytes = framed.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue; // read_to_string would already have failed
                };
                match check_line(&mutated) {
                    // Detected: the typed error, never a panic.
                    Err(_) => {}
                    // Accepted: only legal if the payload bytes are
                    // intact (the flip landed in the crc field itself,
                    // demoting the line to legacy-with-extra-field).
                    Ok(got) => assert!(
                        got.starts_with(&LINE[..LINE.len() - 1]),
                        "flip at byte {i} bit {bit} accepted altered payload: {got}"
                    ),
                }
                // The record parser inherits the guarantee: every field it
                // admits is an original field.
                if let Ok(record) = FlatRecord::parse(&mutated) {
                    assert!(
                        record.fields.starts_with(&original.fields),
                        "flip at byte {i} bit {bit} parsed altered fields: {record}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_frames_are_corrupt_not_legacy() {
        let framed = frame_line(LINE);
        for line in [LINE, framed.as_str()] {
            for torn in (0..line.len()).map(|cut| &line[..cut]) {
                assert!(FlatRecord::parse(torn).is_err(), "prefix accepted: {torn}");
                if torn.contains(CRC_MARKER) {
                    assert!(check_line(torn).is_err(), "torn frame accepted: {torn}");
                }
            }
        }
    }

    #[test]
    fn adversarial_strings_round_trip() {
        let nasty = [
            "",
            "plain",
            "a \"quoted\" word",
            "back\\slash \\\" and \\\\",
            "cr\rlf\n tab\t bell\u{7} one\u{1} del\u{7f}",
            "commas, colons: {braces} [brackets]",
            ",\"crc\":\"deadbeef\"}",
            "naïve café ☃ 😀",
        ];
        for s in nasty {
            let record = FlatRecord::default().with_str("record", "t").with_str(s, s).with("n", 7);
            for line in [record.to_string(), frame_line(&record.to_string())] {
                assert!(!line.contains('\n') && !line.contains('\r'), "raw newline in {line}");
                let back = FlatRecord::parse(&line).unwrap_or_else(|e| panic!("{s:?}: {e}"));
                assert_eq!(back.str(s).unwrap(), s);
                assert_eq!(back.u64("n").unwrap(), 7);
                assert_eq!(back, record);
            }
        }
        assert_eq!(quote("a\"b\\c\nd\r\u{1}é"), "\"a\\\"b\\\\c\\nd\\r\\u0001é\"");
    }

    #[test]
    fn malformed_objects_are_typed_errors() {
        for (line, reason) in [
            ("garbage", "not a JSON object"),
            ("{\"k\" \"v\"}", "malformed pair"),
            ("{\"k\":\"v\"} extra", "trailing bytes"),
            ("{\"k\":\"v\"}}", "trailing bytes"),
            ("{\"k\":{\"nested\":1}}", "malformed pair"),
            ("{\"k\":1,\"k\":2}", "duplicate field `k`"),
            ("{\"k\":\"bad \\q escape\"}", "bad escape"),
            ("{\"k\":\"raw\tcontrol\"}", "raw control character"),
            ("{\"k\":}", "expected a scalar value"),
            ("{\"k\":1,}", "malformed pair"),
        ] {
            let err = FlatRecord::parse(line).expect_err(line);
            assert!(err.reason.contains(reason), "{line}: {err}");
        }
        assert!(FlatRecord::parse("  {} ").unwrap().fields.is_empty());
    }

    #[test]
    fn getters_check_types_and_name_the_key() {
        let text = "\n{\"s\":\"x\",\"n\":3,\"f\":-1.5e-3,\"b\":true,\"z\":null}\n";
        let record = records(text).next().unwrap().unwrap();
        assert_eq!(record.line(), 2);
        assert_eq!(record.str("s").unwrap(), "x");
        assert_eq!(record.u64("n").unwrap(), 3);
        assert_eq!(record.f64("f").unwrap(), -1.5e-3);
        assert!(record.bool("b").unwrap());
        assert_eq!(record.opt_str("missing").unwrap(), None);
        assert_eq!(record.opt_u64("missing").unwrap(), None);
        for (err, key) in [
            (record.str("n").unwrap_err(), "n"),
            (record.u64("s").unwrap_err(), "s"),
            (record.u64("f").unwrap_err(), "f"),
            (record.u64("z").unwrap_err(), "z"),
            (record.bool("n").unwrap_err(), "n"),
            (record.str("missing").unwrap_err(), "missing"),
            (record.str_with("s", |_| Err::<(), _>("nope".to_string())).unwrap_err(), "s"),
        ] {
            assert_eq!((err.line, err.key.as_deref()), (2, Some(key)), "{err}");
            assert!(err.to_string().contains("line 2"), "{err}");
        }
    }

    /// Every committed artifact line is in the codec's grammar and
    /// re-encodes to its exact payload bytes.
    #[test]
    fn committed_artifacts_reencode_byte_identically() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files: Vec<_> = ["golden", "perf"]
            .iter()
            .flat_map(|dir| std::fs::read_dir(root.join(dir)).unwrap())
            .map(|entry| entry.unwrap().path())
            .collect();
        assert!(files.len() >= 9, "committed goldens, BENCH files and journal: {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            for (no, line) in text.lines().enumerate() {
                let record = FlatRecord::parse(line)
                    .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), no + 1));
                assert_eq!(record.to_string(), check_line(line).unwrap(), "{}", path.display());
            }
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
