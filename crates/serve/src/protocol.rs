//! The wire protocol: request/response shapes and frame codec.
//!
//! Over a socket, every message is one *frame*: a 4-byte big-endian length
//! followed by that many bytes of UTF-8 JSON. In batch mode the same JSON
//! documents travel newline-delimited over stdin/stdout instead (one
//! request per line, one response per line), which composes with shell
//! pipes the way the original one-shot `mao` does.
//!
//! Requests:
//!
//! ```json
//! {"type":"optimize","asm":"...","passes":"REDTEST:DCE",
//!  "isa":"x86-64",
//!  "options":{"jobs":2,"timeout_ms":5000,"cache":true}}
//! {"type":"stats"}
//! {"type":"metrics"}
//! {"type":"ping"}
//! {"type":"shutdown"}
//! ```
//!
//! `options.jobs` is untrusted input: the engine caps it, like every job
//! count, at the host's available parallelism (`0` still means auto). Output is byte-identical
//! at any job count, so the cap changes only how many threads run.
//!
//! Responses carry `"status":"ok"` or `"status":"error"`; see
//! [`Response`] for the exact members. The `stats` response embeds
//! `schema_version` inside the stats object and the `metrics` response
//! carries it top-level next to the Prometheus text payload; both use
//! [`crate::stats::STATS_SCHEMA_VERSION`].

use std::io::{self, Read, Write};

use mao::isa::IsaId;

use crate::json::Json;
use crate::stats::STATS_SCHEMA_VERSION;

/// Default cap on a single request frame (16 MiB of assembly is far beyond
/// any real translation unit).
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// Default per-request wall-clock timeout.
pub const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Optimize a unit.
    Optimize(OptimizeRequest),
    /// Snapshot server statistics.
    Stats,
    /// Prometheus text exposition of the metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Graceful drain-then-exit.
    Shutdown,
}

/// The `optimize` request payload.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Input assembly text.
    pub asm: String,
    /// `--mao=`-style pass string (e.g. `REDTEST:ADDADD`).
    pub passes: String,
    /// Worker threads for parsing and function-level passes (None = server
    /// default, 0 = auto). The engine caps it at the host's available
    /// parallelism.
    pub jobs: Option<usize>,
    /// Per-request wall-clock timeout override.
    pub timeout_ms: Option<u64>,
    /// Consult/populate the result cache (default true).
    pub use_cache: bool,
    /// Instruction set the request's assembly targets (wire member `isa`,
    /// default `x86-64`). Selects the parser dialect, keys the caches, and
    /// gates which passes may run.
    pub isa: IsaId,
}

impl Request {
    /// Parse a request from its JSON text.
    pub fn from_json_text(text: &str) -> Result<Request, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        Request::from_json(value)
    }

    /// Parse a request from a JSON value, moving the assembly text out of
    /// it rather than copying it.
    pub fn from_json(mut value: Json) -> Result<Request, String> {
        let ty = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string `type` member".to_string())?;
        match ty {
            "optimize" => {}
            "stats" => return Ok(Request::Stats),
            "metrics" => return Ok(Request::Metrics),
            "ping" => return Ok(Request::Ping),
            "shutdown" => return Ok(Request::Shutdown),
            other => return Err(format!("unknown request type `{other}`")),
        }
        let asm = match value.take("asm") {
            Some(Json::Str(asm)) => asm,
            _ => return Err("optimize request needs a string `asm`".to_string()),
        };
        let passes = value
            .get("passes")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let isa = match value.get("isa").and_then(Json::as_str) {
            None => IsaId::default(),
            Some(name) => IsaId::from_name(name).ok_or_else(|| format!("unknown isa `{name}`"))?,
        };
        let options = value.get("options");
        let get = |key: &str| options.and_then(|o| o.get(key));
        Ok(Request::Optimize(OptimizeRequest {
            asm,
            passes,
            jobs: get("jobs").and_then(Json::as_u64).map(|n| n as usize),
            timeout_ms: get("timeout_ms").and_then(Json::as_u64),
            use_cache: get("cache").and_then(Json::as_bool).unwrap_or(true),
            isa,
        }))
    }

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Optimize(req) => {
                let mut options = Vec::new();
                if let Some(jobs) = req.jobs {
                    options.push(("jobs".to_string(), Json::from(jobs)));
                }
                if let Some(t) = req.timeout_ms {
                    options.push(("timeout_ms".to_string(), Json::from(t)));
                }
                if !req.use_cache {
                    options.push(("cache".to_string(), Json::from(false)));
                }
                let mut pairs = vec![
                    ("type".to_string(), Json::from("optimize")),
                    ("asm".to_string(), Json::from(req.asm.clone())),
                    ("passes".to_string(), Json::from(req.passes.clone())),
                ];
                if req.isa != IsaId::default() {
                    pairs.push(("isa".to_string(), Json::from(req.isa.name())));
                }
                if !options.is_empty() {
                    pairs.push(("options".to_string(), Json::Obj(options)));
                }
                Json::Obj(pairs)
            }
            Request::Stats => Json::obj(vec![("type", Json::from("stats"))]),
            Request::Metrics => Json::obj(vec![("type", Json::from("metrics"))]),
            Request::Ping => Json::obj(vec![("type", Json::from("ping"))]),
            Request::Shutdown => Json::obj(vec![("type", Json::from("shutdown"))]),
        }
    }
}

/// Whether an optimize response was served from the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory cache tier; no optimization ran.
    Hit,
    /// Served from the persistent disk tier (and promoted to memory); no
    /// optimization ran, but the entry was read and verified from disk.
    DiskHit,
    /// Computed fresh and inserted into the cache.
    Miss,
    /// Caching disabled for this request.
    Bypass,
}

impl CacheOutcome {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::DiskHit => "hit_disk",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// Structured error classes a request can fail with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or missing members.
    BadRequest,
    /// The assembly did not parse (message carries line and text).
    Parse,
    /// A pass reported an error.
    Pass,
    /// A pass panicked; the request was isolated and the daemon lives on.
    Panic,
    /// The request exceeded its wall-clock budget.
    Timeout,
    /// The request frame exceeded the size limit.
    TooLarge,
    /// Admission control shed this request: the pending-request queue is
    /// at its high-water mark. The request was *not* queued; retrying
    /// after a backoff is expected to succeed.
    Busy,
    /// The server is draining and refused new work.
    ShuttingDown,
}

impl ErrorKind {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Parse => "parse",
            ErrorKind::Pass => "pass",
            ErrorKind::Panic => "panic",
            ErrorKind::Timeout => "timeout",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Busy => "busy",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }
}

/// Per-request wall-clock breakdown, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Parsing the input assembly.
    pub parse_us: u64,
    /// Running the pass pipeline.
    pub optimize_us: u64,
    /// Whole request, service-side.
    pub total_us: u64,
}

/// A successful optimize result (also the cached representation).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// Transformed assembly text.
    pub asm: String,
    /// Per-pass (name, transformations, matches).
    pub passes: Vec<(String, usize, usize)>,
    /// Per-pass wall-clock microseconds.
    pub timings_us: Vec<(String, u64)>,
    /// Pipeline trace lines.
    pub trace: Vec<String>,
}

impl OptimizeOutcome {
    /// Total transformations across passes.
    pub fn total_transformations(&self) -> usize {
        self.passes.iter().map(|(_, t, _)| t).sum()
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Optimization succeeded.
    Optimized {
        /// The result (fresh or cached).
        outcome: OptimizeOutcome,
        /// Cache disposition.
        cache: CacheOutcome,
        /// Request-level timings (zero parse/optimize on a hit).
        timings: Timings,
    },
    /// Stats snapshot (pre-rendered JSON object).
    Stats(Json),
    /// Prometheus text exposition of the metrics registry.
    Metrics(String),
    /// Ping answer.
    Pong,
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck,
    /// Structured failure.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable message (parse errors carry line + text verbatim).
        message: String,
    },
}

impl Response {
    /// Build the error variant.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
        }
    }

    /// Serialize to the wire JSON.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Optimized {
                outcome,
                cache,
                timings,
            } => Json::obj(vec![
                ("status", Json::from("ok")),
                ("asm", Json::from(outcome.asm.clone())),
                ("cache", Json::from(cache.as_str())),
                (
                    "stats",
                    Json::obj(vec![
                        (
                            "passes",
                            Json::Arr(
                                outcome
                                    .passes
                                    .iter()
                                    .map(|(name, transformations, matches)| {
                                        Json::obj(vec![
                                            ("name", Json::from(name.clone())),
                                            ("transformations", Json::from(*transformations)),
                                            ("matches", Json::from(*matches)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "total_transformations",
                            Json::from(outcome.total_transformations()),
                        ),
                    ]),
                ),
                (
                    "trace",
                    Json::Arr(
                        outcome
                            .trace
                            .iter()
                            .map(|l| Json::from(l.clone()))
                            .collect(),
                    ),
                ),
                (
                    "timings",
                    Json::obj(vec![
                        ("parse_us", Json::from(timings.parse_us)),
                        ("optimize_us", Json::from(timings.optimize_us)),
                        ("total_us", Json::from(timings.total_us)),
                        (
                            "per_pass_us",
                            Json::Arr(
                                outcome
                                    .timings_us
                                    .iter()
                                    .map(|(name, us)| {
                                        Json::obj(vec![
                                            ("name", Json::from(name.clone())),
                                            ("us", Json::from(*us)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ),
            ]),
            Response::Stats(stats) => {
                Json::obj(vec![("status", Json::from("ok")), ("stats", stats.clone())])
            }
            Response::Metrics(text) => Json::obj(vec![
                ("status", Json::from("ok")),
                ("schema_version", Json::from(STATS_SCHEMA_VERSION)),
                ("metrics", Json::from(text.clone())),
            ]),
            Response::Pong => Json::obj(vec![
                ("status", Json::from("ok")),
                ("pong", Json::from(true)),
            ]),
            Response::ShutdownAck => Json::obj(vec![
                ("status", Json::from("ok")),
                ("shutdown", Json::from(true)),
            ]),
            Response::Error { kind, message } => Json::obj(vec![
                ("status", Json::from("error")),
                (
                    "error",
                    Json::obj(vec![
                        ("kind", Json::from(kind.as_str())),
                        ("message", Json::from(message.clone())),
                    ]),
                ),
            ]),
        }
    }

    /// Serialize to compact JSON text.
    pub fn to_json_text(&self) -> String {
        self.to_json().to_string()
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum Frame {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer declared a frame beyond `max_len`; the body was drained and
    /// discarded so the connection stays usable.
    TooLarge(usize),
    /// Clean end of stream before a length prefix.
    Eof,
}

/// Read one length-prefixed frame, enforcing `max_len`.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(Frame::Eof),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_len {
        // Drain the declared body so the stream stays framed.
        let mut remaining = len as u64;
        let mut sink = [0u8; 8192];
        while remaining > 0 {
            let chunk = remaining.min(sink.len() as u64) as usize;
            r.read_exact(&mut sink[..chunk])?;
            remaining -= chunk as u64;
        }
        return Ok(Frame::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame::Payload(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Optimize(OptimizeRequest {
            asm: "nop\n".into(),
            passes: "REDTEST:DCE".into(),
            jobs: Some(2),
            timeout_ms: Some(500),
            use_cache: false,
            isa: IsaId::Aarch64,
        });
        let text = req.to_json().to_string();
        assert!(text.contains(r#""isa":"aarch64""#));
        assert_eq!(Request::from_json_text(&text).unwrap(), req);
        for simple in [
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ] {
            let text = simple.to_json().to_string();
            assert_eq!(Request::from_json_text(&text).unwrap(), simple);
        }
    }

    #[test]
    fn optimize_defaults() {
        let req = Request::from_json_text(r#"{"type":"optimize","asm":"nop\n"}"#).unwrap();
        match req {
            Request::Optimize(o) => {
                assert_eq!(o.passes, "");
                assert!(o.use_cache);
                assert_eq!(o.jobs, None);
                assert_eq!(o.isa, IsaId::X86_64, "x86-64 is the wire default");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn isa_member_selects_the_target() {
        let req =
            Request::from_json_text(r#"{"type":"optimize","asm":"ret\n","isa":"arm64"}"#).unwrap();
        match req {
            Request::Optimize(o) => assert_eq!(o.isa, IsaId::Aarch64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::from_json_text("[]").is_err());
        assert!(Request::from_json_text(r#"{"type":"frobnicate"}"#).is_err());
        assert!(Request::from_json_text(r#"{"type":"optimize"}"#).is_err());
        assert!(Request::from_json_text("not json").is_err());
        assert!(
            Request::from_json_text(r#"{"type":"optimize","asm":"","isa":"vax"}"#).is_err(),
            "unknown isa names are rejected up front"
        );
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, 1024).unwrap() {
            Frame::Payload(p) => assert_eq!(p, b"hello"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut cursor, 1024).unwrap() {
            Frame::Payload(p) => assert!(p.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(read_frame(&mut cursor, 1024).unwrap(), Frame::Eof));
    }

    #[test]
    fn oversized_frame_is_drained() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        write_frame(&mut buf, b"after").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, 10).unwrap() {
            Frame::TooLarge(n) => assert_eq!(n, 100),
            other => panic!("unexpected {other:?}"),
        }
        // The follow-up frame is still readable: the stream stayed framed.
        match read_frame(&mut cursor, 10).unwrap() {
            Frame::Payload(p) => assert_eq!(p, b"after"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_response_shape() {
        let r = Response::error(ErrorKind::Timeout, "too slow");
        let v = r.to_json();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("kind").unwrap().as_str(), Some("timeout"));
        assert_eq!(e.get("message").unwrap().as_str(), Some("too slow"));
    }
}
