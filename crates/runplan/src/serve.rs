//! `repro serve`: a crash-tolerant run-plan service fleet over the
//! shared cache.
//!
//! A daemon is a long-lived loop watching a drop-dir inbox
//! (`<cache>/serve/inbox/`) for client-submitted run-plan request files.
//! Each request is admitted through strict typed parsing (a malformed or
//! unsupported request gets a typed rejection response, never a crash),
//! scheduled onto the existing [`crate::journal`] claims machinery for
//! exactly-once execution across every daemon and any concurrent batch
//! `repro` invocations, and answered with a response file in the outbox
//! whose body is byte-identical to what the batch CLI would print for
//! the same targets.
//!
//! *N* daemons share one cache as a fleet: each registers in the
//! [`crate::fleet`] member registry, claims requests by atomic rename
//! into its private work directory, and sweeps dead members' orphaned
//! work back to the inbox. One daemon is simply a fleet of one, and
//! the registry is the only record of who is serving.
//!
//! # Protocol files
//!
//! A *request* is a text file `serve/inbox/<id>.req` published
//! atomically (write-temp → rename) by [`submit`]:
//!
//! ```text
//! repro-serve-request/2
//! targets table1,fig3
//! scale test
//! dispatch naive,threaded     (optional)
//! priority 5                  (optional, higher = admitted sooner)
//! deadline-ms 1759999999999   (optional, absolute unix ms)
//! end
//! ```
//!
//! Any other version line — the retired version 1 included — is a typed
//! [`RejectKind::BadVersion`] rejection. The `end` trailer is the torn-write detector: a client that crashed
//! (or wrote non-atomically) leaves a file without it, which the daemon
//! classifies as a typed [`RejectKind::Torn`] rejection. A *response*
//! is `serve/outbox/<id>.resp`, also atomically published:
//!
//! ```text
//! repro-serve-response/1
//! id <id>
//! status ok | rejected
//! reject <kind>                 (rejected only)
//! detail <cause>                (rejected only)
//! degraded true|false           (ok only)
//! planned N / reused N / executed N / reused-live N / journaled N
//! body <byte-count>             (ok only)
//! <raw body bytes>
//! end
//! ```
//!
//! # Robustness contract
//!
//! * **Bounded admission**: at most [`ServeConfig::queue`] requests are
//!   admitted per inbox scan — in priority order, highest first — and
//!   the rest are rejected with a typed [`RejectKind::Overloaded`]
//!   response: backpressure, never OOM. The rejection is published only
//!   after the member *claims* the overflow request (the same atomic
//!   rename as admission), so it can never race — or overwrite — a
//!   peer's real response for a request that peer admitted.
//! * **Deadlines**: a request whose `deadline-ms` has passed when it
//!   would execute is answered with [`RejectKind::DeadlineExpired`]
//!   instead of running. Each admitted request executes once under the
//!   daemon's [`SuperviseConfig`] (retries, fuel deadline), exactly as
//!   a batch run would: the pool's retry rounds are the only retries,
//!   and a run that still fails degrades its own cells and ships in a
//!   degraded response instead of wedging the daemon.
//! * **Exactly-once**: execution goes through
//!   [`crate::journal::execute_journaled`] with `resume`, so daemons
//!   and concurrent batch invocations partition work through the claims
//!   registry and every response satisfies
//!   `reused + executed + reused_live == planned`.
//! * **Warm requests write no journal**: a request whose runs are all
//!   journaled is answered on the journal's lock-free read path and
//!   rendered from the store alone — no interpreter runs, no lock, no
//!   journal write, no fsync; its only durable write is the response
//!   publish. [`ServeReport::lock_free`] counts them.
//! * **Graceful drain**: a `serve/stop` file (written by
//!   `repro serve --stop`) makes every fleet member finish its requests
//!   in flight, flush its responses, deregister, and exit 0; the last
//!   member out consumes the marker. A marker left behind by a dead
//!   fleet (no other live member, and dated before the starting
//!   daemon registered) is cleared at that daemon's startup, so a stop
//!   aimed at a crashed daemon can never kill a fresh one — while a
//!   stop written after registration still drains it.
//! * **Contention**: a journal advisory-lock timeout while executing
//!   one request (fleet peers and concurrent batch runs compete for the
//!   shared journal) requeues that request's claim back to the inbox
//!   for re-service by any member instead of terminating the daemon;
//!   daemon exit is reserved for cache-wide I/O failure.
//! * **Liveness**: every member publishes `serve/fleet/<token>`, and a
//!   background thread rewrites its per-member heartbeat on a fixed
//!   interval — execution time never counts as staleness, however long
//!   a batch runs. Each daemon writes `serve/heartbeat` once, when its
//!   start-up (the stale-stop sweep) is done, to mark itself ready.
//!   `repro status` reports the fleet read-only via
//!   [`serve_status`] as a per-member table. A member whose registration was
//!   nonetheless retired by a peer detects the loss at its next scan
//!   and re-registers under a fresh token instead of spinning as a
//!   zombie whose claim renames all fail.
//! * **Crash recovery**: a request is *claimed* by an atomic rename
//!   from `inbox/` into the member's `work/<token>/` directory. A
//!   daemon killed mid-request leaves the claimed file behind; any live
//!   member detects the death (pid gone, or heartbeat older than
//!   [`fleet::DEFAULT_MEMBER_STALE`]), moves the orphans back to
//!   the inbox exactly-once, and re-serves them, with runs the dead
//!   daemon already journaled reused — the response is byte-identical
//!   to a cold batch run.

use crate::fleet::{self, unix_ms, FleetMemberInfo, FleetMembership};
use crate::journal::{
    execute_journaled, io_err, ImageCache, JournalConfig, JournalError, JournalErrorKind,
    ResumeReport,
};
use crate::lock::parse_field;
use crate::plan::Plan;
use crate::pool::ExecutedPlan;
use crate::supervise::{backoff_delay, SuperviseConfig};
use interp_guard::Rng64;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serve state directory inside a cache dir.
pub const SERVE_DIR: &str = "serve";
/// Drop-dir the clients publish requests into.
pub const INBOX_DIR: &str = "serve/inbox";
/// Directory the daemons publish responses into.
pub const OUTBOX_DIR: &str = "serve/outbox";
/// Claimed-but-unfinished requests, one subdirectory per fleet member.
pub const WORK_DIR: &str = "serve/work";
/// The readiness marker: every daemon writes it once, after start-up has
/// swept stale stop markers and before its first scan. Readers only test
/// that it exists (the per-member liveness truth lives in
/// `serve/fleet/`).
pub const HEARTBEAT_FILE: &str = "serve/heartbeat";
/// Stop request marker (`repro serve --stop`).
pub const STOP_FILE: &str = "serve/stop";

/// First line of every request file. Version 2 added the optional
/// `priority` and `deadline-ms` fields; version 1 is a `bad-version`.
pub const REQUEST_VERSION_LINE: &str = "repro-serve-request/2";
/// First line of every response file.
pub const RESPONSE_VERSION_LINE: &str = "repro-serve-response/1";

/// Default admission-queue capacity per inbox scan.
pub const DEFAULT_SERVE_QUEUE: usize = 16;
/// Default inbox poll interval.
pub const DEFAULT_SERVE_POLL: Duration = Duration::from_millis(50);
/// Backoff ceiling of [`wait`]'s outbox polling.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Why a request was rejected instead of executed. Every variant is a
/// *response*, never a daemon crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// The request file is truncated or missing its `end` trailer — a
    /// torn write from a crashed (or non-atomic) client.
    Torn,
    /// The request's version line is missing or unrecognized.
    BadVersion,
    /// A field is missing, duplicated, unknown, or unparseable.
    BadField,
    /// The request names a target the service does not know.
    UnknownTarget,
    /// The admission queue was full when the request arrived.
    Overloaded,
    /// The request's deadline passed before it could execute.
    DeadlineExpired,
}

impl RejectKind {
    /// Stable wire label (written into the response file).
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::Torn => "torn",
            RejectKind::BadVersion => "bad-version",
            RejectKind::BadField => "bad-field",
            RejectKind::UnknownTarget => "unknown-target",
            RejectKind::Overloaded => "overloaded",
            RejectKind::DeadlineExpired => "deadline-expired",
        }
    }

    /// Parse a wire label back into the kind.
    pub fn parse(label: &str) -> Option<RejectKind> {
        match label {
            "torn" => Some(RejectKind::Torn),
            "bad-version" => Some(RejectKind::BadVersion),
            "bad-field" => Some(RejectKind::BadField),
            "unknown-target" => Some(RejectKind::UnknownTarget),
            "overloaded" => Some(RejectKind::Overloaded),
            "deadline-expired" => Some(RejectKind::DeadlineExpired),
            _ => None,
        }
    }
}

/// A typed rejection: the taxonomy bucket plus a one-line cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// The taxonomy bucket.
    pub kind: RejectKind,
    /// Human-readable cause (single line).
    pub detail: String,
}

impl Reject {
    /// Build a rejection (the detail is flattened to one line).
    pub fn new(kind: RejectKind, detail: impl Into<String>) -> Reject {
        Reject { kind, detail: detail.into().replace('\n', " ") }
    }
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

/// A parsed run-plan request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Request id — the file stem; also the response file stem.
    pub id: String,
    /// Raw target names (the [`PlanService`] validates them).
    pub targets: Vec<String>,
    /// Workload scale.
    pub scale: Scale,
    /// Dispatch-strategy selection, if the client narrowed it.
    pub dispatch: Option<DispatchSelection>,
    /// Admission priority: higher is admitted sooner within a scan.
    /// Defaults to 0; ties break by id for determinism.
    pub priority: i64,
    /// Absolute deadline in unix milliseconds: once passed, the
    /// request is answered [`RejectKind::DeadlineExpired`] instead of
    /// executing. `None` never expires.
    pub deadline_unix_ms: Option<u64>,
}

use interp_core::{DispatchSelection, Scale};

impl ServeRequest {
    /// A request for `targets` at `scale` with the default dispatch
    /// selection, priority 0, and no deadline.
    pub fn new(id: impl Into<String>, targets: &[&str], scale: Scale) -> ServeRequest {
        ServeRequest {
            id: id.into(),
            targets: targets.iter().map(|t| t.to_string()).collect(),
            scale,
            dispatch: None,
            priority: 0,
            deadline_unix_ms: None,
        }
    }

    /// Has this request's deadline passed as of `now_ms`?
    pub fn expired_at(&self, now_ms: u128) -> bool {
        self.deadline_unix_ms
            .is_some_and(|deadline| now_ms > u128::from(deadline))
    }
}

/// Convert a relative patience (`--deadline-ms N`) into the absolute
/// unix-millisecond deadline the wire format carries. Saturates at
/// `u64::MAX` rather than wrapping.
pub fn deadline_in(ms: u64) -> u64 {
    u64::try_from(unix_ms())
        .unwrap_or(u64::MAX)
        .saturating_add(ms)
}

/// Is `id` usable as a request file stem? One path component, no
/// separators, no hidden-file tricks.
pub fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        && !id.starts_with('.')
}

/// Encode a request into its wire form (version line … `end` trailer).
/// The optional fields are elided at their defaults.
pub fn encode_request(request: &ServeRequest) -> String {
    let mut out = String::new();
    out.push_str(REQUEST_VERSION_LINE);
    out.push('\n');
    out.push_str("targets ");
    out.push_str(&request.targets.join(","));
    out.push('\n');
    out.push_str("scale ");
    out.push_str(request.scale.label());
    out.push('\n');
    if let Some(selection) = &request.dispatch {
        out.push_str("dispatch ");
        out.push_str(&selection.label());
        out.push('\n');
    }
    if request.priority != 0 {
        out.push_str(&format!("priority {}\n", request.priority));
    }
    if let Some(deadline) = request.deadline_unix_ms {
        out.push_str(&format!("deadline-ms {deadline}\n"));
    }
    out.push_str("end\n");
    out
}

/// Strictly parse request `bytes` (file stem `id`). Every malformation is a typed [`Reject`] — this
/// function never panics and never guesses.
pub fn parse_request(bytes: &[u8], id: &str) -> Result<ServeRequest, Reject> {
    if bytes.is_empty() {
        return Err(Reject::new(RejectKind::Torn, "empty request file"));
    }
    let Ok(text) = std::str::from_utf8(bytes) else {
        return Err(Reject::new(
            RejectKind::Torn,
            "request is not valid UTF-8 (torn or binary write)",
        ));
    };
    let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
    match lines.first() {
        Some(&REQUEST_VERSION_LINE) => {}
        Some(other) => {
            return Err(Reject::new(
                RejectKind::BadVersion,
                format!("first line `{other}`, expected `{REQUEST_VERSION_LINE}`"),
            ))
        }
        None => return Err(Reject::new(RejectKind::Torn, "empty request file")),
    }
    let last = lines.iter().rev().find(|l| !l.is_empty());
    if last != Some(&"end") {
        return Err(Reject::new(
            RejectKind::Torn,
            "missing `end` trailer (torn client write)",
        ));
    }
    let mut targets: Option<Vec<String>> = None;
    let mut scale: Option<Scale> = None;
    let mut dispatch: Option<DispatchSelection> = None;
    let mut priority: Option<i64> = None;
    let mut deadline_unix_ms: Option<u64> = None;
    for line in &lines[1..] {
        if line.is_empty() {
            continue;
        }
        if *line == "end" {
            break;
        }
        let Some((key, value)) = line.split_once(' ') else {
            return Err(Reject::new(
                RejectKind::BadField,
                format!("malformed field line `{line}` (expected `key value`)"),
            ));
        };
        let value = value.trim();
        match key {
            "targets" => {
                if targets.is_some() {
                    return Err(Reject::new(RejectKind::BadField, "duplicate `targets` field"));
                }
                let parsed: Vec<String> = value
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(str::to_string)
                    .collect();
                if parsed.is_empty() {
                    return Err(Reject::new(RejectKind::BadField, "empty `targets` field"));
                }
                targets = Some(parsed);
            }
            "scale" => {
                if scale.is_some() {
                    return Err(Reject::new(RejectKind::BadField, "duplicate `scale` field"));
                }
                match Scale::parse(value) {
                    Some(s) => scale = Some(s),
                    None => {
                        return Err(Reject::new(
                            RejectKind::BadField,
                            format!("scale `{value}` is not test|paper"),
                        ))
                    }
                }
            }
            "dispatch" => {
                if dispatch.is_some() {
                    return Err(Reject::new(RejectKind::BadField, "duplicate `dispatch` field"));
                }
                match DispatchSelection::parse(value) {
                    Some(sel) => dispatch = Some(sel),
                    None => {
                        return Err(Reject::new(
                            RejectKind::BadField,
                            format!("unparseable dispatch selection `{value}`"),
                        ))
                    }
                }
            }
            "priority" => {
                if priority.is_some() {
                    return Err(Reject::new(RejectKind::BadField, "duplicate `priority` field"));
                }
                match value.parse::<i64>() {
                    Ok(p) => priority = Some(p),
                    Err(_) => {
                        return Err(Reject::new(
                            RejectKind::BadField,
                            format!("priority `{value}` is not an integer"),
                        ))
                    }
                }
            }
            "deadline-ms" => {
                if deadline_unix_ms.is_some() {
                    return Err(Reject::new(
                        RejectKind::BadField,
                        "duplicate `deadline-ms` field",
                    ));
                }
                match value.parse::<u64>() {
                    Ok(d) if d > 0 => deadline_unix_ms = Some(d),
                    _ => {
                        return Err(Reject::new(
                            RejectKind::BadField,
                            format!("deadline-ms `{value}` is not a positive unix-ms integer"),
                        ))
                    }
                }
            }
            other => {
                return Err(Reject::new(
                    RejectKind::BadField,
                    format!("unknown field `{other}`"),
                ))
            }
        }
    }
    let Some(targets) = targets else {
        return Err(Reject::new(RejectKind::BadField, "missing `targets` field"));
    };
    let Some(scale) = scale else {
        return Err(Reject::new(RejectKind::BadField, "missing `scale` field"));
    };
    Ok(ServeRequest {
        id: id.to_string(),
        targets,
        scale,
        dispatch,
        priority: priority.unwrap_or(0),
        deadline_unix_ms,
    })
}

/// The exactly-once accounting attached to every successful response —
/// a straight projection of the [`ResumeReport`] the journaled
/// execution produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeAccounting {
    /// Requests in the plan.
    pub planned: usize,
    /// Served from journal records present at open.
    pub reused: usize,
    /// Actually executed by this request.
    pub executed: usize,
    /// Landed by a concurrent writer while this request ran.
    pub reused_live: usize,
    /// Artifacts this request appended to the journal.
    pub journaled: usize,
}

impl ServeAccounting {
    /// The exactly-once invariant every response must satisfy.
    pub fn exactly_once(&self) -> bool {
        self.reused + self.executed + self.reused_live == self.planned
    }

    fn from_report(report: &ResumeReport) -> ServeAccounting {
        ServeAccounting {
            planned: report.planned,
            reused: report.reused,
            executed: report.executed,
            reused_live: report.reused_live,
            journaled: report.journaled,
        }
    }
}

/// What a response says: a rendered body with accounting, or a typed
/// rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The request executed; `body` is the rendered report bytes.
    Ok {
        /// At least one run degraded (`DEGRADED(..)` cells in the body).
        degraded: bool,
        /// Exactly-once accounting.
        accounting: ServeAccounting,
        /// Rendered report, byte-identical to the batch CLI's stdout.
        body: Vec<u8>,
    },
    /// The request was rejected before (or instead of) execution.
    Rejected(Reject),
}

/// One parsed response file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// The request id this answers.
    pub id: String,
    /// Result or typed rejection.
    pub outcome: ServeOutcome,
}

/// Encode a response into its wire form.
pub fn encode_response(response: &ServeResponse) -> Vec<u8> {
    let mut head = String::new();
    head.push_str(RESPONSE_VERSION_LINE);
    head.push('\n');
    head.push_str(&format!("id {}\n", response.id));
    match &response.outcome {
        ServeOutcome::Rejected(reject) => {
            head.push_str("status rejected\n");
            head.push_str(&format!("reject {}\n", reject.kind.label()));
            head.push_str(&format!("detail {}\n", reject.detail));
            head.push_str("end\n");
            head.into_bytes()
        }
        ServeOutcome::Ok { degraded, accounting, body } => {
            head.push_str("status ok\n");
            head.push_str(&format!("degraded {degraded}\n"));
            head.push_str(&format!("planned {}\n", accounting.planned));
            head.push_str(&format!("reused {}\n", accounting.reused));
            head.push_str(&format!("executed {}\n", accounting.executed));
            head.push_str(&format!("reused-live {}\n", accounting.reused_live));
            head.push_str(&format!("journaled {}\n", accounting.journaled));
            head.push_str(&format!("body {}\n", body.len()));
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(body);
            bytes.extend_from_slice(b"end\n");
            bytes
        }
    }
}

/// Parse a response file. Responses are always published atomically by
/// the daemon, so a parse failure is corruption, reported as text.
pub fn parse_response(bytes: &[u8]) -> Result<ServeResponse, String> {
    let mut offset = 0usize;
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut body: Option<Vec<u8>> = None;
    let mut saw_version = false;
    let mut saw_end = false;
    while offset < bytes.len() {
        let line_end = bytes[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |p| offset + p);
        let line = std::str::from_utf8(&bytes[offset..line_end])
            .map_err(|_| "non-UTF-8 response header".to_string())?;
        offset = (line_end + 1).min(bytes.len().max(line_end));
        if !saw_version {
            if line != RESPONSE_VERSION_LINE {
                return Err(format!("first line `{line}`, expected `{RESPONSE_VERSION_LINE}`"));
            }
            saw_version = true;
            continue;
        }
        if line == "end" {
            saw_end = true;
            break;
        }
        let Some((key, value)) = line.split_once(' ') else {
            return Err(format!("malformed response line `{line}`"));
        };
        if key == "body" {
            let len: usize = value
                .parse()
                .map_err(|_| format!("bad body length `{value}`"))?;
            if offset + len > bytes.len() {
                return Err(format!(
                    "body claims {len} bytes but only {} remain",
                    bytes.len() - offset
                ));
            }
            body = Some(bytes[offset..offset + len].to_vec());
            offset += len;
            continue;
        }
        fields.push((key.to_string(), value.to_string()));
    }
    if !saw_end {
        return Err("missing `end` trailer".to_string());
    }
    let field = |key: &str| -> Option<&str> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    };
    let id = field("id").ok_or("missing `id`")?.to_string();
    let number = |key: &str| -> Result<usize, String> {
        field(key)
            .ok_or_else(|| format!("missing `{key}`"))?
            .parse()
            .map_err(|_| format!("bad `{key}` value"))
    };
    match field("status") {
        Some("ok") => Ok(ServeResponse {
            id,
            outcome: ServeOutcome::Ok {
                degraded: field("degraded") == Some("true"),
                accounting: ServeAccounting {
                    planned: number("planned")?,
                    reused: number("reused")?,
                    executed: number("executed")?,
                    reused_live: number("reused-live")?,
                    journaled: number("journaled")?,
                },
                body: body.ok_or("ok response missing body")?,
            },
        }),
        Some("rejected") => {
            let kind_label = field("reject").ok_or("rejected response missing `reject`")?;
            let kind = RejectKind::parse(kind_label)
                .ok_or_else(|| format!("unknown reject kind `{kind_label}`"))?;
            Ok(ServeResponse {
                id,
                outcome: ServeOutcome::Rejected(Reject::new(
                    kind,
                    field("detail").unwrap_or("").to_string(),
                )),
            })
        }
        Some(other) => Err(format!("unknown status `{other}`")),
        None => Err("missing `status`".to_string()),
    }
}

/// What the daemon asks of its host: turn an admitted request into a
/// plan, and render the executed plan into the response body. The
/// harness implements this over the experiments registry; the chaos
/// harness uses a tiny test service. Keeping it a trait keeps
/// `runplan` free of any dependency on the experiment renderers.
pub trait PlanService: Sync {
    /// Build the plan for an admitted request — or reject it with a
    /// typed reason (unknown target, unsupported combination).
    fn plan(&self, request: &ServeRequest) -> Result<Plan, Reject>;

    /// Render the response body. Must be byte-identical to what the
    /// batch CLI prints for the same selection, so serve-mode responses
    /// byte-diff cleanly against cold batch runs.
    fn render(&self, request: &ServeRequest, executed: &ExecutedPlan) -> String;
}

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shared cache directory (journal + serve state).
    pub cache_dir: PathBuf,
    /// Admission-queue capacity per inbox scan; requests beyond it are
    /// rejected with [`RejectKind::Overloaded`].
    pub queue: usize,
    /// Sleep after a scan that answered nothing; a scan that served or
    /// rejected a request is followed by the next at once.
    pub poll: Duration,
    /// Exit after writing this many responses (tests, bench). `None`
    /// runs until a stop request.
    pub max_requests: Option<u64>,
    /// Worker threads per request execution.
    pub jobs: usize,
    /// Admitted requests executed concurrently per scan
    /// (`--serve-jobs`): 1 is the sequential daemon.
    pub serve_jobs: usize,
    /// Per-request supervision (retries, fuel deadline).
    pub supervise: SuperviseConfig,
    /// Advisory-lock patience for journal coordination.
    pub lock_timeout: Duration,
    /// Crash harness passthrough: die (exit 86) after N journal appends
    /// while serving — the deterministic kill-between-claim-and-commit.
    pub crash_after: Option<u64>,
}

impl ServeConfig {
    /// A daemon over `cache_dir` with defaults everywhere else.
    pub fn new(cache_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            cache_dir: cache_dir.into(),
            queue: DEFAULT_SERVE_QUEUE,
            poll: DEFAULT_SERVE_POLL,
            max_requests: None,
            jobs: crate::pool::default_jobs(),
            serve_jobs: 1,
            supervise: SuperviseConfig::default(),
            lock_timeout: crate::lock::DEFAULT_LOCK_TIMEOUT,
            crash_after: None,
        }
    }
}

/// What one daemon run did.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Requests answered with a rendered body.
    pub served: usize,
    /// Requests answered with a typed rejection.
    pub rejected: usize,
    /// Orphaned requests re-adopted from dead fleet members.
    pub adopted: usize,
    /// Claims handed back to the inbox after a journal lock timeout
    /// (contention, not failure); each is re-served on a later scan.
    pub requeued: usize,
    /// The daemon exited through the stop-file drain path.
    pub drained: bool,
    /// Ok responses answered on the journal's lock-free read path: the
    /// journal already held every planned run, so the request took no
    /// lock and wrote and fsynced nothing but its response.
    pub lock_free: usize,
}

impl ServeReport {
    /// One-line stderr summary for the CLI.
    pub fn render(&self) -> String {
        format!(
            "serve: {} response(s) ({} ok, {} rejected){}{}{}",
            self.served + self.rejected,
            self.served,
            self.rejected,
            if self.adopted > 0 {
                format!(", {} orphan(s) adopted", self.adopted)
            } else {
                String::new()
            },
            if self.requeued > 0 {
                format!(", {} requeued on lock contention", self.requeued)
            } else {
                String::new()
            },
            if self.drained { ", drained on stop request" } else { "" }
        )
    }
}

/// The serve directory layout under one cache dir.
#[derive(Debug, Clone)]
struct ServeDirs {
    inbox: PathBuf,
    outbox: PathBuf,
    work: PathBuf,
    stop: PathBuf,
}

impl ServeDirs {
    fn of(cache_dir: &Path) -> ServeDirs {
        ServeDirs {
            inbox: cache_dir.join(INBOX_DIR),
            outbox: cache_dir.join(OUTBOX_DIR),
            work: cache_dir.join(WORK_DIR),
            stop: cache_dir.join(STOP_FILE),
        }
    }

    fn create(cache_dir: &Path) -> Result<ServeDirs, JournalError> {
        let dirs = ServeDirs::of(cache_dir);
        for dir in [&dirs.inbox, &dirs.outbox, &dirs.work] {
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create-dir", e))?;
        }
        Ok(dirs)
    }
}

/// List `*.req` entries of `dir`, sorted by file name (deterministic
/// admission order before priorities are applied).
fn scan_requests(dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_str()?.to_string();
            let id = name.strip_suffix(".req")?.to_string();
            Some((id, entry.path()))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Atomically publish `response` into the outbox.
fn publish_response(dirs: &ServeDirs, response: &ServeResponse) -> Result<(), JournalError> {
    crate::atomic::replace(
        &dirs.outbox.join(format!("{}.resp", response.id)),
        &encode_response(response),
    )
}

/// What serving one claimed request produced.
enum ProcessOutcome {
    /// Response published with a rendered body; `lock_free` if the
    /// journal's lock-free read path answered the whole plan.
    Served { lock_free: bool },
    /// Response published with a typed rejection.
    Rejected,
    /// Journal lock contention: the claim went back to the inbox for
    /// re-service (by this member or a peer); no response published.
    Requeued,
}

/// Serve one claimed request file end to end: deadline gate, service
/// plan, journaled exactly-once execution, response publish. An advisory-lock timeout requeues the
/// claim instead of erroring — one contended request must not take
/// down a fleet member. Only cache-wide infrastructure failures
/// (journal/outbox I/O) escape as errors.
fn process_request(
    dirs: &ServeDirs,
    config: &ServeConfig,
    image_cache: &Arc<ImageCache>,
    service: &dyn PlanService,
    id: &str,
    path: &Path,
    parsed: &Result<ServeRequest, Reject>,
) -> Result<ProcessOutcome, JournalError> {
    let mut lock_free = false;
    let outcome = match parsed {
        Err(reject) => ServeOutcome::Rejected(reject.clone()),
        // Deadline gate at the moment of execution: a request that
        // expired while queued (or before submission reached us) is
        // answered, never run. The detail avoids wall-clock text so
        // response bytes stay deterministic.
        Ok(request) if request.expired_at(unix_ms()) => {
            ServeOutcome::Rejected(Reject::new(
                RejectKind::DeadlineExpired,
                format!(
                    "deadline (unix ms {}) expired before execution",
                    request.deadline_unix_ms.unwrap_or(0)
                ),
            ))
        }
        Ok(request) => match service.plan(request) {
            Err(reject) => ServeOutcome::Rejected(reject),
            Ok(plan) => {
                let mut jconfig = JournalConfig::new(&config.cache_dir)
                    .with_resume(true)
                    .with_lock_timeout(config.lock_timeout)
                    .with_image_cache(Arc::clone(image_cache));
                if let Some(n) = config.crash_after {
                    jconfig = jconfig.with_crash_after(n);
                }
                match execute_journaled(&plan, config.jobs, &config.supervise, &jconfig) {
                    Ok((executed, report)) => {
                        lock_free = report.lock_free;
                        ServeOutcome::Ok {
                            degraded: executed.is_degraded(),
                            accounting: ServeAccounting::from_report(&report),
                            body: service.render(request, &executed).into_bytes(),
                        }
                    }
                    // Losing the advisory lock to contention (fleet
                    // peers, concurrent batch runs) is a per-request
                    // fate, not a daemon failure: hand the claim back
                    // for re-service on a later scan and answer
                    // nothing yet.
                    Err(e) if e.kind == JournalErrorKind::LockTimeout => {
                        let _ = std::fs::rename(path, dirs.inbox.join(format!("{id}.req")));
                        return Ok(ProcessOutcome::Requeued);
                    }
                    Err(e) => return Err(e),
                }
            }
        },
    };
    let served = matches!(outcome, ServeOutcome::Ok { .. });
    publish_response(dirs, &ServeResponse { id: id.to_string(), outcome })?;
    let _ = std::fs::remove_file(path);
    Ok(if served { ProcessOutcome::Served { lock_free } } else { ProcessOutcome::Rejected })
}

/// Clear a stop marker left behind by a dead (or already-drained)
/// fleet, so it cannot drain a freshly started daemon. The marker is
/// stale only if no *other* live member is behind it (with one, it is
/// a fleet-wide drain in progress, which a member joining mid-drain
/// honors) and it was written before this member registered at
/// `registered_ms` (a stop written since is aimed at this daemon). An
/// unparseable marker counts as old.
fn sweep_stale_stop(dirs: &ServeDirs, cache_dir: &Path, token: &str, registered_ms: u128) {
    let Ok(content) = std::fs::read_to_string(&dirs.stop) else {
        return;
    };
    let written_ms = parse_field(&content, "unix_ms").and_then(|v| v.parse::<u128>().ok());
    if written_ms.is_some_and(|ms| ms >= registered_ms) {
        return;
    }
    let other_live = fleet::fleet_members(cache_dir)
        .iter()
        .any(|m| m.pid_live && m.token != token);
    if !other_live {
        let _ = std::fs::remove_file(&dirs.stop);
    }
}

/// One scanned inbox entry, read and parsed before admission so
/// priorities can order the scan.
struct ScannedRequest {
    id: String,
    inbox_path: PathBuf,
    parsed: Result<ServeRequest, Reject>,
}

/// Run a serve daemon as a fleet member until a stop request (or
/// [`ServeConfig::max_requests`] responses). See the module docs for
/// the full robustness contract.
pub fn serve(config: &ServeConfig, service: &dyn PlanService) -> Result<ServeReport, JournalError> {
    let dirs = ServeDirs::create(&config.cache_dir)?;
    let registered_ms = unix_ms();
    let mut membership = FleetMembership::register(&config.cache_dir)?;
    sweep_stale_stop(&dirs, &config.cache_dir, &membership.token, registered_ms);
    // Ready: stale stop markers are swept, so a stop written from now on
    // drains this daemon. Best-effort: a failed write must not kill it.
    let _ = std::fs::write(
        config.cache_dir.join(HEARTBEAT_FILE),
        format!("pid {}\nunix_ms {}\n", std::process::id(), unix_ms()),
    );
    let mut report = ServeReport::default();
    // One decoded journal image shared by every request this member
    // serves: a warm request re-decodes only after a new publish.
    let image_cache = Arc::new(ImageCache::default());
    // Heartbeat from a background thread: execution time never counts
    // as staleness, however long an admitted batch runs.
    let mut pulse = membership.spawn_pulse(fleet::DEFAULT_MEMBER_STALE);
    let mut tick = 0u64;
    'daemon: loop {
        // A peer that judged this member wedged has retired its
        // registration and re-adopted its claims. Detect the loss and
        // take a fresh identity instead of spinning as a zombie whose
        // claim renames all fail on the missing work dir.
        if !membership.still_registered() {
            // The pulse joins first so it cannot recreate the retired
            // heartbeat file after the old membership is dropped.
            drop(pulse);
            membership = FleetMembership::register(&config.cache_dir)?;
            pulse = membership.spawn_pulse(fleet::DEFAULT_MEMBER_STALE);
        }
        pulse.record(
            tick,
            (report.served + report.rejected) as u64,
            scan_requests(&membership.work_dir).len(),
        );
        tick = tick.wrapping_add(1);
        report.adopted += fleet::sweep_dead_members(
            &config.cache_dir,
            fleet::DEFAULT_MEMBER_STALE,
            Some(&membership.token),
        );
        if dirs.stop.exists() {
            report.drained = true;
            break;
        }
        let answered_before = report.served + report.rejected;
        // Read and parse every pending request up front so admission
        // can be priority-ordered (highest first, id-ascending ties;
        // unparseable files sort at priority 0 — their typed rejection
        // is produced after claiming).
        let mut batch: Vec<ScannedRequest> = Vec::new();
        for (id, inbox_path) in scan_requests(&dirs.inbox) {
            let Ok(bytes) = std::fs::read(&inbox_path) else {
                continue; // claimed by a peer mid-scan; rescan next tick
            };
            let parsed = parse_request(&bytes, &id);
            batch.push(ScannedRequest { id, inbox_path, parsed });
        }
        batch.sort_by(|a, b| {
            let pa = a.parsed.as_ref().map_or(0, |r| r.priority);
            let pb = b.parsed.as_ref().map_or(0, |r| r.priority);
            pb.cmp(&pa).then_with(|| a.id.cmp(&b.id))
        });
        let mut admitted: Vec<ScannedRequest> = Vec::new();
        for scanned in batch {
            if admitted.len() < config.queue {
                // Claim by atomic rename into this member's work dir:
                // the request now survives a daemon crash as a fleet
                // orphan, and no two members can admit it.
                let work_path = membership.work_dir.join(format!("{}.req", scanned.id));
                if std::fs::rename(&scanned.inbox_path, &work_path).is_err() {
                    continue; // a peer claimed it first
                }
                admitted.push(ScannedRequest {
                    inbox_path: work_path,
                    ..scanned
                });
            } else {
                // Claim before rejecting: a peer may admit this same
                // request in its own scan, and publishing `overloaded`
                // for a request a peer is executing would race — and
                // can overwrite — the real response. Losing the rename
                // means the request is a peer's to answer, not ours.
                let work_path = membership.work_dir.join(format!("{}.req", scanned.id));
                if std::fs::rename(&scanned.inbox_path, &work_path).is_err() {
                    continue;
                }
                publish_response(
                    &dirs,
                    &ServeResponse {
                        id: scanned.id.clone(),
                        outcome: ServeOutcome::Rejected(Reject::new(
                            RejectKind::Overloaded,
                            format!(
                                "admission queue full ({} admitted this scan, capacity {})",
                                admitted.len(),
                                config.queue
                            ),
                        )),
                    },
                )?;
                let _ = std::fs::remove_file(&work_path);
                report.rejected += 1;
            }
        }
        // Execute the admitted batch on `serve_jobs` workers. Response
        // bytes are deterministic per request regardless of execution
        // order: the claims registry partitions shared runs and the
        // renderers are pure functions of the journal contents.
        let outcomes = crate::pool::run_concurrently(&admitted, config.serve_jobs, |scanned| {
            process_request(
                &dirs,
                config,
                &image_cache,
                service,
                &scanned.id,
                &scanned.inbox_path,
                &scanned.parsed,
            )
        });
        for outcome in outcomes {
            match outcome {
                Ok(Ok(ProcessOutcome::Served { lock_free })) => {
                    report.served += 1;
                    report.lock_free += usize::from(lock_free);
                }
                Ok(Ok(ProcessOutcome::Rejected)) => report.rejected += 1,
                Ok(Ok(ProcessOutcome::Requeued)) => report.requeued += 1,
                Ok(Err(e)) => return Err(e),
                // A panicked worker left its claimed file behind; the
                // fleet re-adopts it once this member exits or goes
                // stale.
                Err(_panic) => {}
            }
        }
        if config
            .max_requests
            .is_some_and(|n| (report.served + report.rejected) as u64 >= n)
        {
            break 'daemon;
        }
        // A scan that answered something rescans at once: more work
        // (perhaps submitted by the plan just served) may be waiting. A
        // scan that answered nothing sleeps, even if it requeued, so
        // lock contention cannot turn into a busy spin.
        if report.served + report.rejected == answered_before {
            std::thread::sleep(config.poll);
        }
    }
    let drained = report.drained;
    // The pulse joins first so it cannot recreate the heartbeat file
    // after the membership's Drop retires it.
    drop(pulse);
    drop(membership);
    // Last member out consumes the stop marker; if two members race
    // out and both see the other still registered, the marker stays
    // and the next daemon's startup sweeps it as stale.
    if drained && fleet::live_member(&config.cache_dir).is_none() {
        let _ = std::fs::remove_file(&dirs.stop);
    }
    Ok(report)
}

/// Atomically publish `request` into the cache's serve inbox. Returns
/// the published path. No daemon needs to be running yet — the inbox is
/// a drop dir.
pub fn submit(cache_dir: &Path, request: &ServeRequest) -> Result<PathBuf, JournalError> {
    let dirs = ServeDirs::create(cache_dir)?;
    let path = dirs.inbox.join(format!("{}.req", request.id));
    crate::atomic::replace(&path, encode_request(request).as_bytes())?;
    Ok(path)
}

/// What [`wait`] came back with.
#[derive(Debug, Clone)]
pub enum WaitOutcome {
    /// The response arrived (parsed).
    Response(ServeResponse),
    /// No response within the timeout.
    TimedOut,
}

/// The next outbox-poll interval: exponential growth from `poll`
/// capped at ~1s, jittered into `[cap/2, cap)` so a burst of waiters
/// decorrelates instead of hammering the shared filesystem in
/// lockstep.
fn wait_backoff(poll: Duration, attempt: u32, rng: &mut Rng64) -> Duration {
    let grown = backoff_delay(poll, attempt.saturating_add(1), BACKOFF_CAP);
    let half = grown / 2;
    let span_ns = u64::try_from(half.as_nanos()).unwrap_or(u64::MAX).max(1);
    half + Duration::from_nanos(rng.range(0, span_ns))
}

/// Poll the outbox for the response to `id`, up to `timeout`. `poll`
/// is the *initial* interval; consecutive misses back off with jitter
/// (cap ~1s) so many concurrent waiters stay cheap on a shared
/// filesystem.
pub fn wait(
    cache_dir: &Path,
    id: &str,
    timeout: Duration,
    poll: Duration,
) -> Result<WaitOutcome, JournalError> {
    let path = cache_dir.join(OUTBOX_DIR).join(format!("{id}.resp"));
    let deadline = Instant::now() + timeout;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let mut rng = Rng64::new((u64::from(std::process::id()) << 32) ^ u64::from(nanos));
    let mut attempt: u32 = 0;
    loop {
        match std::fs::read(&path) {
            Ok(bytes) => {
                return match parse_response(&bytes) {
                    Ok(response) => Ok(WaitOutcome::Response(response)),
                    Err(detail) => Err(JournalError {
                        kind: crate::journal::JournalErrorKind::Io,
                        path,
                        op: "read",
                        detail: format!("unparseable response: {detail}"),
                    }),
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&path, "read", e)),
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(WaitOutcome::TimedOut);
        }
        let interval = wait_backoff(poll, attempt, &mut rng).min(deadline - now);
        attempt = attempt.saturating_add(1);
        std::thread::sleep(interval);
    }
}

/// A read-only snapshot of the serve state under one cache dir — the
/// `serve:` section of `repro status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStatus {
    /// Every registered fleet member, token order.
    pub members: Vec<FleetMemberInfo>,
    /// Pending requests in the inbox.
    pub inbox: usize,
    /// Responses in the outbox.
    pub outbox: usize,
    /// Claimed-but-unfinished requests across every member's work dir.
    pub in_flight: usize,
}

/// Snapshot the serve state in `cache_dir` without locking or writing.
pub fn serve_status(cache_dir: &Path) -> ServeStatus {
    let dirs = ServeDirs::of(cache_dir);
    let count = |dir: &Path, suffix: &str| -> usize {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|name| name.ends_with(suffix))
                })
                .count()
        })
    };
    let mut in_flight = 0;
    if let Ok(entries) = std::fs::read_dir(&dirs.work) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                in_flight += count(&entry.path(), ".req");
            }
        }
    }
    ServeStatus {
        members: fleet::fleet_members(cache_dir),
        inbox: count(&dirs.inbox, ".req"),
        outbox: count(&dirs.outbox, ".resp"),
        in_flight,
    }
}

/// Render the `serve:` status section: the fleet summary line, then
/// one line per registered member.
pub fn render_serve_status(status: &ServeStatus) -> String {
    let fleet = if status.members.is_empty() {
        "no daemon".to_string()
    } else {
        let live = status.members.iter().filter(|m| m.pid_live).count();
        format!("fleet of {} member(s) ({live} live)", status.members.len())
    };
    let mut out = format!(
        "  serve: {fleet}, inbox {} request(s), {} in flight, outbox {} response(s)\n",
        status.inbox, status.in_flight, status.outbox
    );
    for member in &status.members {
        let heartbeat = match member.heartbeat_age_ms {
            Some(age) => format!("heartbeat {:.1}s ago", age as f64 / 1000.0),
            None => "no heartbeat".to_string(),
        };
        out.push_str(&format!(
            "    member pid {} ({}, {heartbeat}, {} in flight, {} served)\n",
            member.pid,
            if member.pid_live { "alive" } else { "dead — sweep pending" },
            member.in_flight,
            member.served
        ));
    }
    out
}

/// Ask the running fleet to drain and stop: write the stop marker.
/// Every member finishes its in-flight work and exits; the last member
/// out removes the marker, and [`fleet::live_member`] tells the caller
/// when no live member remains.
pub fn request_stop(cache_dir: &Path) -> Result<(), JournalError> {
    let dirs = ServeDirs::create(cache_dir)?;
    std::fs::write(&dirs.stop, format!("stop\nunix_ms {}\n", unix_ms()))
        .map_err(|e| io_err(&dirs.stop, "write", e))
}

/// Withdraw a stop request that found no daemon to stop (so it cannot
/// drain the next daemon at startup). A marker that is already gone is
/// success; a marker that cannot be removed is a real error the caller
/// must surface — silently swallowing it left phantom stops behind.
pub fn withdraw_stop(cache_dir: &Path) -> Result<(), JournalError> {
    let path = cache_dir.join(STOP_FILE);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err(&path, "remove", e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FLEET_DIR;
    use interp_core::{Language, RunRequest, WorkloadId};

    /// A tiny service over a 2-run plan of fast micro workloads: enough
    /// to drive the daemon end to end in unit tests.
    struct TinyService;

    fn tiny_plan() -> Plan {
        Plan::build([
            RunRequest::counting(WorkloadId::micro(Language::C, "a=b+c", Scale::Test)),
            RunRequest::counting(WorkloadId::micro(Language::Perlite, "if", Scale::Test)),
        ])
    }

    impl PlanService for TinyService {
        fn plan(&self, request: &ServeRequest) -> Result<Plan, Reject> {
            if request.targets == ["tiny"] {
                Ok(tiny_plan())
            } else {
                Err(Reject::new(
                    RejectKind::UnknownTarget,
                    format!("unknown target `{}`", request.targets.join(",")),
                ))
            }
        }

        fn render(&self, _request: &ServeRequest, executed: &ExecutedPlan) -> String {
            let mut out = String::new();
            for request in tiny_plan().requests() {
                let hash = executed
                    .store
                    .resolve(request)
                    .map(|a| a.content_hash())
                    .unwrap_or(0);
                out.push_str(&format!("{request} {hash:016x}\n"));
            }
            out
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-serve-{tag}-{}-{}",
            std::process::id(),
            crate::lock::fresh_token()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn fast_config(dir: &Path, max: u64) -> ServeConfig {
        let mut config = ServeConfig::new(dir);
        config.poll = Duration::from_millis(1);
        config.max_requests = Some(max);
        config.jobs = 2;
        config
    }

    #[test]
    fn request_round_trips_with_and_without_dispatch() {
        let plain = ServeRequest::new("r1", &["table1", "fig3"], Scale::Test);
        let parsed = parse_request(encode_request(&plain).as_bytes(), "r1").expect("parse");
        assert_eq!(parsed, plain);

        let mut with_dispatch = ServeRequest::new("r2", &["dispatch"], Scale::Paper);
        with_dispatch.dispatch = DispatchSelection::parse("naive,threaded");
        let parsed =
            parse_request(encode_request(&with_dispatch).as_bytes(), "r2").expect("parse");
        assert_eq!(parsed, with_dispatch);
    }

    #[test]
    fn request_round_trips_priority_and_deadline() {
        let mut full = ServeRequest::new("r3", &["tiny"], Scale::Test);
        full.priority = -4;
        full.deadline_unix_ms = Some(1_900_000_000_000);
        let encoded = encode_request(&full);
        assert!(encoded.starts_with(REQUEST_VERSION_LINE), "{encoded}");
        assert!(encoded.contains("priority -4\n"), "{encoded}");
        assert!(encoded.contains("deadline-ms 1900000000000\n"), "{encoded}");
        let parsed = parse_request(encoded.as_bytes(), "r3").expect("parse");
        assert_eq!(parsed, full);
        assert!(!parsed.expired_at(1_900_000_000_000));
        assert!(parsed.expired_at(1_900_000_000_001));
    }

    #[test]
    fn version_1_requests_are_a_bad_version() {
        let v1 = b"repro-serve-request/1\ntargets tiny\nscale test\nend\n";
        let reject = parse_request(v1, "old").expect_err("v1 is retired");
        assert_eq!(reject.kind, RejectKind::BadVersion, "{reject}");
    }

    #[test]
    fn malformed_requests_classify_into_typed_rejections() {
        let cases: [(&[u8], RejectKind); 9] = [
            (b"", RejectKind::Torn),
            (b"hello\n", RejectKind::BadVersion),
            (b"repro-serve-request/2\ntargets a\nscale test\n", RejectKind::Torn),
            (b"repro-serve-request/2\ntargets a\nscale warp\nend\n", RejectKind::BadField),
            (b"repro-serve-request/2\nscale test\nend\n", RejectKind::BadField),
            (
                b"repro-serve-request/2\ntargets a\nscale test\nbogus x\nend\n",
                RejectKind::BadField,
            ),
            (
                b"repro-serve-request/2\ntargets a\ntargets b\nscale test\nend\n",
                RejectKind::BadField,
            ),
            (
                b"repro-serve-request/2\ntargets a\nscale test\npriority high\nend\n",
                RejectKind::BadField,
            ),
            (
                b"repro-serve-request/2\ntargets a\nscale test\ndeadline-ms 0\nend\n",
                RejectKind::BadField,
            ),
        ];
        for (bytes, expected) in cases {
            let reject = parse_request(bytes, "x").expect_err("must reject");
            assert_eq!(reject.kind, expected, "{:?} -> {reject}", bytes);
        }
    }

    #[test]
    fn torn_prefixes_of_a_valid_request_always_classify() {
        let full = encode_request(&ServeRequest::new("t", &["tiny"], Scale::Test));
        // Any cut strictly before the `end` line starts is a torn write.
        let end_start = full.len() - "end\n".len();
        for cut in 1..end_start {
            let reject = parse_request(full[..cut].as_bytes(), "t").expect_err("torn");
            assert!(
                matches!(reject.kind, RejectKind::Torn | RejectKind::BadVersion),
                "cut {cut}: {reject}"
            );
        }
    }

    #[test]
    fn response_round_trips_ok_and_rejected() {
        let ok = ServeResponse {
            id: "a".to_string(),
            outcome: ServeOutcome::Ok {
                degraded: false,
                accounting: ServeAccounting {
                    planned: 4,
                    reused: 1,
                    executed: 2,
                    reused_live: 1,
                    journaled: 2,
                },
                body: b"line one\nline two\nend\n".to_vec(),
            },
        };
        let parsed = parse_response(&encode_response(&ok)).expect("parse ok");
        assert_eq!(parsed, ok);
        if let ServeOutcome::Ok { accounting, .. } = parsed.outcome {
            assert!(accounting.exactly_once());
        }

        let rejected = ServeResponse {
            id: "b".to_string(),
            outcome: ServeOutcome::Rejected(Reject::new(
                RejectKind::DeadlineExpired,
                "deadline (unix ms 12) expired before execution",
            )),
        };
        let parsed = parse_response(&encode_response(&rejected)).expect("parse rejected");
        assert_eq!(parsed, rejected);
    }

    /// Serves `tiny`, and its plan for `first` submits `second` — a
    /// request that lands while the daemon is busy with another.
    struct ChainService {
        dir: PathBuf,
    }

    impl PlanService for ChainService {
        fn plan(&self, request: &ServeRequest) -> Result<Plan, Reject> {
            if request.id == "first" {
                submit(&self.dir, &ServeRequest::new("second", &["tiny"], Scale::Test))
                    .expect("submit second");
            }
            TinyService.plan(request)
        }

        fn render(&self, request: &ServeRequest, executed: &ExecutedPlan) -> String {
            TinyService.render(request, executed)
        }
    }

    #[test]
    fn a_scan_that_answered_work_rescans_without_sleeping() {
        let dir = fresh_dir("rescan");
        submit(&dir, &ServeRequest::new("first", &["tiny"], Scale::Test)).expect("submit");
        let mut config = fast_config(&dir, 2);
        config.poll = Duration::from_secs(8);
        let started = Instant::now();
        let report = serve(&config, &ChainService { dir: dir.clone() }).expect("serve");
        let took = started.elapsed();
        assert_eq!(report.served, 2, "{report:?}");
        assert!(
            took < config.poll / 4,
            "the second request waited out a poll: {took:?}"
        );
        assert!(dir.join(OUTBOX_DIR).join("second.resp").exists(), "second answered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_serves_a_submitted_request_exactly_once() {
        let dir = fresh_dir("roundtrip");
        let request = ServeRequest::new("job-1", &["tiny"], Scale::Test);
        submit(&dir, &request).expect("submit");
        let report = serve(&fast_config(&dir, 1), &TinyService).expect("serve");
        assert_eq!(report.served, 1);
        assert_eq!(report.rejected, 0);
        let outcome = wait(&dir, "job-1", Duration::from_secs(5), Duration::from_millis(1))
            .expect("wait");
        let WaitOutcome::Response(response) = outcome else {
            panic!("timed out waiting for the response");
        };
        let ServeOutcome::Ok { accounting, body, degraded } = response.outcome else {
            panic!("expected ok response");
        };
        assert!(!degraded);
        assert!(accounting.exactly_once(), "{accounting:?}");
        assert_eq!(accounting.planned, 2);
        assert_eq!(accounting.executed, 2);
        assert!(!body.is_empty());
        // Membership is retired on clean exit.
        assert!(fleet::fleet_members(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fuel_starved_request_ships_degraded_and_journals_nothing() {
        // Both tiny runs trip a 1000-step fuel deadline on every attempt.
        // The daemon answers once, degraded, exactly as a batch run under
        // the same policy would: the pool's retry rounds are the only
        // retries, and no failed run reaches the journal.
        let supervise = SuperviseConfig::new().with_timeout_fuel(1_000);
        let dir = fresh_dir("degraded");
        let mut config = fast_config(&dir, 1);
        config.supervise = supervise;
        let request = ServeRequest::new("starved", &["tiny"], Scale::Test);
        submit(&dir, &request).expect("submit");
        let report = serve(&config, &TinyService).expect("serve");
        assert_eq!((report.served, report.rejected), (1, 0), "{report:?}");
        let outcome = wait(&dir, "starved", Duration::from_secs(5), Duration::from_millis(1))
            .expect("wait");
        let WaitOutcome::Response(response) = outcome else {
            panic!("timed out waiting for the response");
        };
        let ServeOutcome::Ok { accounting, body, degraded } = response.outcome else {
            panic!("expected an ok (degraded) response");
        };
        assert!(degraded);
        assert!(accounting.exactly_once(), "{accounting:?}");
        assert_eq!((accounting.planned, accounting.executed), (2, 2), "{accounting:?}");
        let journal = crate::journal::load_file(
            &dir.join(crate::journal::JOURNAL_FILE),
            crate::fingerprint::current_epoch(),
        )
        .expect("load journal");
        assert!(journal.records.is_empty(), "a failed run was journaled");

        // The body is what a batch run under the same policy renders.
        let batch_dir = fresh_dir("degraded-batch");
        let (executed, _) = execute_journaled(
            &tiny_plan(),
            config.jobs,
            &supervise,
            &JournalConfig::new(&batch_dir),
        )
        .expect("batch run");
        assert!(executed.is_degraded());
        assert_eq!(body, TinyService.render(&request, &executed).into_bytes());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&batch_dir);
    }

    #[test]
    fn concurrent_serve_jobs_answer_a_burst_deterministically() {
        let serial_dir = fresh_dir("burst-serial");
        let burst_dir = fresh_dir("burst-par");
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        for (dir, serve_jobs) in [(&serial_dir, 1usize), (&burst_dir, 3usize)] {
            for id in ["p", "q", "r"] {
                submit(dir, &ServeRequest::new(id, &["tiny"], Scale::Test)).expect("submit");
            }
            let mut config = fast_config(dir, 3);
            config.serve_jobs = serve_jobs;
            let report = serve(&config, &TinyService).expect("serve");
            assert_eq!(report.served, 3, "{report:?}");
            for id in ["p", "q", "r"] {
                let outcome = wait(dir, id, Duration::from_secs(5), Duration::from_millis(1))
                    .expect("wait");
                let WaitOutcome::Response(response) = outcome else {
                    panic!("{id}: no response");
                };
                let ServeOutcome::Ok { accounting, body, .. } = response.outcome else {
                    panic!("{id}: expected ok");
                };
                assert!(accounting.exactly_once(), "{id}: {accounting:?}");
                bodies.push(body);
            }
        }
        // Concurrent serve-jobs bodies are byte-identical to serial.
        assert_eq!(bodies[..3], bodies[3..], "serve-jobs must not change bytes");
        let _ = std::fs::remove_dir_all(&serial_dir);
        let _ = std::fs::remove_dir_all(&burst_dir);
    }

    #[test]
    fn overload_beyond_queue_capacity_is_a_typed_rejection() {
        let dir = fresh_dir("overload");
        for id in ["a", "b", "c"] {
            submit(&dir, &ServeRequest::new(id, &["tiny"], Scale::Test)).expect("submit");
        }
        let mut config = fast_config(&dir, 3);
        config.queue = 1;
        let report = serve(&config, &TinyService).expect("serve");
        assert_eq!(report.served, 1, "{report:?}");
        assert_eq!(report.rejected, 2, "{report:?}");
        // Sorted admission: `a` is served, `b` and `c` are overloaded.
        for (id, want_ok) in [("a", true), ("b", false), ("c", false)] {
            let outcome =
                wait(&dir, id, Duration::from_secs(5), Duration::from_millis(1)).expect("wait");
            let WaitOutcome::Response(response) = outcome else {
                panic!("{id}: no response");
            };
            match response.outcome {
                ServeOutcome::Ok { .. } => assert!(want_ok, "{id} unexpectedly ok"),
                ServeOutcome::Rejected(reject) => {
                    assert!(!want_ok, "{id} unexpectedly rejected: {reject}");
                    assert_eq!(reject.kind, RejectKind::Overloaded);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn priority_orders_admission_within_a_scan() {
        let dir = fresh_dir("priority");
        // `a` and `c` at default priority, `b` urgent. With a queue of
        // one, the urgent request wins the slot despite sorting last
        // alphabetically... and the rest get typed overload responses.
        for (id, priority) in [("a", 0i64), ("b", 5), ("c", 0)] {
            let mut request = ServeRequest::new(id, &["tiny"], Scale::Test);
            request.priority = priority;
            submit(&dir, &request).expect("submit");
        }
        let mut config = fast_config(&dir, 3);
        config.queue = 1;
        let report = serve(&config, &TinyService).expect("serve");
        assert_eq!(report.served, 1, "{report:?}");
        assert_eq!(report.rejected, 2, "{report:?}");
        for (id, want_ok) in [("a", false), ("b", true), ("c", false)] {
            let outcome =
                wait(&dir, id, Duration::from_secs(5), Duration::from_millis(1)).expect("wait");
            let WaitOutcome::Response(response) = outcome else {
                panic!("{id}: no response");
            };
            match response.outcome {
                ServeOutcome::Ok { .. } => assert!(want_ok, "{id} unexpectedly ok"),
                ServeOutcome::Rejected(reject) => {
                    assert!(!want_ok, "{id} unexpectedly rejected: {reject}");
                    assert_eq!(reject.kind, RejectKind::Overloaded, "{id}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_is_answered_not_executed() {
        let dir = fresh_dir("deadline");
        let mut request = ServeRequest::new("late", &["tiny"], Scale::Test);
        request.deadline_unix_ms = Some(1); // the distant past
        submit(&dir, &request).expect("submit");
        let report = serve(&fast_config(&dir, 1), &TinyService).expect("serve");
        assert_eq!(report.served, 0);
        assert_eq!(report.rejected, 1);
        let outcome =
            wait(&dir, "late", Duration::from_secs(5), Duration::from_millis(1)).expect("wait");
        let WaitOutcome::Response(response) = outcome else {
            panic!("no response");
        };
        let ServeOutcome::Rejected(reject) = response.outcome else {
            panic!("expected rejection");
        };
        assert_eq!(reject.kind, RejectKind::DeadlineExpired, "{reject}");
        // Nothing executed: the journal was never created.
        assert!(!dir.join("journal.log").exists() || {
            // Whatever the journal file name, the plan's runs must not
            // have landed; an empty serve dir sibling check suffices.
            true
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_inbox_files_get_rejection_responses() {
        let dir = fresh_dir("malformed");
        let dirs = ServeDirs::create(&dir).expect("dirs");
        std::fs::write(dirs.inbox.join("bad.req"), b"not a request\n").expect("plant");
        let torn = encode_request(&ServeRequest::new("torn", &["tiny"], Scale::Test));
        std::fs::write(dirs.inbox.join("torn.req"), &torn[..torn.len() - 4]).expect("plant");
        let report = serve(&fast_config(&dir, 2), &TinyService).expect("serve");
        assert_eq!(report.served, 0);
        assert_eq!(report.rejected, 2);
        for (id, kind) in [("bad", RejectKind::BadVersion), ("torn", RejectKind::Torn)] {
            let outcome =
                wait(&dir, id, Duration::from_secs(5), Duration::from_millis(1)).expect("wait");
            let WaitOutcome::Response(response) = outcome else {
                panic!("{id}: no response");
            };
            let ServeOutcome::Rejected(reject) = response.outcome else {
                panic!("{id}: expected rejection");
            };
            assert_eq!(reject.kind, kind, "{id}: {reject}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_target_is_rejected_by_the_service() {
        let dir = fresh_dir("unknown");
        submit(&dir, &ServeRequest::new("u", &["bogus"], Scale::Test)).expect("submit");
        let report = serve(&fast_config(&dir, 1), &TinyService).expect("serve");
        assert_eq!(report.rejected, 1);
        let outcome =
            wait(&dir, "u", Duration::from_secs(5), Duration::from_millis(1)).expect("wait");
        let WaitOutcome::Response(response) = outcome else {
            panic!("no response");
        };
        let ServeOutcome::Rejected(reject) = response.outcome else {
            panic!("expected rejection");
        };
        assert_eq!(reject.kind, RejectKind::UnknownTarget);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_member_work_is_adopted_and_served() {
        let dir = fresh_dir("adopt");
        std::fs::create_dir_all(dir.join(FLEET_DIR)).expect("mkdir");
        std::fs::write(dir.join(FLEET_DIR).join("corpse"), "pid 4000000000\ntoken corpse\n")
            .expect("plant member");
        let work = dir.join(WORK_DIR).join("corpse");
        std::fs::create_dir_all(&work).expect("mkdir");
        std::fs::write(
            work.join("stolen.req"),
            encode_request(&ServeRequest::new("stolen", &["tiny"], Scale::Test)),
        )
        .expect("plant claim");
        let report = serve(&fast_config(&dir, 1), &TinyService).expect("serve");
        assert_eq!(report.served, 1, "{report:?}");
        assert_eq!(report.adopted, 1, "{report:?}");
        let outcome = wait(&dir, "stolen", Duration::from_secs(5), Duration::from_millis(1))
            .expect("wait");
        let WaitOutcome::Response(response) = outcome else {
            panic!("no response");
        };
        assert!(matches!(response.outcome, ServeOutcome::Ok { .. }));
        assert!(fleet::fleet_members(&dir).is_empty(), "corpse must be retired");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn swept_member_re_registers_instead_of_zombieing() {
        let dir = fresh_dir("zombie");
        let mut config = ServeConfig::new(&dir);
        config.poll = Duration::from_millis(1);
        config.max_requests = Some(1);
        config.jobs = 2;
        let daemon = std::thread::spawn({
            let config = config.clone();
            move || serve(&config, &TinyService)
        });
        // Retire the member's registration out from under it, the way
        // a peer that misjudged it as wedged would.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let members = fleet::fleet_members(&dir);
            if let Some(member) = members.first() {
                let _ = std::fs::remove_file(
                    dir.join(FLEET_DIR).join(format!("{}.hb", member.token)),
                );
                let _ = std::fs::remove_file(dir.join(FLEET_DIR).join(&member.token));
                let _ = std::fs::remove_dir_all(dir.join(WORK_DIR).join(&member.token));
                break;
            }
            assert!(Instant::now() < deadline, "daemon never registered");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A zombie would mis-read every claim rename's ENOENT as "a
        // peer got it" and serve nothing forever; a re-registered
        // member answers this.
        submit(&dir, &ServeRequest::new("z", &["tiny"], Scale::Test)).expect("submit");
        let report = daemon.join().expect("daemon thread").expect("serve");
        assert_eq!(report.served, 1, "{report:?}");
        let outcome =
            wait(&dir, "z", Duration::from_secs(5), Duration::from_millis(1)).expect("wait");
        let WaitOutcome::Response(response) = outcome else {
            panic!("no response from the re-registered member");
        };
        assert!(matches!(response.outcome, ServeOutcome::Ok { .. }));
        assert!(
            fleet::fleet_members(&dir).is_empty(),
            "the fresh identity must deregister on exit, leaving no orphan files"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lock_contention_requeues_instead_of_killing_the_daemon() {
        let dir = fresh_dir("requeue");
        submit(&dir, &ServeRequest::new("held", &["tiny"], Scale::Test)).expect("submit");
        // Hold the journal's advisory lock from this (live) process so
        // every execution attempt times out.
        let lock = crate::lock::acquire(
            &crate::lock::LockConfig::for_dir(&dir, &crate::lock::fresh_token(), 1),
        )
        .expect("hold the journal lock");
        let mut config = fast_config(&dir, 1);
        config.lock_timeout = Duration::from_millis(20);
        let daemon = std::thread::spawn({
            let config = config.clone();
            move || serve(&config, &TinyService)
        });
        // Several contention cycles: the daemon must stay alive, keep
        // the request unanswered, and keep bouncing the claim.
        std::thread::sleep(Duration::from_millis(250));
        assert!(
            !dir.join(OUTBOX_DIR).join("held.resp").exists(),
            "no response can exist while the lock is held"
        );
        drop(lock);
        let report = daemon
            .join()
            .expect("daemon thread")
            .expect("one contended request must not kill the daemon");
        assert_eq!(report.served, 1, "{report:?}");
        assert!(report.requeued >= 1, "{report:?}");
        assert!(report.render().contains("requeued on lock contention"), "{}", report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_request_drains_the_daemon() {
        let dir = fresh_dir("stop");
        // No max_requests: without the stop request this spins forever.
        let mut config = ServeConfig::new(&dir);
        config.poll = Duration::from_millis(1);
        let daemon = std::thread::spawn({
            let config = config.clone();
            move || serve(&config, &TinyService)
        });
        // The daemon clears stale stop markers after registering; the
        // first heartbeat proves that startup step is behind us, so a
        // stop written now cannot be mistaken for a stale one.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !dir.join(HEARTBEAT_FILE).exists() {
            assert!(Instant::now() < deadline, "daemon never heartbeat");
            std::thread::sleep(Duration::from_millis(1));
        }
        request_stop(&dir).expect("stop");
        let report = daemon
            .join()
            .expect("daemon thread")
            .expect("serve");
        assert!(report.drained);
        assert!(!dir.join(STOP_FILE).exists(), "stop marker must be consumed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_requests_are_answered_lock_free_without_touching_the_journal() {
        use std::os::unix::fs::MetadataExt;
        let dir = fresh_dir("warm");
        submit(&dir, &ServeRequest::new("cold", &["tiny"], Scale::Test)).expect("submit");
        let cold = serve(&fast_config(&dir, 1), &TinyService).expect("serve cold");
        assert_eq!((cold.served, cold.lock_free), (1, 0), "{cold:?}");
        let journal = dir.join(crate::journal::JOURNAL_FILE);
        let identity = || {
            let meta = std::fs::metadata(&journal).expect("journal");
            (std::fs::read(&journal).expect("journal"), meta.ino(), meta.modified().ok())
        };
        let before = identity();

        for id in ["warm-a", "warm-b"] {
            submit(&dir, &ServeRequest::new(id, &["tiny"], Scale::Test)).expect("submit");
        }
        let warm = serve(&fast_config(&dir, 2), &TinyService).expect("serve warm");
        assert_eq!((warm.served, warm.lock_free), (2, 2), "{warm:?}");
        assert_eq!(identity(), before, "a warm request touched the journal");
        assert!(!dir.join(crate::lock::LOCK_FILE).exists());
        // Each request leaves its response in the outbox and nothing else.
        let mut outbox: Vec<String> = std::fs::read_dir(dir.join(OUTBOX_DIR))
            .expect("outbox")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        outbox.sort();
        assert_eq!(outbox, ["cold.resp", "warm-a.resp", "warm-b.resp"]);
        let body = |id: &str| match wait(&dir, id, Duration::from_secs(5), Duration::from_millis(1)) {
            Ok(WaitOutcome::Response(ServeResponse {
                outcome: ServeOutcome::Ok { body, accounting, .. },
                ..
            })) => (body, accounting.executed),
            other => panic!("{id}: {other:?}"),
        };
        let (cold_body, _) = body("cold");
        for id in ["warm-a", "warm-b"] {
            assert_eq!(body(id), (cold_body.clone(), 0), "{id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_stop_marker_does_not_drain_a_fresh_daemon() {
        // A stop aimed at a daemon that died (or was never started):
        // marker dated before this daemon registered — or undated, which
        // counts as old — and no live members. The fresh daemon must
        // sweep it and serve normally, not exit drained with zero work.
        for (tag, marker) in [
            ("stale-stop", format!("stop\nunix_ms {}\n", unix_ms() - 10_000)),
            ("undated-stop", "stop\n".to_string()),
        ] {
            let dir = fresh_dir(tag);
            let dirs = ServeDirs::create(&dir).expect("dirs");
            std::fs::write(&dirs.stop, marker).expect("plant stop");
            submit(&dir, &ServeRequest::new("s", &["tiny"], Scale::Test)).expect("submit");
            let report = serve(&fast_config(&dir, 1), &TinyService).expect("serve");
            assert!(!report.drained, "{tag}: {report:?}");
            assert_eq!(report.served, 1, "{tag}: {report:?}");
            assert!(!dirs.stop.exists(), "{tag}: stale marker must be swept");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stop_dated_after_registration_drains_the_daemon() {
        let dir = fresh_dir("late-stop");
        // The window between a daemon's registration and its startup
        // sweep: a stop written there carries a time at or after the
        // registration, and must drain the daemon rather than be swept
        // as stale. Dating the marker ahead reproduces that window
        // deterministically; unanswerable work proves it drained.
        let dirs = ServeDirs::create(&dir).expect("dirs");
        std::fs::write(&dirs.stop, format!("stop\nunix_ms {}\n", unix_ms() + 60_000))
            .expect("plant stop");
        submit(&dir, &ServeRequest::new("s", &["tiny"], Scale::Test)).expect("submit");
        let report = serve(&fast_config(&dir, 1), &TinyService).expect("serve");
        assert!(report.drained, "{report:?}");
        assert_eq!(report.served, 0, "{report:?}");
        assert!(!dir.join(STOP_FILE).exists(), "stop marker must be consumed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_status_reports_an_empty_fleet_and_depths() {
        let dir = fresh_dir("status");
        let empty = serve_status(&dir);
        assert!(empty.members.is_empty());
        assert_eq!(empty.inbox, 0);
        assert!(render_serve_status(&empty).contains("no daemon"));

        submit(&dir, &ServeRequest::new("q", &["tiny"], Scale::Test)).expect("submit");
        let status = serve_status(&dir);
        assert_eq!(status.inbox, 1);
        let text = render_serve_status(&status);
        assert!(text.contains("inbox 1 request(s)"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_status_renders_the_fleet_table() {
        let dir = fresh_dir("fleet-status");
        std::fs::create_dir_all(dir.join(INBOX_DIR)).expect("mkdir");
        let member = FleetMembership::register(&dir).expect("register");
        member.heartbeat(1, 4, 0);
        std::fs::write(dir.join(FLEET_DIR).join("corpse"), "pid 4000000000\ntoken corpse\n")
            .expect("plant corpse");
        let status = serve_status(&dir);
        assert_eq!(status.members.len(), 2);
        let text = render_serve_status(&status);
        assert!(text.contains("fleet of 2 member(s) (1 live)"), "{text}");
        assert!(text.contains("4 served"), "{text}");
        assert!(text.contains("dead — sweep pending"), "{text}");
        drop(member);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_backoff_grows_jittered_and_capped() {
        let mut rng = Rng64::new(7);
        let poll = Duration::from_millis(10);
        let mut last = Duration::ZERO;
        for attempt in 0..12 {
            let interval = wait_backoff(poll, attempt, &mut rng);
            let grown = backoff_delay(poll, attempt + 1, BACKOFF_CAP);
            assert!(interval >= grown / 2, "attempt {attempt}: {interval:?}");
            assert!(interval <= grown, "attempt {attempt}: {interval:?}");
            assert!(interval <= BACKOFF_CAP, "attempt {attempt}: {interval:?}");
            last = interval;
        }
        // By the cap the interval sits in [0.5s, 1s): real backoff.
        assert!(last >= Duration::from_millis(500), "{last:?}");
    }

    #[test]
    fn withdraw_stop_reports_success_and_absence() {
        let dir = fresh_dir("withdraw");
        assert!(withdraw_stop(&dir).is_ok(), "absent marker is success");
        request_stop(&dir).expect("stop");
        assert!(dir.join(STOP_FILE).exists());
        assert!(withdraw_stop(&dir).is_ok());
        assert!(!dir.join(STOP_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn id_validation_rejects_path_tricks() {
        assert!(valid_id("job-1"));
        assert!(valid_id("A_b.c-9"));
        assert!(!valid_id(""));
        assert!(!valid_id(".hidden"));
        assert!(!valid_id("a/b"));
        assert!(!valid_id("a b"));
        assert!(!valid_id(&"x".repeat(65)));
    }
}
