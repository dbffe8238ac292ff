//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! # Grammar
//!
//! Each request is one line. Either a bare verb:
//!
//! ```text
//! ping | stats | shutdown
//! ```
//!
//! or a JSON object (the same verbs are reachable as `{"verb":"stats"}`
//! for clients that only speak JSON):
//!
//! ```text
//! {"workload": "twolf", "policy": "postdoms", "config": {"max_cycles": 200000}}
//! ```
//!
//! * `workload` — a bundled benchmark, one of
//!   [`polyflow_workloads::names`]; **or** `program` — assembly text
//!   (the [`polyflow_isa::parse_program`] grammar) uploaded for
//!   simulation, exactly one of the two. An upload's `; window: N`
//!   pragma may not exceed [`MAX_UPLOAD_WINDOW`].
//! * `policy` — optional (default `postdoms`); any Figure 9 policy name,
//!   `superscalar`/`baseline`/`none` for the no-spawn baseline, or
//!   `rec_pred` for the dynamic reconvergence predictor (§4.4).
//! * `config` — optional overrides on the policy's base configuration
//!   (Figure 8 for spawn policies, the equivalent-resource superscalar
//!   for the baseline). See [`CONFIG_KEYS`].
//!
//! Uploaded programs share the result cache with bundled workloads
//! through the same content fingerprint the `verify` verb uses
//! ([`crate::verify::fingerprint`]): uploading a bundled benchmark's
//! canonical assembly lands on the very cache entry its name does.
//!
//! Every response is one line. Success:
//!
//! ```text
//! {"ok":true,"workload":"twolf","policy":"postdoms","result":{…SimResult + cycle account…}}
//! ```
//!
//! Failure (typed, never a panic, never a dropped connection):
//!
//! ```text
//! {"ok":false,"error":{"kind":"overloaded","message":"…"}}
//! ```
//!
//! The `result` member is byte-for-byte [`SimResult::to_json`] run
//! through [`json::compact`] — exactly what an offline
//! [`run_cell_with_config`] of the same cell renders, which is what the
//! served-vs-offline determinism check diffs.
//!
//! [`run_cell_with_config`]: polyflow_bench::sweep::run_cell_with_config
//!
//! [`SimResult::to_json`]: polyflow_sim::SimResult::to_json

use crate::json::{self, Json};
use polyflow_bench::sweep::Cell;
use polyflow_sim::{DependenceMode, MachineConfig};
use std::fmt;

/// Typed protocol failure kinds (the `error.kind` wire values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a well-formed request.
    BadRequest,
    /// `workload` named no bundled benchmark.
    UnknownWorkload,
    /// `policy` named no known spawn policy.
    UnknownPolicy,
    /// Admission control shed the request: the queue was full.
    Overloaded,
    /// The request's `deadline_ms` elapsed before its result was ready
    /// (dropped in the queue, or timed out waiting on the cell).
    DeadlineExceeded,
    /// The simulator returned a typed [`SimError`]
    /// (watchdog trip, malformed trace, …).
    ///
    /// [`SimError`]: polyflow_sim::SimError
    SimFailed,
    /// The server is draining and accepts no new simulation work.
    ShuttingDown,
    /// The request died inside the service (a caught panic).
    Internal,
}

impl ErrorKind {
    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownWorkload => "unknown_workload",
            ErrorKind::UnknownPolicy => "unknown_policy",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::SimFailed => "sim_failed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed protocol error: kind plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// The failure class.
    pub kind: ErrorKind,
    /// Detail for the client.
    pub message: String,
}

impl ServeError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run (or cache-serve) one simulation cell.
    Simulate(Box<SimRequest>),
    /// Run (or cache-serve) the lint pass over a workload or an
    /// uploaded program (see [`crate::verify`]).
    Verify(Box<crate::verify::VerifyRequest>),
    /// Report queue/cache/account observability counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Where a simulation request's program comes from.
#[derive(Debug, Clone)]
pub enum SimSource {
    /// A bundled benchmark (validated against
    /// [`polyflow_workloads::names`]).
    Bundled(&'static str),
    /// A program uploaded as assembly text, already parsed into a
    /// runtime workload (boxed — a parsed program is large next to the
    /// rest of the request).
    Uploaded(Box<polyflow_workloads::Workload>),
}

/// A validated simulation request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// The program to simulate.
    pub source: SimSource,
    /// What to run on it.
    pub cell: Cell,
    /// The effective machine configuration (base + request overrides).
    pub config: MachineConfig,
    /// The client's `deadline_ms` (capped server-side by
    /// `--max-deadline` at admission). Deliberately **not** part of the
    /// cache key: a deadline changes when a request gives up, never what
    /// its answer is.
    pub deadline_ms: Option<u64>,
    /// True when the client asked for the integrity trailer: the
    /// response line is followed by `\t` + 16 hex digits of FNV-1a over
    /// the line, so transport-level corruption (a flipped bit in a proxy
    /// or cable) is detectable. Not part of the cache key or the cached
    /// bytes — the trailer is computed at write time.
    pub integrity: bool,
}

impl SimRequest {
    /// Canonical policy label (`baseline`, `loop`, …, `rec_pred`): the
    /// cache-key component and the `policy` echoed in responses. Aliases
    /// (`superscalar`, `none`) normalize here, so they share cache
    /// entries.
    pub fn policy_label(&self) -> String {
        self.cell.label()
    }

    /// The `workload` label echoed in responses: the bundled name, or an
    /// upload's `.program` name (`program` when it has none).
    pub fn workload_label(&self) -> &str {
        match &self.source {
            SimSource::Bundled(name) => name,
            SimSource::Uploaded(w) => &w.name,
        }
    }

    /// The program's content fingerprint ([`crate::verify::fingerprint`])
    /// — the workload component of the result-cache key, shared between
    /// bundled-by-name and uploaded-by-content requests for the same
    /// program.
    pub fn fingerprint(&self) -> String {
        match &self.source {
            SimSource::Bundled(name) => bundled_fingerprint(name),
            SimSource::Uploaded(w) => crate::verify::fingerprint(&w.program),
        }
    }
}

/// Fingerprints of the bundled workloads, computed once on first touch
/// (each one is a program build plus a canonical rendering — too much
/// work to repeat on every request).
fn bundled_fingerprint(name: &str) -> String {
    use std::sync::OnceLock;
    static MAP: OnceLock<std::collections::HashMap<&'static str, String>> = OnceLock::new();
    MAP.get_or_init(|| {
        polyflow_workloads::names()
            .iter()
            .map(|n| {
                let w = polyflow_workloads::by_name(n).expect("bundled name");
                (*n, crate::verify::fingerprint(&w.program))
            })
            .collect()
    })[name]
        .clone()
}

/// The `config` override keys a request may carry, with the field each
/// one sets. Everything else about the machine is fixed by the paper's
/// Figure 8 (or its superscalar equivalent) — predictor geometry is
/// deliberately not overridable so every cached cell shares the
/// process-wide prepared traces.
pub const CONFIG_KEYS: &[&str] = &[
    "max_cycles",
    "max_tasks",
    "fetch_tasks_per_cycle",
    "max_spawn_distance",
    "min_spawn_distance",
    "divert_release_delay",
    "spawn_overhead_cycles",
    "squash_penalty",
    "hint_register_slots",
    "livelock_window",
    "store_sets",
    "reg_hints",
    "profitability_feedback",
];

/// Upper bound on an uploaded program's `; window: N` pragma, in
/// instructions. Preparation keeps every retired instruction resident,
/// so the window bounds an upload's memory; twice
/// [`polyflow_workloads::DEFAULT_ASM_WINDOW`], and above every bundled
/// window.
pub const MAX_UPLOAD_WINDOW: u64 = 2 * polyflow_workloads::DEFAULT_ASM_WINDOW;

/// Upper bound on requested task contexts (the paper's machine has 8;
/// this only guards against absurd allocations, not design exploration).
const MAX_TASKS_LIMIT: usize = 64;

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::BadRequest, msg)
}

/// Parses and validates one request line. `default_max_cycles` is the
/// server's per-request watchdog, applied when the request does not set
/// its own tighter budget.
pub fn parse_request(line: &str, default_max_cycles: u64) -> Result<Request, ServeError> {
    let line = line.trim();
    match line {
        "ping" => return Ok(Request::Ping),
        "stats" => return Ok(Request::Stats),
        "shutdown" => return Ok(Request::Shutdown),
        _ => {}
    }
    if !line.starts_with('{') {
        return Err(bad(format!(
            "expected a JSON object or one of ping/stats/shutdown, got `{}`",
            truncate(line, 40)
        )));
    }
    let v = json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if let Some(verb) = v.get("verb") {
        return match verb.as_str() {
            Some("ping") => bare_verb(&v, "ping").map(|()| Request::Ping),
            Some("stats") => bare_verb(&v, "stats").map(|()| Request::Stats),
            Some("shutdown") => bare_verb(&v, "shutdown").map(|()| Request::Shutdown),
            Some("simulate") => parse_simulate(&v, default_max_cycles),
            Some("verify") => parse_verify(&v),
            _ => Err(bad(
                "unknown verb (ping, stats, shutdown, simulate, verify)",
            )),
        };
    }
    parse_simulate(&v, default_max_cycles)
}

/// A bare verb in JSON form carries no other fields — the object form
/// must be exactly as strict as the bare line, so a misspelled or
/// misplaced field is a typed rejection, not silently dropped intent.
fn bare_verb(v: &Json, verb: &str) -> Result<(), ServeError> {
    let obj = v.as_obj().ok_or_else(|| bad("request must be an object"))?;
    for key in obj.keys() {
        if key != "verb" {
            return Err(bad(format!("`{verb}` takes no field `{key}`")));
        }
    }
    Ok(())
}

fn parse_simulate(v: &Json, default_max_cycles: u64) -> Result<Request, ServeError> {
    let obj = v.as_obj().ok_or_else(|| bad("request must be an object"))?;
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "verb" | "workload" | "program" | "policy" | "config" | "deadline_ms" | "integrity"
        ) {
            return Err(bad(format!(
                "unknown request field `{key}` \
                 (workload, program, policy, config, deadline_ms, integrity)"
            )));
        }
    }
    let source = match (v.get("workload"), v.get("program")) {
        (Some(_), Some(_)) => {
            return Err(bad("simulate takes `workload` or `program`, not both"));
        }
        (None, None) => {
            return Err(bad(
                "missing required string field `workload` (or a `program` upload)",
            ));
        }
        (Some(w), None) => {
            let name = w
                .as_str()
                .ok_or_else(|| bad("`workload` must be a string"))?;
            let name = polyflow_workloads::names()
                .iter()
                .find(|n| **n == name)
                .copied()
                .ok_or_else(|| {
                    ServeError::new(
                        ErrorKind::UnknownWorkload,
                        format!(
                            "unknown workload `{name}` (one of: {})",
                            polyflow_workloads::names().join(", ")
                        ),
                    )
                })?;
            SimSource::Bundled(name)
        }
        (None, Some(p)) => {
            let asm = p
                .as_str()
                .ok_or_else(|| bad("`program` must be a string"))?;
            let workload = polyflow_workloads::from_asm_str(asm, "program")
                .map_err(|e| bad(format!("program does not assemble: {e}")))?;
            if workload.window > MAX_UPLOAD_WINDOW {
                return Err(bad(format!(
                    "window {} exceeds the upload limit of {MAX_UPLOAD_WINDOW} instructions",
                    workload.window
                )));
            }
            SimSource::Uploaded(Box::new(workload))
        }
    };

    let policy_name = match v.get("policy") {
        None => "postdoms",
        Some(p) => p.as_str().ok_or_else(|| bad("`policy` must be a string"))?,
    };
    let cell = Cell::parse(policy_name).ok_or_else(|| {
        ServeError::new(
            ErrorKind::UnknownPolicy,
            format!(
                "unknown policy `{policy_name}` (one of: {}, rec_pred)",
                polyflow_bench::POLICY_NAMES.join(", ")
            ),
        )
    })?;

    let mut config = MachineConfig {
        max_cycles: default_max_cycles,
        ..cell.base_config()
    };
    if let Some(overrides) = v.get("config") {
        apply_overrides(&mut config, overrides)?;
    }

    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => {
            let ms = d
                .as_u64()
                .ok_or_else(|| bad("`deadline_ms` must be a non-negative integer"))?;
            if ms == 0 {
                return Err(bad("`deadline_ms` must be positive"));
            }
            Some(ms)
        }
    };
    let integrity = match v.get("integrity") {
        None => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad("`integrity` must be a boolean"))?,
    };
    Ok(Request::Simulate(Box::new(SimRequest {
        source,
        cell,
        config,
        deadline_ms,
        integrity,
    })))
}

/// Parses a `{"verb":"verify", …}` request: exactly one of `workload`
/// (a bundled benchmark name) or `program` (assembly text, the
/// [`polyflow_isa::parse_program`] grammar). Assembly that does not
/// parse is the client's mistake — a typed `bad_request` carrying the
/// assembler's line/column diagnostic, never a dropped connection.
fn parse_verify(v: &Json) -> Result<Request, ServeError> {
    let obj = v.as_obj().ok_or_else(|| bad("request must be an object"))?;
    for key in obj.keys() {
        if !matches!(key.as_str(), "verb" | "workload" | "program") {
            return Err(bad(format!(
                "unknown verify field `{key}` (workload, program)"
            )));
        }
    }
    let workload = v.get("workload");
    let source = v.get("program");
    let program = match (workload, source) {
        (Some(_), Some(_)) => {
            return Err(bad("verify takes `workload` or `program`, not both"));
        }
        (None, None) => {
            return Err(bad("verify needs a `workload` name or a `program` upload"));
        }
        (Some(w), None) => {
            let name = w
                .as_str()
                .ok_or_else(|| bad("`workload` must be a string"))?;
            polyflow_workloads::by_name(name)
                .ok_or_else(|| {
                    ServeError::new(
                        ErrorKind::UnknownWorkload,
                        format!(
                            "unknown workload `{name}` (one of: {})",
                            polyflow_workloads::names().join(", ")
                        ),
                    )
                })?
                .program
        }
        (None, Some(p)) => {
            let asm = p
                .as_str()
                .ok_or_else(|| bad("`program` must be a string"))?;
            polyflow_isa::parse_program(asm)
                .map_err(|e| bad(format!("program does not assemble: {e}")))?
        }
    };
    Ok(Request::Verify(Box::new(
        crate::verify::VerifyRequest::new(program),
    )))
}

fn apply_overrides(config: &mut MachineConfig, overrides: &Json) -> Result<(), ServeError> {
    let obj = overrides
        .as_obj()
        .ok_or_else(|| bad("`config` must be an object"))?;
    for (key, value) in obj {
        let num = || {
            value.as_u64().ok_or_else(|| {
                bad(format!(
                    "config field `{key}` must be a non-negative integer"
                ))
            })
        };
        let flag = || {
            value
                .as_bool()
                .ok_or_else(|| bad(format!("config field `{key}` must be a boolean")))
        };
        let positive = |n: u64| -> Result<u64, ServeError> {
            if n == 0 {
                Err(bad(format!("config field `{key}` must be positive")))
            } else {
                Ok(n)
            }
        };
        match key.as_str() {
            "max_cycles" => config.max_cycles = positive(num()?)?,
            "max_tasks" => {
                let n = positive(num()?)? as usize;
                if n > MAX_TASKS_LIMIT {
                    return Err(bad(format!("max_tasks capped at {MAX_TASKS_LIMIT}")));
                }
                config.max_tasks = n;
            }
            "fetch_tasks_per_cycle" => {
                config.fetch_tasks_per_cycle = positive(num()?)? as usize;
            }
            "max_spawn_distance" => config.max_spawn_distance = num()? as u32,
            "min_spawn_distance" => config.min_spawn_distance = num()? as u32,
            "divert_release_delay" => config.divert_release_delay = num()?,
            "spawn_overhead_cycles" => config.spawn_overhead_cycles = num()?,
            "squash_penalty" => config.squash_penalty = num()?,
            "hint_register_slots" => config.hint_register_slots = positive(num()?)? as usize,
            "livelock_window" => config.livelock_window = positive(num()?)?,
            "store_sets" => {
                config.memory_dependence = if flag()? {
                    DependenceMode::StoreSet
                } else {
                    DependenceMode::OracleSync
                };
            }
            "reg_hints" => {
                config.register_dependence = if flag()? {
                    DependenceMode::StoreSet
                } else {
                    DependenceMode::OracleSync
                };
            }
            "profitability_feedback" => config.profitability_feedback = flag()?,
            _ => {
                return Err(bad(format!(
                    "unknown config field `{key}` (known: {})",
                    CONFIG_KEYS.join(", ")
                )));
            }
        }
    }
    Ok(())
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Renders the success response line for a simulation. `result` must
/// already be compact single-line JSON ([`json::compact`] of
/// [`SimResult::to_json`]).
///
/// [`SimResult::to_json`]: polyflow_sim::SimResult::to_json
pub fn ok_response(workload: &str, policy_label: &str, result: &str) -> String {
    format!(
        "{{\"ok\":true,\"workload\":\"{}\",\"policy\":\"{}\",\"result\":{result}}}",
        json::escape(workload),
        json::escape(policy_label),
    )
}

/// Appends the integrity trailer to a response line: `\t` + 16 hex
/// digits of FNV-1a over the line's bytes. Sent only to requests that
/// set `"integrity":true`, so the cached/offline bytes never change.
pub fn with_integrity_trailer(line: &str) -> String {
    format!("{line}\t{:016x}", crate::journal::fnv1a(line.as_bytes()))
}

/// Splits a received line into `(body, trailer_state)`:
/// `None` = no trailer present, `Some(true)` = trailer verified,
/// `Some(false)` = trailer present but wrong (the line was corrupted in
/// flight — discard and retry, never trust the body).
pub fn check_integrity_trailer(line: &str) -> (&str, Option<bool>) {
    match line.rsplit_once('\t') {
        Some((body, trailer)) if trailer.len() == 16 => {
            let expect = format!("{:016x}", crate::journal::fnv1a(body.as_bytes()));
            (body, Some(trailer == expect))
        }
        _ => (line, None),
    }
}

/// Renders the error response line for `e`.
pub fn error_response(e: &ServeError) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
        e.kind.label(),
        json::escape(&e.message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: u64 = u64::MAX;

    #[test]
    fn verbs_parse_both_ways() {
        assert!(matches!(parse_request("ping", BUDGET), Ok(Request::Ping)));
        assert!(matches!(
            parse_request(" stats \n", BUDGET),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"shutdown\"}", BUDGET),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn simulate_defaults_and_aliases() {
        let Request::Simulate(r) = parse_request("{\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert_eq!(r.workload_label(), "twolf");
        assert_eq!(r.policy_label(), "postdoms");
        assert_eq!(r.config.max_tasks, MachineConfig::hpca07().max_tasks);

        for alias in ["superscalar", "baseline", "none"] {
            let line = format!("{{\"workload\":\"gzip\",\"policy\":\"{alias}\"}}");
            let Request::Simulate(r) = parse_request(&line, BUDGET).unwrap() else {
                panic!("not a simulate")
            };
            assert_eq!(r.policy_label(), "baseline", "{alias} normalizes");
            assert_eq!(r.config.max_tasks, 1, "baseline is the superscalar");
        }

        let Request::Simulate(r) =
            parse_request("{\"workload\":\"mcf\",\"policy\":\"rec_pred\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert!(matches!(r.cell, Cell::Reconv));
    }

    #[test]
    fn every_policy_name_runs_on_its_cells_base_machine() {
        let names = polyflow_bench::POLICY_NAMES
            .iter()
            .chain(&["baseline", "none", "rec_pred"]);
        for name in names {
            let line = format!("{{\"workload\":\"gzip\",\"policy\":\"{name}\"}}");
            let Request::Simulate(r) = parse_request(&line, 4242).unwrap() else {
                panic!("not a simulate")
            };
            let cell = Cell::parse(name).unwrap();
            assert_eq!(r.cell, cell, "{name}");
            let expected = MachineConfig {
                max_cycles: 4242,
                ..cell.base_config()
            };
            assert_eq!(r.config, expected, "{name}");
        }
    }

    #[test]
    fn simulate_accepts_an_uploaded_program() {
        let twolf = polyflow_workloads::by_name("twolf").unwrap().program;
        let asm = polyflow_isa::to_asm(&twolf);
        let line = format!(
            "{{\"program\":\"{}\",\"policy\":\"loop\"}}",
            crate::json::escape(&asm)
        );
        let Request::Simulate(up) = parse_request(&line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(up.workload_label(), "twolf", "label from `.program`");
        assert_eq!(up.policy_label(), "loop");

        // The canonical upload shares its cache identity with the
        // bundled name — one entry either way.
        let Request::Simulate(named) = parse_request("{\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert_eq!(up.fingerprint(), named.fingerprint());

        // An upload without a `.program` directive falls back to the
        // generic label and a distinct fingerprint.
        let line = "{\"verb\":\"simulate\",\"program\":\"fn main {\\n halt\\n}\"}";
        let Request::Simulate(r) = parse_request(line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.workload_label(), "program");
        assert_ne!(r.fingerprint(), named.fingerprint());
    }

    #[test]
    fn bare_verbs_reject_unknown_fields() {
        // The JSON form of ping/stats/shutdown is exactly as strict as
        // the bare line: any extra field is a typed rejection.
        let cases = [
            "{\"verb\":\"ping\",\"workload\":\"twolf\"}",
            "{\"verb\":\"stats\",\"detail\":true}",
            "{\"verb\":\"shutdown\",\"force\":1}",
            "{\"verb\":\"ping\",\"verb2\":\"ping\"}",
        ];
        for line in cases {
            let e = parse_request(line, BUDGET).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "`{line}` → {e}");
            assert!(e.message.contains("takes no field"), "`{line}` → {e}");
        }
    }

    #[test]
    fn config_overrides_apply() {
        let line = "{\"workload\":\"twolf\",\"policy\":\"postdoms\",\"config\":{\
                     \"max_cycles\":12345,\"max_tasks\":4,\"store_sets\":true,\
                     \"profitability_feedback\":false}}";
        let Request::Simulate(r) = parse_request(line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.config.max_cycles, 12_345);
        assert_eq!(r.config.max_tasks, 4);
        assert_eq!(r.config.memory_dependence, DependenceMode::StoreSet);
        assert!(!r.config.profitability_feedback);
    }

    #[test]
    fn default_budget_applies_when_unset() {
        let Request::Simulate(r) = parse_request("{\"workload\":\"twolf\"}", 777).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.config.max_cycles, 777);
    }

    #[test]
    fn upload_window_is_bounded() {
        const { assert!(MAX_UPLOAD_WINDOW >= polyflow_workloads::DEFAULT_ASM_WINDOW) };
        for w in polyflow_workloads::all() {
            assert!(w.window <= MAX_UPLOAD_WINDOW, "{}", w.name);
        }
        let upload = |window: u64| {
            let asm = format!("; window: {window}\nfn main {{\n    halt\n}}");
            parse_request(
                &format!("{{\"program\":\"{}\"}}", crate::json::escape(&asm)),
                BUDGET,
            )
        };
        upload(MAX_UPLOAD_WINDOW).unwrap();
        let e = upload(MAX_UPLOAD_WINDOW + 1).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest, "{e}");
        assert!(e.to_string().contains("window"), "{e}");
    }

    #[test]
    fn typed_rejections() {
        let cases: &[(&str, ErrorKind)] = &[
            ("not json at all", ErrorKind::BadRequest),
            ("{\"policy\":\"loop\"}", ErrorKind::BadRequest),
            ("{\"workload\":\"eon\"}", ErrorKind::UnknownWorkload),
            (
                "{\"workload\":\"twolf\",\"policy\":\"fastest\"}",
                ErrorKind::UnknownPolicy,
            ),
            (
                "{\"workload\":\"twolf\",\"frobnicate\":1}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"gshare_index_bits\":20}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"max_tasks\":0}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"max_tasks\":1000}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"config\":{\"max_cycles\":true}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"workload\":\"twolf\",\"program\":\"fn main { halt }\"}",
                ErrorKind::BadRequest,
            ),
            ("{\"program\":42}", ErrorKind::BadRequest),
            (
                "{\"program\":\"fn main { frobnicate r1 }\"}",
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let e = parse_request(line, BUDGET).unwrap_err();
            assert_eq!(e.kind, *kind, "`{line}` → {e}");
        }
    }

    #[test]
    fn verify_parses_workload_and_upload() {
        let Request::Verify(r) =
            parse_request("{\"verb\":\"verify\",\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a verify")
        };
        let twolf = polyflow_workloads::by_name("twolf").unwrap().program;
        assert_eq!(r.fingerprint, crate::verify::fingerprint(&twolf));

        // Uploading the same program (as its canonical assembly) lands on
        // the same fingerprint — one cache entry either way.
        let asm = polyflow_isa::to_asm(&twolf);
        let line = format!(
            "{{\"verb\":\"verify\",\"program\":\"{}\"}}",
            crate::json::escape(&asm)
        );
        let Request::Verify(up) = parse_request(&line, BUDGET).unwrap() else {
            panic!("not a verify")
        };
        assert_eq!(up.fingerprint, r.fingerprint);
    }

    #[test]
    fn verify_typed_rejections() {
        let cases: &[(&str, ErrorKind)] = &[
            ("{\"verb\":\"verify\"}", ErrorKind::BadRequest),
            (
                "{\"verb\":\"verify\",\"workload\":\"twolf\",\"program\":\"fn main { halt }\"}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"verb\":\"verify\",\"workload\":\"eon\"}",
                ErrorKind::UnknownWorkload,
            ),
            (
                "{\"verb\":\"verify\",\"program\":\"fn main { frobnicate r1 }\"}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"verb\":\"verify\",\"program\":42}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"verb\":\"verify\",\"workload\":\"twolf\",\"policy\":\"loop\"}",
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let e = parse_request(line, BUDGET).unwrap_err();
            assert_eq!(e.kind, *kind, "`{line}` → {e}");
        }
        // The assembler's position lands in the message.
        let e = parse_request(
            "{\"verb\":\"verify\",\"program\":\"fn main { frobnicate r1 }\"}",
            BUDGET,
        )
        .unwrap_err();
        assert!(e.message.contains("does not assemble"), "{}", e.message);
    }

    #[test]
    fn deadline_and_integrity_fields_parse_and_reject() {
        let line = "{\"workload\":\"twolf\",\"deadline_ms\":250,\"integrity\":true}";
        let Request::Simulate(r) = parse_request(line, BUDGET).unwrap() else {
            panic!("not a simulate")
        };
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.integrity);

        let Request::Simulate(r) = parse_request("{\"workload\":\"twolf\"}", BUDGET).unwrap()
        else {
            panic!("not a simulate")
        };
        assert_eq!(r.deadline_ms, None);
        assert!(!r.integrity);

        for bad_line in [
            "{\"workload\":\"twolf\",\"deadline_ms\":0}",
            "{\"workload\":\"twolf\",\"deadline_ms\":\"soon\"}",
            "{\"workload\":\"twolf\",\"integrity\":1}",
        ] {
            let e = parse_request(bad_line, BUDGET).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "`{bad_line}` → {e}");
        }
    }

    #[test]
    fn integrity_trailer_round_trips_and_catches_corruption() {
        let line = "{\"ok\":true,\"pong\":true}";
        let framed = with_integrity_trailer(line);
        let (body, state) = check_integrity_trailer(&framed);
        assert_eq!(body, line);
        assert_eq!(state, Some(true));

        // Flip one bit anywhere in the framed line: the check fails.
        for i in 0..framed.len() {
            let mut bytes = framed.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(corrupt) = String::from_utf8(bytes) {
                let (_, state) = check_integrity_trailer(&corrupt);
                assert_ne!(state, Some(true), "bit flip at {i} must not verify");
            }
        }

        // No trailer: body passes through, state is None.
        assert_eq!(check_integrity_trailer(line), (line, None));
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response("twolf", "postdoms", "{\"cycles\":1}");
        assert_eq!(
            ok,
            "{\"ok\":true,\"workload\":\"twolf\",\"policy\":\"postdoms\",\
             \"result\":{\"cycles\":1}}"
        );
        let err = error_response(&ServeError::new(ErrorKind::Overloaded, "queue full\nline2"));
        assert!(!err.contains('\n'));
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("overloaded")
        );
        assert_eq!(
            v.get("error").unwrap().get("message").unwrap().as_str(),
            Some("queue full\nline2")
        );
    }
}
