//! Chrome-trace-event (Perfetto-compatible) export of a flight log.
//!
//! [`export_trace`] merges everything the flight ring knows about a
//! fleet run onto one cross-enclave timeline, in the Trace Event JSON
//! format `ui.perfetto.dev` and `chrome://tracing` load directly:
//!
//! * telemetry span closures become `"X"` complete events (per-member
//!   process rows, `tid` 1);
//! * kernel faults, injected faults, runtime decisions, verdicts,
//!   supervisor actions, and watch alerts become `"i"` instants;
//! * every correlation chain becomes an `"X"` slice on a dedicated
//!   `tid` 2 track spanning the chain's first to last record, so the
//!   fault→handler→decision round trips read as bars under the spans
//!   they explain.
//!
//! Timestamps are **simulated cycles, verbatim** (one `ts` unit = one
//! cycle; `otherData.ts_unit` says so). No wall time, no floats, no
//! host state: the writer is line-oriented and fully deterministic, so
//! the artifact is byte-identical across reruns and `--jobs` levels.
//! A test-only parser reads the writer's exact format back, so the unit
//! tests check the schema by round trip.

use autarky_os_sim::kernel::Observation;
use autarky_os_sim::{FlightEvent, FlightRecord};
use autarky_sgx_sim::EnclaveId;
use std::collections::BTreeMap;

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The enclave a flight event is about, when it names one.
fn event_eid(event: &FlightEvent) -> Option<EnclaveId> {
    match event {
        FlightEvent::Transition { eid, .. }
        | FlightEvent::HandlerEntry { eid, .. }
        | FlightEvent::Supervisor { eid, .. }
        | FlightEvent::WatchAlert { eid, .. } => Some(*eid),
        FlightEvent::Kernel(obs) => match obs {
            Observation::Fault { eid, .. }
            | Observation::FetchSyscall { eid, .. }
            | Observation::EvictSyscall { eid, .. }
            | Observation::AllocSyscall { eid, .. }
            | Observation::SetEnclaveManaged { eid, .. }
            | Observation::SetOsManaged { eid, .. }
            | Observation::DemandPaging { eid, .. }
            | Observation::AdBitObserved { eid, .. }
            | Observation::FaultInjected { eid, .. } => Some(*eid),
            Observation::UntrustedAccess { .. } => None,
        },
        _ => None,
    }
}

/// `(name, cat, global_scope)` of the instant a record renders as, or
/// `None` for record kinds the trace omits (raw transitions and the
/// per-page syscall chatter, which would drown the timeline).
fn instant_of(event: &FlightEvent) -> Option<(String, &'static str, bool)> {
    match event {
        FlightEvent::Kernel(Observation::Fault { .. }) => {
            Some(("page_fault".to_owned(), "fault", false))
        }
        FlightEvent::Kernel(Observation::FaultInjected { .. }) => {
            Some(("injected_fault".to_owned(), "injection", false))
        }
        FlightEvent::Misbehavior { .. } => Some(("misbehavior".to_owned(), "decision", false)),
        FlightEvent::Retry { .. } => Some(("retry".to_owned(), "decision", false)),
        FlightEvent::Degrade { .. } => Some(("degrade".to_owned(), "decision", false)),
        FlightEvent::AttackDetected { .. } => Some(("attack_detected".to_owned(), "verdict", true)),
        FlightEvent::RateLimitKill => Some(("rate_limit_kill".to_owned(), "verdict", true)),
        FlightEvent::SnapshotCapture { .. } => {
            Some(("snapshot_capture".to_owned(), "snapshot", false))
        }
        FlightEvent::SnapshotRestore { .. } => {
            Some(("snapshot_restore".to_owned(), "snapshot", false))
        }
        FlightEvent::Supervisor { action, .. } => {
            Some((format!("supervisor:{action}"), "supervisor", false))
        }
        FlightEvent::WatchAlert { detector, .. } => {
            Some((format!("alert:{detector}"), "alert", true))
        }
        _ => None,
    }
}

/// Export a flight log as Chrome-trace-event JSON. `members` maps each
/// fleet member's enclave id to its display name (pid = raw enclave
/// id; pid 0 is the untrusted host). Deterministic: the output is a
/// pure function of `records` and `members`.
pub fn export_trace(records: &[FlightRecord], members: &[(EnclaveId, String)]) -> String {
    // Chain attribution: a chain belongs to the first enclave named in
    // it, so eid-less records (span closures, decisions) inherit the
    // pid of the fault round trip they were recorded under.
    let mut chain_eid: BTreeMap<u64, EnclaveId> = BTreeMap::new();
    let mut chain_span: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new(); // corr -> (first, last, count)
    for r in records {
        if r.corr == 0 {
            continue;
        }
        if let Some(eid) = event_eid(&r.event) {
            chain_eid.entry(r.corr).or_insert(eid);
        }
        let span = chain_span.entry(r.corr).or_insert((r.cycles, r.cycles, 0));
        span.1 = span.1.max(r.cycles);
        span.2 += 1;
    }
    let pid_of = |r: &FlightRecord| -> u32 {
        event_eid(&r.event)
            .or_else(|| chain_eid.get(&r.corr).copied())
            .map(|eid| eid.0)
            .unwrap_or(0)
    };

    let mut lines: Vec<String> = Vec::new();
    // Process/thread metadata rows, members in registration order.
    lines.push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"host\"}}"
            .to_owned(),
    );
    for (eid, name) in members {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{} (eid {})\"}}}}",
            eid.0,
            esc(name),
            eid.0
        ));
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"events\"}}}}",
            eid.0
        ));
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":2,\"name\":\"thread_name\",\"args\":{{\"name\":\"chains\"}}}}",
            eid.0
        ));
    }

    // Event rows, in flight-log order.
    for r in records {
        let pid = pid_of(r);
        match &r.event {
            FlightEvent::SpanClose(span) => {
                lines.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"span\",\"args\":{{\"seq\":{},\"corr\":{}}}}}",
                    span.start_cycles,
                    span.duration().max(1),
                    span.kind.name(),
                    r.seq,
                    r.corr
                ));
            }
            event => {
                if let Some((name, cat, global)) = instant_of(event) {
                    let scope = if global { "g" } else { "t" };
                    lines.push(format!(
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"s\":\"{scope}\",\"name\":\"{}\",\"cat\":\"{cat}\",\"args\":{{\"seq\":{},\"corr\":{},\"detail\":\"{}\"}}}}",
                        r.cycles,
                        esc(&name),
                        r.seq,
                        r.corr,
                        esc(&event.describe())
                    ));
                }
            }
        }
    }

    // Correlation chains as slices on each member's chain track.
    for (corr, (first, last, count)) in &chain_span {
        let pid = chain_eid.get(corr).map(|eid| eid.0).unwrap_or(0);
        lines.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":2,\"ts\":{first},\"dur\":{},\"name\":\"chain {corr}\",\"cat\":\"chain\",\"args\":{{\"corr\":{corr},\"events\":{count}}}}}",
            last.saturating_sub(*first).max(1)
        ));
    }

    let mut out = String::from("{\n\"displayTimeUnit\": \"ns\",\n");
    out.push_str(
        "\"otherData\": {\"generator\": \"autarky-watch\", \"ts_unit\": \"simulated-cycles\"},\n",
    );
    out.push_str("\"traceEvents\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n}\n");
    out
}

/// One event row as read back by [`parse_trace`].
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceEvent {
    /// Event phase (`M`, `X`, or `i`).
    pub ph: char,
    /// Process id (raw enclave id; 0 = host).
    pub pid: u32,
    /// Thread id (0 metadata, 1 events, 2 chains).
    pub tid: u32,
    /// Timestamp in simulated cycles (0 for metadata rows).
    pub ts: u64,
    /// Duration in simulated cycles (`X` rows only).
    pub dur: u64,
    /// Event name.
    pub name: String,
    /// Event category (empty for metadata rows).
    pub cat: String,
}

/// Scan `"key":<u64>` out of one event line.
#[cfg(test)]
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scan `"key":"value"` out of one event line, unescaping.
#[cfg(test)]
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Parse [`export_trace`] output back into event rows. Line-oriented —
/// exactly the writer's format, not general JSON. Errors name the
/// offending line so a schema break is diagnosable from the test log.
#[cfg(test)]
fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    let mut in_events = false;
    let mut seen_close = false;
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if t == "\"traceEvents\": [" {
            in_events = true;
            continue;
        }
        if !in_events {
            continue;
        }
        if t == "]" {
            seen_close = true;
            in_events = false;
            continue;
        }
        if !t.starts_with('{') || !t.ends_with('}') {
            return Err(format!("not an event object: {t}"));
        }
        let ph = field_str(t, "ph")
            .and_then(|s| s.chars().next())
            .ok_or_else(|| format!("missing ph: {t}"))?;
        let pid = field_u64(t, "pid").ok_or_else(|| format!("missing pid: {t}"))? as u32;
        let tid = field_u64(t, "tid").ok_or_else(|| format!("missing tid: {t}"))? as u32;
        let name = field_str(t, "name").ok_or_else(|| format!("missing name: {t}"))?;
        let ts = field_u64(t, "ts").unwrap_or(0);
        let dur = field_u64(t, "dur").unwrap_or(0);
        let cat = field_str(t, "cat").unwrap_or_default();
        match ph {
            'M' => {}
            'X' => {
                if field_u64(t, "dur").is_none() {
                    return Err(format!("X event without dur: {t}"));
                }
            }
            'i' => {
                if field_str(t, "s").is_none() {
                    return Err(format!("instant without scope: {t}"));
                }
            }
            other => return Err(format!("unknown phase {other:?}: {t}")),
        }
        events.push(TraceEvent {
            ph,
            pid,
            tid,
            ts,
            dur,
            name,
            cat,
        });
    }
    if !seen_close {
        return Err("traceEvents array never closed".to_owned());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::flight::FlightRecorder;
    use autarky_sgx_sim::{AccessKind, Va};
    use autarky_telemetry::{SpanKind, SpanRecord};

    fn sample_records() -> Vec<FlightRecord> {
        let mut rec = FlightRecorder::new(64);
        rec.begin_chain();
        rec.record(
            100,
            FlightEvent::Kernel(Observation::Fault {
                eid: EnclaveId(1),
                va: Va(0x5000),
                kind: AccessKind::Read,
            }),
        );
        rec.record(
            150,
            FlightEvent::SpanClose(SpanRecord {
                kind: SpanKind::FaultHandler,
                start_cycles: 100,
                end_cycles: 150,
            }),
        );
        rec.end_chain();
        rec.record(
            200,
            FlightEvent::Supervisor {
                eid: EnclaveId(2),
                action: "restart",
                why: "watchdog \"budget\"".to_owned(),
            },
        );
        rec.record(
            250,
            FlightEvent::WatchAlert {
                eid: EnclaveId(1),
                detector: "slo_burn",
                window: 3,
                score_milli: 5000,
                why: "budget burn".to_owned(),
            },
        );
        rec.snapshot()
    }

    fn members() -> Vec<(EnclaveId, String)> {
        vec![
            (EnclaveId(1), "kv-a".to_owned()),
            (EnclaveId(2), "kv-b".to_owned()),
        ]
    }

    #[test]
    fn export_is_deterministic() {
        let records = sample_records();
        let a = export_trace(&records, &members());
        let b = export_trace(&records, &members());
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_preserves_every_event() {
        let records = sample_records();
        let json = export_trace(&records, &members());
        let events = parse_trace(&json).expect("parse");
        // 1 host metadata + 3 per member, then the data rows.
        let meta = events.iter().filter(|e| e.ph == 'M').count();
        assert_eq!(meta, 1 + 3 * 2);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.ph == 'X' && e.cat == "span")
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "fault_handler");
        assert_eq!(spans[0].pid, 1, "span inherits its chain's enclave");
        assert_eq!(spans[0].ts, 100);
        assert_eq!(spans[0].dur, 50);
        let instants: Vec<_> = events.iter().filter(|e| e.ph == 'i').collect();
        assert_eq!(instants.len(), 3, "fault, supervisor, alert");
        assert!(instants.iter().any(|e| e.name == "alert:slo_burn"));
        assert!(instants.iter().any(|e| e.name == "supervisor:restart"));
        let chains: Vec<_> = events
            .iter()
            .filter(|e| e.ph == 'X' && e.cat == "chain")
            .collect();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].pid, 1);
        assert_eq!(chains[0].ts, 100);
    }

    #[test]
    fn escaping_survives_quotes_in_reasons() {
        let records = sample_records();
        let json = export_trace(&records, &members());
        let events = parse_trace(&json).expect("parse despite embedded quotes");
        assert!(events.iter().any(|e| e.name == "supervisor:restart"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_trace("{\n\"traceEvents\": [\nnot json\n]\n}\n").is_err());
        let missing_close = "{\n\"traceEvents\": [\n";
        assert!(parse_trace(missing_close).is_err());
        let bad_phase =
            "{\n\"traceEvents\": [\n{\"ph\":\"Q\",\"pid\":0,\"tid\":0,\"name\":\"x\"}\n]\n}\n";
        assert!(parse_trace(bad_phase).is_err());
    }

    #[test]
    fn empty_log_still_renders_valid_trace() {
        let json = export_trace(&[], &members());
        let events = parse_trace(&json).expect("parse");
        assert!(events.iter().all(|e| e.ph == 'M'));
        assert_eq!(events.len(), 7);
    }
}
