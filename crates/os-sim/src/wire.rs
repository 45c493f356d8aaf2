//! Lossless serialization of adversary observations and fault schedules.
//!
//! The leakage-audit subsystem persists observation traces to disk and
//! replays them deterministically; fault schedules travel alongside so a
//! run is fully described by its artifacts. External crates (serde) are
//! unavailable in the offline build, so this module hand-rolls a compact
//! line-oriented text format with the same contract a serde round-trip
//! would give: `decode(encode(x)) == x` for every value, checked by
//! randomized round-trip tests over values generated with
//! [`SimRng`](autarky_prng::SimRng).
//!
//! Grammar (one event per line, fields space-separated):
//!
//! ```text
//! fault <eid> <va> <r|w|x>
//! fetch <eid> <vpn,vpn,...>        ("-" for an empty list)
//! evict <eid> <vpns>
//! alloc <eid> <vpns>
//! semg  <eid> <vpns>               (SetEnclaveManaged)
//! somg  <eid> <vpns>               (SetOsManaged)
//! ua    <key> <r|w>                (UntrustedAccess)
//! dp    <eid> <vpn>                (DemandPaging)
//! ad    <eid> <vpn> <a|d>          (AdBitObserved)
//! inj   <eid> <fault...>           (FaultInjected; see encode_injected_fault)
//! ```
//!
//! Flight-recorder records (PR 5) extend the grammar with one `ev` line
//! per [`FlightRecord`], carrying the sequence number, cycle timestamp,
//! and correlation id, then a payload:
//!
//! ```text
//! ev <seq> <cycles> <corr> tr <kind> <eid> <tcs>       (enclave transition)
//! ev <seq> <cycles> <corr> k <observation line>        (kernel observation)
//! ev <seq> <cycles> <corr> he <eid> <vpn>              (handler entry)
//! ev <seq> <cycles> <corr> fwd <vpn>                   (forward-fetch decision)
//! ev <seq> <cycles> <corr> cfetch <vpn> <vpns>         (cluster-fetch decision)
//! ev <seq> <cycles> <corr> evd <vpns>                  (evict decision)
//! ev <seq> <cycles> <corr> retry <attempt> <backoff>
//! ev <seq> <cycles> <corr> mis <vpn> <used> <budget> <why...>
//! ev <seq> <cycles> <corr> shrink <from> <to>          (degrade step)
//! ev <seq> <cycles> <corr> attack <vpn> <why...>
//! ev <seq> <cycles> <corr> rlkill
//! ev <seq> <cycles> <corr> span <kind> <start> <end>
//! ```
//!
//! Free-text `why...` payloads occupy the rest of the line and are
//! re-joined with single spaces on decode, so round-tripping is exact
//! for the whitespace-normalized, non-empty reason strings the runtime
//! emits (which is all of them).
//!
//! `f64` rates in [`FaultPlan`] are encoded as IEEE-754 bit patterns in
//! hex so the round trip is exact, not shortest-decimal approximate.

use autarky_sgx_sim::machine::TransitionKind;
use autarky_sgx_sim::{AccessKind, EnclaveId, Va, Vpn};
use autarky_telemetry::{SpanKind, SpanRecord};

use crate::fault::{FaultKind, FaultPlan, InjectedFault};
use crate::flight::{FlightEvent, FlightRecord};
use crate::kernel::Observation;

/// A malformed wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What failed to parse.
    pub what: &'static str,
    /// The offending input line.
    pub line: String,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "wire decode error ({}): {:?}", self.what, self.line)
    }
}

impl std::error::Error for WireError {}

fn err<T>(what: &'static str, line: &str) -> Result<T, WireError> {
    Err(WireError {
        what,
        line: line.to_owned(),
    })
}

fn kind_tag(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "r",
        AccessKind::Write => "w",
        AccessKind::Execute => "x",
    }
}

fn parse_kind(tag: &str, line: &str) -> Result<AccessKind, WireError> {
    match tag {
        "r" => Ok(AccessKind::Read),
        "w" => Ok(AccessKind::Write),
        "x" => Ok(AccessKind::Execute),
        _ => err("access kind", line),
    }
}

fn pages_field(pages: &[Vpn]) -> String {
    if pages.is_empty() {
        "-".to_owned()
    } else {
        pages
            .iter()
            .map(|v| v.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn parse_pages(field: &str, line: &str) -> Result<Vec<Vpn>, WireError> {
    if field == "-" {
        return Ok(Vec::new());
    }
    field
        .split(',')
        .map(|p| p.parse::<u64>().map(Vpn).or(err("vpn", line)))
        .collect()
}

fn parse_u64(field: &str, line: &str) -> Result<u64, WireError> {
    field.parse::<u64>().or(err("u64", line))
}

fn parse_usize(field: &str, line: &str) -> Result<usize, WireError> {
    field.parse::<usize>().or(err("usize", line))
}

fn parse_eid(field: &str, line: &str) -> Result<EnclaveId, WireError> {
    field.parse::<u32>().map(EnclaveId).or(err("eid", line))
}

/// Encode one observation as a single line (no trailing newline).
pub fn encode_observation(obs: &Observation) -> String {
    match obs {
        Observation::Fault { eid, va, kind } => {
            format!("fault {} {} {}", eid.0, va.0, kind_tag(*kind))
        }
        Observation::FetchSyscall { eid, pages } => {
            format!("fetch {} {}", eid.0, pages_field(pages))
        }
        Observation::EvictSyscall { eid, pages } => {
            format!("evict {} {}", eid.0, pages_field(pages))
        }
        Observation::AllocSyscall { eid, pages } => {
            format!("alloc {} {}", eid.0, pages_field(pages))
        }
        Observation::SetEnclaveManaged { eid, pages } => {
            format!("semg {} {}", eid.0, pages_field(pages))
        }
        Observation::SetOsManaged { eid, pages } => {
            format!("somg {} {}", eid.0, pages_field(pages))
        }
        Observation::UntrustedAccess { key, write } => {
            format!("ua {} {}", key, if *write { "w" } else { "r" })
        }
        Observation::DemandPaging { eid, vpn } => format!("dp {} {}", eid.0, vpn.0),
        Observation::AdBitObserved { eid, vpn, dirty } => {
            format!("ad {} {} {}", eid.0, vpn.0, if *dirty { "d" } else { "a" })
        }
        Observation::FaultInjected { eid, fault } => {
            format!("inj {} {}", eid.0, encode_injected_fault(fault))
        }
    }
}

/// Decode one observation line.
pub fn decode_observation(line: &str) -> Result<Observation, WireError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [tag, rest @ ..] = fields.as_slice() else {
        return err("empty line", line);
    };
    match (*tag, rest) {
        ("fault", [eid, va, kind]) => Ok(Observation::Fault {
            eid: parse_eid(eid, line)?,
            va: Va(parse_u64(va, line)?),
            kind: parse_kind(kind, line)?,
        }),
        ("fetch", [eid, pages]) => Ok(Observation::FetchSyscall {
            eid: parse_eid(eid, line)?,
            pages: parse_pages(pages, line)?,
        }),
        ("evict", [eid, pages]) => Ok(Observation::EvictSyscall {
            eid: parse_eid(eid, line)?,
            pages: parse_pages(pages, line)?,
        }),
        ("alloc", [eid, pages]) => Ok(Observation::AllocSyscall {
            eid: parse_eid(eid, line)?,
            pages: parse_pages(pages, line)?,
        }),
        ("semg", [eid, pages]) => Ok(Observation::SetEnclaveManaged {
            eid: parse_eid(eid, line)?,
            pages: parse_pages(pages, line)?,
        }),
        ("somg", [eid, pages]) => Ok(Observation::SetOsManaged {
            eid: parse_eid(eid, line)?,
            pages: parse_pages(pages, line)?,
        }),
        ("ua", [key, rw]) => Ok(Observation::UntrustedAccess {
            key: parse_u64(key, line)?,
            write: match *rw {
                "w" => true,
                "r" => false,
                _ => return err("ua r/w", line),
            },
        }),
        ("dp", [eid, vpn]) => Ok(Observation::DemandPaging {
            eid: parse_eid(eid, line)?,
            vpn: Vpn(parse_u64(vpn, line)?),
        }),
        ("ad", [eid, vpn, ad]) => Ok(Observation::AdBitObserved {
            eid: parse_eid(eid, line)?,
            vpn: Vpn(parse_u64(vpn, line)?),
            dirty: match *ad {
                "d" => true,
                "a" => false,
                _ => return err("ad a/d", line),
            },
        }),
        ("inj", [eid, fault @ ..]) => Ok(Observation::FaultInjected {
            eid: parse_eid(eid, line)?,
            fault: decode_injected_fault_fields(fault, line)?,
        }),
        _ => err("observation tag", line),
    }
}

/// Encode a whole observation stream, one event per line.
pub fn encode_observations(stream: &[Observation]) -> String {
    let mut out = String::new();
    for obs in stream {
        out.push_str(&encode_observation(obs));
        out.push('\n');
    }
    out
}

/// Decode an observation stream (blank lines and `#` comments skipped).
pub fn decode_observations(text: &str) -> Result<Vec<Observation>, WireError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(decode_observation)
        .collect()
}

/// Encode an injected fault (the payload of `inj` lines, also usable
/// standalone for fault-schedule artifacts).
pub fn encode_injected_fault(fault: &InjectedFault) -> String {
    match fault {
        InjectedFault::TransientNoMemory => "nomem".to_owned(),
        InjectedFault::PartialBatch { completed } => format!("partial {completed}"),
        InjectedFault::WrongResidence { index } => format!("wrongres {index}"),
        InjectedFault::DropPage { index } => format!("drop {index}"),
        InjectedFault::SpuriousEvict { vpn } => format!("spurious {}", vpn.0),
        InjectedFault::CorruptBacking { vpn } => format!("corrupt {}", vpn.0),
        InjectedFault::ReplayBacking { vpn } => format!("replay {}", vpn.0),
        InjectedFault::Delay { cycles } => format!("delay {cycles}"),
        InjectedFault::Suspend { completed } => format!("suspend {completed}"),
        InjectedFault::StaleSnapshot { counter } => format!("stalesnap {counter}"),
        InjectedFault::ForkedSnapshot { counter } => format!("forksnap {counter}"),
        InjectedFault::TruncatedSnapshot { len } => format!("truncsnap {len}"),
        InjectedFault::CounterRollback { to } => format!("ctrroll {to}"),
    }
}

/// Decode an injected fault.
pub fn decode_injected_fault(text: &str) -> Result<InjectedFault, WireError> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    decode_injected_fault_fields(&fields, text)
}

fn decode_injected_fault_fields(fields: &[&str], line: &str) -> Result<InjectedFault, WireError> {
    match fields {
        ["nomem"] => Ok(InjectedFault::TransientNoMemory),
        ["partial", n] => Ok(InjectedFault::PartialBatch {
            completed: parse_usize(n, line)?,
        }),
        ["wrongres", i] => Ok(InjectedFault::WrongResidence {
            index: parse_usize(i, line)?,
        }),
        ["drop", i] => Ok(InjectedFault::DropPage {
            index: parse_usize(i, line)?,
        }),
        ["spurious", v] => Ok(InjectedFault::SpuriousEvict {
            vpn: Vpn(parse_u64(v, line)?),
        }),
        ["corrupt", v] => Ok(InjectedFault::CorruptBacking {
            vpn: Vpn(parse_u64(v, line)?),
        }),
        ["replay", v] => Ok(InjectedFault::ReplayBacking {
            vpn: Vpn(parse_u64(v, line)?),
        }),
        ["delay", c] => Ok(InjectedFault::Delay {
            cycles: parse_u64(c, line)?,
        }),
        ["suspend", n] => Ok(InjectedFault::Suspend {
            completed: parse_usize(n, line)?,
        }),
        ["stalesnap", c] => Ok(InjectedFault::StaleSnapshot {
            counter: parse_u64(c, line)?,
        }),
        ["forksnap", c] => Ok(InjectedFault::ForkedSnapshot {
            counter: parse_u64(c, line)?,
        }),
        ["truncsnap", n] => Ok(InjectedFault::TruncatedSnapshot {
            len: parse_usize(n, line)?,
        }),
        ["ctrroll", to] => Ok(InjectedFault::CounterRollback {
            to: parse_u64(to, line)?,
        }),
        _ => err("injected fault", line),
    }
}

/// Encode a fault kind (stable one-word tags).
pub fn encode_fault_kind(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::TransientNoMemory => "nomem",
        FaultKind::PartialBatch => "partial",
        FaultKind::WrongResidence => "wrongres",
        FaultKind::DropPage => "drop",
        FaultKind::SpuriousEvict => "spurious",
        FaultKind::CorruptBacking => "corrupt",
        FaultKind::ReplayBacking => "replay",
        FaultKind::Delay => "delay",
        FaultKind::Suspend => "suspend",
    }
}

/// Decode a fault kind tag.
pub fn decode_fault_kind(tag: &str) -> Result<FaultKind, WireError> {
    FaultKind::ALL
        .into_iter()
        .find(|&k| encode_fault_kind(k) == tag)
        .ok_or_else(|| WireError {
            what: "fault kind",
            line: tag.to_owned(),
        })
}

/// Encode a fault plan as one line of `key=value` pairs. Rates are IEEE
/// bit patterns in hex so the round trip is bit-exact.
pub fn encode_fault_plan(plan: &FaultPlan) -> String {
    let max = plan
        .max_injections
        .map(|m| m.to_string())
        .unwrap_or_else(|| "-".to_owned());
    let mut line = format!(
        "plan seed={} nomem={:016x} partial={:016x} wrongres={:016x} drop={:016x} \
         spurious={:016x} corrupt={:016x} replay={:016x} delay={:016x} delay_cycles={} \
         suspend={:016x} max={}",
        plan.seed,
        plan.transient_no_memory.to_bits(),
        plan.partial_batch.to_bits(),
        plan.wrong_residence.to_bits(),
        plan.drop_page.to_bits(),
        plan.spurious_evict.to_bits(),
        plan.corrupt_backing.to_bits(),
        plan.replay_backing.to_bits(),
        plan.delay.to_bits(),
        plan.delay_cycles,
        plan.suspend.to_bits(),
        max,
    );
    // Emitted only when targeted, so untargeted plans (every pre-fleet
    // artifact) keep their exact historical encoding.
    if let Some(target) = plan.target {
        line.push_str(&format!(" tgt={}", target.0));
    }
    line
}

/// Decode a fault plan line produced by [`encode_fault_plan`].
pub fn decode_fault_plan(line: &str) -> Result<FaultPlan, WireError> {
    let mut plan = FaultPlan::quiescent(0);
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.first() != Some(&"plan") {
        return err("plan tag", line);
    }
    let rate = |v: &str| -> Result<f64, WireError> {
        u64::from_str_radix(v, 16)
            .map(f64::from_bits)
            .or(err("rate bits", line))
    };
    for field in &fields[1..] {
        let (key, value) = field.split_once('=').ok_or(WireError {
            what: "key=value",
            line: line.to_owned(),
        })?;
        match key {
            "seed" => plan.seed = parse_u64(value, line)?,
            "nomem" => plan.transient_no_memory = rate(value)?,
            "partial" => plan.partial_batch = rate(value)?,
            "wrongres" => plan.wrong_residence = rate(value)?,
            "drop" => plan.drop_page = rate(value)?,
            "spurious" => plan.spurious_evict = rate(value)?,
            "corrupt" => plan.corrupt_backing = rate(value)?,
            "replay" => plan.replay_backing = rate(value)?,
            "delay" => plan.delay = rate(value)?,
            "delay_cycles" => plan.delay_cycles = parse_u64(value, line)?,
            "suspend" => plan.suspend = rate(value)?,
            "max" => {
                plan.max_injections = if value == "-" {
                    None
                } else {
                    Some(parse_u64(value, line)?)
                }
            }
            "tgt" => plan.target = Some(parse_eid(value, line)?),
            _ => return err("plan key", line),
        }
    }
    Ok(plan)
}

/// Encode a transition kind (stable one-word tags shared with
/// `TransitionKind::name`).
pub fn encode_transition_kind(kind: TransitionKind) -> &'static str {
    kind.name()
}

/// Decode a transition kind tag.
pub fn decode_transition_kind(tag: &str) -> Result<TransitionKind, WireError> {
    TransitionKind::ALL
        .into_iter()
        .find(|&k| k.name() == tag)
        .ok_or_else(|| WireError {
            what: "transition kind",
            line: tag.to_owned(),
        })
}

fn rest_of_line(fields: &[&str], line: &str) -> Result<String, WireError> {
    if fields.is_empty() {
        return err("empty why", line);
    }
    Ok(fields.join(" "))
}

/// Encode one flight-event payload (the part of an `ev` line after the
/// seq/cycles/corr header fields).
pub fn encode_flight_event(event: &FlightEvent) -> String {
    match event {
        FlightEvent::Transition { kind, eid, tcs } => {
            format!("tr {} {} {}", encode_transition_kind(*kind), eid.0, tcs)
        }
        FlightEvent::Kernel(obs) => format!("k {}", encode_observation(obs)),
        FlightEvent::HandlerEntry { eid, vpn } => format!("he {} {}", eid.0, vpn.0),
        FlightEvent::DecisionForward { vpn } => format!("fwd {}", vpn.0),
        FlightEvent::DecisionClusterFetch { vpn, pages } => {
            format!("cfetch {} {}", vpn.0, pages_field(pages))
        }
        FlightEvent::DecisionEvict { pages } => format!("evd {}", pages_field(pages)),
        FlightEvent::Retry {
            attempt,
            backoff_cycles,
        } => format!("retry {attempt} {backoff_cycles}"),
        FlightEvent::Misbehavior {
            vpn,
            used,
            budget,
            why,
        } => format!("mis {} {used} {budget} {why}", vpn.0),
        FlightEvent::Degrade { from, to } => format!("shrink {from} {to}"),
        FlightEvent::AttackDetected { vpn, why } => format!("attack {} {why}", vpn.0),
        FlightEvent::RateLimitKill => "rlkill".to_owned(),
        FlightEvent::SnapshotCapture { counter } => format!("snapcap {counter}"),
        FlightEvent::SnapshotRestore { counter } => format!("snaprest {counter}"),
        FlightEvent::Supervisor { eid, action, why } => {
            format!("sup {} {action} {why}", eid.0)
        }
        FlightEvent::SpanClose(span) => format!(
            "span {} {} {}",
            span.kind.name(),
            span.start_cycles,
            span.end_cycles
        ),
        FlightEvent::WatchAlert {
            eid,
            detector,
            window,
            score_milli,
            vpn,
            why,
        } => {
            let page = match vpn {
                Some(v) => v.0.to_string(),
                None => "-".to_owned(),
            };
            format!(
                "walert {} {detector} {window} {score_milli} {page} {why}",
                eid.0
            )
        }
    }
}

fn decode_flight_event_fields(fields: &[&str], line: &str) -> Result<FlightEvent, WireError> {
    let [tag, rest @ ..] = fields else {
        return err("flight event tag", line);
    };
    match (*tag, rest) {
        ("tr", [kind, eid, tcs]) => Ok(FlightEvent::Transition {
            kind: decode_transition_kind(kind)?,
            eid: parse_eid(eid, line)?,
            tcs: parse_usize(tcs, line)?,
        }),
        ("k", obs) => {
            let joined = obs.join(" ");
            Ok(FlightEvent::Kernel(decode_observation(&joined)?))
        }
        ("he", [eid, vpn]) => Ok(FlightEvent::HandlerEntry {
            eid: parse_eid(eid, line)?,
            vpn: Vpn(parse_u64(vpn, line)?),
        }),
        ("fwd", [vpn]) => Ok(FlightEvent::DecisionForward {
            vpn: Vpn(parse_u64(vpn, line)?),
        }),
        ("cfetch", [vpn, pages]) => Ok(FlightEvent::DecisionClusterFetch {
            vpn: Vpn(parse_u64(vpn, line)?),
            pages: parse_pages(pages, line)?,
        }),
        ("evd", [pages]) => Ok(FlightEvent::DecisionEvict {
            pages: parse_pages(pages, line)?,
        }),
        ("retry", [attempt, backoff]) => Ok(FlightEvent::Retry {
            attempt: parse_u64(attempt, line)?,
            backoff_cycles: parse_u64(backoff, line)?,
        }),
        ("mis", [vpn, used, budget, why @ ..]) => Ok(FlightEvent::Misbehavior {
            vpn: Vpn(parse_u64(vpn, line)?),
            used: parse_u64(used, line)?,
            budget: parse_u64(budget, line)?,
            why: rest_of_line(why, line)?,
        }),
        ("shrink", [from, to]) => Ok(FlightEvent::Degrade {
            from: parse_u64(from, line)?,
            to: parse_u64(to, line)?,
        }),
        ("attack", [vpn, why @ ..]) => Ok(FlightEvent::AttackDetected {
            vpn: Vpn(parse_u64(vpn, line)?),
            why: rest_of_line(why, line)?,
        }),
        ("rlkill", []) => Ok(FlightEvent::RateLimitKill),
        ("snapcap", [counter]) => Ok(FlightEvent::SnapshotCapture {
            counter: parse_u64(counter, line)?,
        }),
        ("snaprest", [counter]) => Ok(FlightEvent::SnapshotRestore {
            counter: parse_u64(counter, line)?,
        }),
        ("sup", [eid, action, why @ ..]) => Ok(FlightEvent::Supervisor {
            eid: parse_eid(eid, line)?,
            action: (*action).to_owned(),
            why: rest_of_line(why, line)?,
        }),
        ("span", [kind, start, end]) => Ok(FlightEvent::SpanClose(SpanRecord {
            kind: SpanKind::from_name(kind).ok_or_else(|| WireError {
                what: "span kind",
                line: line.to_owned(),
            })?,
            start_cycles: parse_u64(start, line)?,
            end_cycles: parse_u64(end, line)?,
        })),
        ("walert", [eid, detector, window, score, page, why @ ..]) => Ok(FlightEvent::WatchAlert {
            eid: parse_eid(eid, line)?,
            detector: (*detector).to_owned(),
            window: parse_u64(window, line)?,
            score_milli: parse_u64(score, line)?,
            vpn: if *page == "-" {
                None
            } else {
                Some(Vpn(parse_u64(page, line)?))
            },
            why: rest_of_line(why, line)?,
        }),
        _ => err("flight event", line),
    }
}

/// Encode one flight record as a single `ev` line (no trailing newline).
pub fn encode_flight_record(record: &FlightRecord) -> String {
    format!(
        "ev {} {} {} {}",
        record.seq,
        record.cycles,
        record.corr,
        encode_flight_event(&record.event)
    )
}

/// Decode one `ev` line.
pub fn decode_flight_record(line: &str) -> Result<FlightRecord, WireError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let ["ev", seq, cycles, corr, payload @ ..] = fields.as_slice() else {
        return err("ev header", line);
    };
    Ok(FlightRecord {
        seq: parse_u64(seq, line)?,
        cycles: parse_u64(cycles, line)?,
        corr: parse_u64(corr, line)?,
        event: decode_flight_event_fields(payload, line)?,
    })
}

/// Encode a whole flight log, one record per line.
pub fn encode_flight_log(records: &[FlightRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&encode_flight_record(record));
        out.push('\n');
    }
    out
}

/// Decode a flight log (blank lines and `#` comments skipped).
pub fn decode_flight_log(text: &str) -> Result<Vec<FlightRecord>, WireError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(decode_flight_record)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_prng::SimRng;

    fn random_pages(rng: &mut SimRng) -> Vec<Vpn> {
        let n = rng.gen_range_usize(0..6);
        (0..n).map(|_| Vpn(rng.gen_range(0..1 << 40))).collect()
    }

    fn random_injected_fault(rng: &mut SimRng) -> InjectedFault {
        match rng.gen_range(0..13) {
            0 => InjectedFault::TransientNoMemory,
            1 => InjectedFault::PartialBatch {
                completed: rng.gen_range_usize(0..100),
            },
            2 => InjectedFault::WrongResidence {
                index: rng.gen_range_usize(0..100),
            },
            3 => InjectedFault::DropPage {
                index: rng.gen_range_usize(0..100),
            },
            4 => InjectedFault::SpuriousEvict {
                vpn: Vpn(rng.next_u64() >> 12),
            },
            5 => InjectedFault::CorruptBacking {
                vpn: Vpn(rng.next_u64() >> 12),
            },
            6 => InjectedFault::ReplayBacking {
                vpn: Vpn(rng.next_u64() >> 12),
            },
            7 => InjectedFault::Delay {
                cycles: rng.next_u64() >> 20,
            },
            8 => InjectedFault::Suspend {
                completed: rng.gen_range_usize(0..100),
            },
            9 => InjectedFault::StaleSnapshot {
                counter: rng.next_u64() >> 32,
            },
            10 => InjectedFault::ForkedSnapshot {
                counter: rng.next_u64() >> 32,
            },
            11 => InjectedFault::TruncatedSnapshot {
                len: rng.gen_range_usize(0..100_000),
            },
            _ => InjectedFault::CounterRollback {
                to: rng.next_u64() >> 32,
            },
        }
    }

    fn random_observation(rng: &mut SimRng) -> Observation {
        let eid = EnclaveId(rng.next_u32() >> 8);
        match rng.gen_range(0..10) {
            0 => Observation::Fault {
                eid,
                va: Va(rng.next_u64() >> 4),
                kind: [AccessKind::Read, AccessKind::Write, AccessKind::Execute]
                    [rng.gen_range_usize(0..3)],
            },
            1 => Observation::FetchSyscall {
                eid,
                pages: random_pages(rng),
            },
            2 => Observation::EvictSyscall {
                eid,
                pages: random_pages(rng),
            },
            3 => Observation::AllocSyscall {
                eid,
                pages: random_pages(rng),
            },
            4 => Observation::SetEnclaveManaged {
                eid,
                pages: random_pages(rng),
            },
            5 => Observation::SetOsManaged {
                eid,
                pages: random_pages(rng),
            },
            6 => Observation::UntrustedAccess {
                key: rng.next_u64(),
                write: rng.gen_bool(0.5),
            },
            7 => Observation::DemandPaging {
                eid,
                vpn: Vpn(rng.next_u64() >> 12),
            },
            8 => Observation::AdBitObserved {
                eid,
                vpn: Vpn(rng.next_u64() >> 12),
                dirty: rng.gen_bool(0.5),
            },
            _ => Observation::FaultInjected {
                eid,
                fault: random_injected_fault(rng),
            },
        }
    }

    #[test]
    fn observation_roundtrip_randomized() {
        let mut rng = SimRng::seed_from_u64(0x11EA_4A6E);
        for case in 0..2000 {
            let obs = random_observation(&mut rng);
            let line = encode_observation(&obs);
            let back = decode_observation(&line).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(back, obs, "case {case}: {line}");
        }
    }

    #[test]
    fn stream_roundtrip_with_comments_and_blanks() {
        let mut rng = SimRng::seed_from_u64(0xC0FF);
        let stream: Vec<Observation> = (0..50).map(|_| random_observation(&mut rng)).collect();
        let mut text = String::from("# header comment\n\n");
        text.push_str(&encode_observations(&stream));
        assert_eq!(decode_observations(&text).expect("decode"), stream);
    }

    #[test]
    fn injected_fault_roundtrip_randomized() {
        let mut rng = SimRng::seed_from_u64(0xFA17);
        for _ in 0..1000 {
            let fault = random_injected_fault(&mut rng);
            let text = encode_injected_fault(&fault);
            assert_eq!(decode_injected_fault(&text).expect("decode"), fault);
        }
    }

    #[test]
    fn fault_kind_roundtrip_exhaustive() {
        for kind in FaultKind::ALL {
            assert_eq!(
                decode_fault_kind(encode_fault_kind(kind)).expect("decode"),
                kind
            );
        }
        assert!(decode_fault_kind("bogus").is_err());
    }

    #[test]
    fn fault_plan_roundtrip_is_bit_exact() {
        let mut rng = SimRng::seed_from_u64(0x9A17);
        for _ in 0..200 {
            let plan = FaultPlan {
                seed: rng.next_u64(),
                transient_no_memory: rng.gen_f64(),
                partial_batch: rng.gen_f64() / 3.0,
                wrong_residence: rng.gen_f64() / 7.0,
                drop_page: rng.gen_f64() / 11.0,
                spurious_evict: rng.gen_f64() / 13.0,
                corrupt_backing: rng.gen_f64() / 17.0,
                replay_backing: rng.gen_f64() / 19.0,
                delay: rng.gen_f64() / 23.0,
                delay_cycles: rng.next_u64() >> 30,
                suspend: rng.gen_f64() / 29.0,
                max_injections: if rng.gen_bool(0.5) {
                    Some(rng.next_u64() >> 40)
                } else {
                    None
                },
                target: if rng.gen_bool(0.5) {
                    Some(EnclaveId(rng.next_u32() >> 8))
                } else {
                    None
                },
            };
            let line = encode_fault_plan(&plan);
            assert_eq!(decode_fault_plan(&line).expect("decode"), plan);
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "fault",
            "fault x y z",
            "fetch 1",
            "ua 5 q",
            "inj 1 warp 9",
            "plan seed=zz",
            "unknown 1 2 3",
        ] {
            assert!(decode_observation(bad).is_err(), "{bad:?} must not decode");
        }
    }

    fn random_why(rng: &mut SimRng) -> String {
        const WORDS: [&str; 8] = [
            "unexpected",
            "fault",
            "on",
            "pinned",
            "resident",
            "page",
            "under",
            "policy",
        ];
        let n = rng.gen_range_usize(1..5);
        (0..n)
            .map(|_| WORDS[rng.gen_range_usize(0..WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn random_flight_event(rng: &mut SimRng) -> FlightEvent {
        match rng.gen_range(0..16) {
            0 => FlightEvent::Transition {
                kind: TransitionKind::ALL[rng.gen_range_usize(0..TransitionKind::ALL.len())],
                eid: EnclaveId(rng.next_u32() >> 8),
                tcs: rng.gen_range_usize(0..8),
            },
            1 => FlightEvent::Kernel(random_observation(rng)),
            2 => FlightEvent::HandlerEntry {
                eid: EnclaveId(rng.next_u32() >> 8),
                vpn: Vpn(rng.next_u64() >> 12),
            },
            3 => FlightEvent::DecisionForward {
                vpn: Vpn(rng.next_u64() >> 12),
            },
            4 => FlightEvent::DecisionClusterFetch {
                vpn: Vpn(rng.next_u64() >> 12),
                pages: random_pages(rng),
            },
            5 => FlightEvent::DecisionEvict {
                pages: random_pages(rng),
            },
            6 => FlightEvent::Retry {
                attempt: rng.gen_range(1..8),
                backoff_cycles: rng.next_u64() >> 20,
            },
            7 => FlightEvent::Misbehavior {
                vpn: Vpn(rng.next_u64() >> 12),
                used: rng.gen_range(1..9),
                budget: rng.gen_range(1..9),
                why: random_why(rng),
            },
            8 => FlightEvent::Degrade {
                from: rng.gen_range(8..64),
                to: rng.gen_range(1..8),
            },
            9 => FlightEvent::AttackDetected {
                vpn: Vpn(rng.next_u64() >> 12),
                why: random_why(rng),
            },
            10 => FlightEvent::RateLimitKill,
            11 => FlightEvent::SnapshotCapture {
                counter: rng.next_u64() >> 32,
            },
            12 => FlightEvent::SnapshotRestore {
                counter: rng.next_u64() >> 32,
            },
            13 => FlightEvent::Supervisor {
                eid: EnclaveId(rng.next_u32() >> 8),
                action: ["retry", "quarantine", "restart", "evict", "shed", "shrink"]
                    [rng.gen_range_usize(0..6)]
                .to_owned(),
                why: random_why(rng),
            },
            14 => FlightEvent::SpanClose(SpanRecord {
                kind: SpanKind::ALL[rng.gen_range_usize(0..SpanKind::ALL.len())],
                start_cycles: rng.next_u64() >> 16,
                end_cycles: rng.next_u64() >> 16,
            }),
            _ => FlightEvent::WatchAlert {
                eid: EnclaveId(rng.next_u32() >> 8),
                detector: ["fault_cusum", "entropy_cusum", "slo_burn", "epc_skew"]
                    [rng.gen_range_usize(0..4)]
                .to_owned(),
                window: rng.gen_range(0..10_000),
                score_milli: rng.next_u64() >> 24,
                vpn: if rng.gen_bool(0.5) {
                    Some(Vpn(rng.next_u64() >> 12))
                } else {
                    None
                },
                why: random_why(rng),
            },
        }
    }

    fn random_flight_record(rng: &mut SimRng) -> FlightRecord {
        FlightRecord {
            seq: rng.next_u64() >> 16,
            cycles: rng.next_u64() >> 8,
            corr: rng.gen_range(0..1000),
            event: random_flight_event(rng),
        }
    }

    #[test]
    fn flight_record_roundtrip_randomized() {
        let mut rng = SimRng::seed_from_u64(0xF1_16_47);
        for case in 0..2000 {
            let record = random_flight_record(&mut rng);
            let line = encode_flight_record(&record);
            let back = decode_flight_record(&line).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(back, record, "case {case}: {line}");
        }
    }

    #[test]
    fn flight_log_roundtrip_with_comments_and_blanks() {
        let mut rng = SimRng::seed_from_u64(0x10_6B00C);
        let log: Vec<FlightRecord> = (0..80).map(|_| random_flight_record(&mut rng)).collect();
        let mut text = String::from("# flight log\n\n");
        text.push_str(&encode_flight_log(&log));
        assert_eq!(decode_flight_log(&text).expect("decode"), log);
    }

    #[test]
    fn transition_kind_roundtrip_exhaustive() {
        for kind in TransitionKind::ALL {
            assert_eq!(
                decode_transition_kind(encode_transition_kind(kind)).expect("decode"),
                kind
            );
        }
        assert!(decode_transition_kind("warp").is_err());
    }

    #[test]
    fn malformed_flight_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "ev",
            "ev 1 2",
            "ev 1 2 3",
            "ev 1 2 3 tr bogus 1 0",
            "ev 1 2 3 k unknown 1",
            "ev 1 2 3 mis 4 1 8",
            "ev 1 2 3 attack 4",
            "ev x 2 3 rlkill",
            "ev 1 2 3 span fault_handler 10",
            "ev 1 2 3 span bogus 4 5",
            "ev 1 2 3 snapcap",
            "ev 1 2 3 snaprest one",
            "ev 1 2 3 k inj 1 stalesnap",
            "ev 1 2 3 k inj 1 truncsnap -4",
            "ev 1 2 3 sup 4 restart",
            "ev 1 2 3 sup x restart wedged",
        ] {
            assert!(
                decode_flight_record(bad).is_err(),
                "{bad:?} must not decode"
            );
        }
    }
}
