//! Canonical byte codec for [`EnclaveCapture`] and the snapshot payload.
//!
//! The encoding is deterministic (the capture's collections are already
//! sorted by the machine's capture path) and little-endian throughout, so
//! the same enclave state always seals to the same plaintext. Decoding is
//! strict: every enum discriminant is validated, lengths are checked, and
//! trailing bytes are rejected, because the decoder's input is untrusted
//! until the AEAD tag has verified — and even then a malformed payload
//! must surface as an error, never a panic.

use autarky_sgx_sim::enclave::SsaFrame;
use autarky_sgx_sim::tlb::TlbEntry;
use autarky_sgx_sim::{
    AccessKind, Attributes, EnclaveCapture, EnclaveId, FaultCause, Frame, MachineStats,
    PageCapture, PageType, Perms, Pte, Secs, SsaExInfo, Va, Vpn, COST_TAGS, PAGE_SIZE,
};
use autarky_telemetry::codec::{DecodeError, Reader};

fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

fn page_type_tag(page_type: PageType) -> u8 {
    match page_type {
        PageType::Reg => 0,
        PageType::Tcs => 1,
        PageType::Trim => 2,
    }
}

fn page_type_from(tag: u8) -> Option<PageType> {
    match tag {
        0 => Some(PageType::Reg),
        1 => Some(PageType::Tcs),
        2 => Some(PageType::Trim),
        _ => None,
    }
}

fn access_kind_tag(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::Execute => 2,
    }
}

fn access_kind_from(tag: u8) -> Option<AccessKind> {
    match tag {
        0 => Some(AccessKind::Read),
        1 => Some(AccessKind::Write),
        2 => Some(AccessKind::Execute),
        _ => None,
    }
}

fn fault_cause_tag(cause: FaultCause) -> u8 {
    match cause {
        FaultCause::NotPresent => 0,
        FaultCause::Permission => 1,
        FaultCause::EpcmMismatch => 2,
        FaultCause::EpcmBlocked => 3,
        FaultCause::AdBitsClear => 4,
    }
}

fn fault_cause_from(tag: u8) -> Option<FaultCause> {
    match tag {
        0 => Some(FaultCause::NotPresent),
        1 => Some(FaultCause::Permission),
        2 => Some(FaultCause::EpcmMismatch),
        3 => Some(FaultCause::EpcmBlocked),
        4 => Some(FaultCause::AdBitsClear),
        _ => None,
    }
}

fn encode_ssa_frame(out: &mut Vec<u8>, frame: &SsaFrame) {
    match &frame.exinfo {
        Some(info) => {
            out.push(1);
            out.extend_from_slice(&info.va.0.to_le_bytes());
            out.push(access_kind_tag(info.kind));
            out.push(fault_cause_tag(info.cause));
        }
        None => out.push(0),
    }
}

fn decode_ssa_frame(r: &mut Reader<'_>) -> Result<SsaFrame, DecodeError> {
    let exinfo = match r.u8()? {
        0 => None,
        1 => Some(SsaExInfo {
            va: Va(r.u64()?),
            kind: access_kind_from(r.u8()?).ok_or(DecodeError::BadTag)?,
            cause: fault_cause_from(r.u8()?).ok_or(DecodeError::BadTag)?,
        }),
        _ => return Err(DecodeError::BadTag),
    };
    Ok(SsaFrame { exinfo })
}

fn encode_vpn_u64_list(out: &mut Vec<u8>, list: &[(Vpn, u64)]) {
    out.extend_from_slice(&(list.len() as u64).to_le_bytes());
    for &(vpn, value) in list {
        out.extend_from_slice(&vpn.0.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

fn decode_vpn_u64_list(r: &mut Reader<'_>) -> Result<Vec<(Vpn, u64)>, DecodeError> {
    r.list(16, |r| Ok((Vpn(r.u64()?), r.u64()?)))
}

/// Encode a full enclave capture into canonical bytes.
pub fn encode_capture(capture: &EnclaveCapture) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&capture.eid.0.to_le_bytes());
    // SECS.
    out.extend_from_slice(&capture.secs.base.0.to_le_bytes());
    out.extend_from_slice(&capture.secs.size.to_le_bytes());
    put_bool(&mut out, capture.secs.attributes.self_paging);
    put_bool(&mut out, capture.secs.attributes.debug);
    out.extend_from_slice(&capture.secs.measurement);
    put_bool(&mut out, capture.secs.initialized);
    put_bool(&mut out, capture.secs.terminated);
    // TCS slots.
    out.extend_from_slice(&(capture.tcs.len() as u64).to_le_bytes());
    for tcs in &capture.tcs {
        out.extend_from_slice(&(tcs.nssa as u64).to_le_bytes());
        put_bool(&mut out, tcs.pending_exception);
        put_bool(&mut out, tcs.active);
        out.extend_from_slice(&(tcs.ssa.len() as u64).to_le_bytes());
        for frame in &tcs.ssa {
            encode_ssa_frame(&mut out, frame);
        }
    }
    // Anti-replay version state.
    encode_vpn_u64_list(&mut out, &capture.next_version);
    encode_vpn_u64_list(&mut out, &capture.outstanding);
    // Resident pages.
    out.extend_from_slice(&(capture.pages.len() as u64).to_le_bytes());
    for page in &capture.pages {
        out.extend_from_slice(&page.vpn.0.to_le_bytes());
        out.push(page_type_tag(page.page_type));
        out.push(page.perms.bits());
        put_bool(&mut out, page.blocked);
        put_bool(&mut out, page.pending);
        put_bool(&mut out, page.modified);
        out.extend_from_slice(&page.contents);
    }
    // Page-table entries.
    out.extend_from_slice(&(capture.ptes.len() as u64).to_le_bytes());
    for &(vpn, pte) in &capture.ptes {
        out.extend_from_slice(&vpn.0.to_le_bytes());
        put_bool(&mut out, pte.present);
        out.extend_from_slice(&pte.frame.0.to_le_bytes());
        out.push(pte.perms.bits());
        put_bool(&mut out, pte.accessed);
        put_bool(&mut out, pte.dirty);
    }
    // TLB entries.
    out.extend_from_slice(&(capture.tlb.len() as u64).to_le_bytes());
    for &(vpn, entry) in &capture.tlb {
        out.extend_from_slice(&vpn.0.to_le_bytes());
        out.extend_from_slice(&entry.frame.0.to_le_bytes());
        out.push(entry.perms.bits());
        put_bool(&mut out, entry.dirty_ok);
    }
    // Timing and counters.
    out.extend_from_slice(&capture.clock_cycles.to_le_bytes());
    for tagged in capture.clock_tagged {
        out.extend_from_slice(&tagged.to_le_bytes());
    }
    for stat in [
        capture.stats.faults,
        capture.stats.aexs,
        capture.stats.eenters,
        capture.stats.eresumes,
        capture.stats.ewbs,
        capture.stats.eldus,
        capture.stats.eaugs,
        capture.stats.eaccepts,
    ] {
        out.extend_from_slice(&stat.to_le_bytes());
    }
    out.extend_from_slice(&capture.tlb_fills.to_le_bytes());
    out.extend_from_slice(&capture.tlb_hits.to_le_bytes());
    out.extend_from_slice(&capture.tlb_flushes.to_le_bytes());
    out
}

/// Decode an enclave capture from exactly its encoding: bytes left over
/// after it are [`DecodeError::Trailing`].
pub fn decode_capture(bytes: &[u8]) -> Result<EnclaveCapture, DecodeError> {
    let mut r = Reader::new(bytes);
    let eid = EnclaveId(r.u32()?);
    let secs = Secs {
        base: Va(r.u64()?),
        size: r.u64()?,
        attributes: Attributes {
            self_paging: r.bool()?,
            debug: r.bool()?,
        },
        measurement: r.array()?,
        initialized: r.bool()?,
        terminated: r.bool()?,
    };
    // nssa, two flags and the frame count.
    let tcs = r.list(18, |r| {
        let nssa = r.usize()?;
        let pending_exception = r.bool()?;
        let active = r.bool()?;
        Ok(autarky_sgx_sim::TcsCapture {
            ssa: r.list(1, decode_ssa_frame)?,
            nssa,
            pending_exception,
            active,
        })
    })?;
    let next_version = decode_vpn_u64_list(&mut r)?;
    let outstanding = decode_vpn_u64_list(&mut r)?;
    let pages = r.list(13 + PAGE_SIZE, |r| {
        Ok(PageCapture {
            vpn: Vpn(r.u64()?),
            page_type: page_type_from(r.u8()?).ok_or(DecodeError::BadTag)?,
            perms: Perms::from_bits(r.u8()?).ok_or(DecodeError::BadTag)?,
            blocked: r.bool()?,
            pending: r.bool()?,
            modified: r.bool()?,
            contents: r.bytes(PAGE_SIZE)?.to_vec(),
        })
    })?;
    let ptes = r.list(16, |r| {
        let vpn = Vpn(r.u64()?);
        let pte = Pte {
            present: r.bool()?,
            frame: Frame(r.u32()?),
            perms: Perms::from_bits(r.u8()?).ok_or(DecodeError::BadTag)?,
            accessed: r.bool()?,
            dirty: r.bool()?,
        };
        Ok((vpn, pte))
    })?;
    let tlb = r.list(14, |r| {
        let vpn = Vpn(r.u64()?);
        let entry = TlbEntry {
            frame: Frame(r.u32()?),
            perms: Perms::from_bits(r.u8()?).ok_or(DecodeError::BadTag)?,
            dirty_ok: r.bool()?,
        };
        Ok((vpn, entry))
    })?;
    let clock_cycles = r.u64()?;
    let mut clock_tagged = [0u64; COST_TAGS];
    for slot in &mut clock_tagged {
        *slot = r.u64()?;
    }
    let stats = MachineStats {
        faults: r.u64()?,
        aexs: r.u64()?,
        eenters: r.u64()?,
        eresumes: r.u64()?,
        ewbs: r.u64()?,
        eldus: r.u64()?,
        eaugs: r.u64()?,
        eaccepts: r.u64()?,
    };
    let tlb_fills = r.u64()?;
    let tlb_hits = r.u64()?;
    let tlb_flushes = r.u64()?;
    r.finish()?;
    Ok(EnclaveCapture {
        eid,
        secs,
        tcs,
        next_version,
        outstanding,
        pages,
        ptes,
        tlb,
        clock_cycles,
        clock_tagged,
        stats,
        tlb_fills,
        tlb_hits,
        tlb_flushes,
    })
}
