//! The adversary trace: what the OS saw during one audited run.
//!
//! A trace is one run's adversary view — the [`Observation`] stream the
//! `os-sim` kernel records, plus (for ORAM-paged heaps) the untrusted
//! bucket traffic folded in as [`Observation::UntrustedAccess`] events.

use autarky_os_sim::Observation;

/// One run's adversary-visible event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Everything the adversary observed, in order.
    pub events: Vec<Observation>,
}

impl Trace {
    /// Flatten the trace into a symbol sequence for the analysis. Each
    /// event contributes one symbol per *page-granular thing the
    /// adversary learned*: a fault contributes its (page, access-kind),
    /// a fetch/evict batch contributes one symbol per page it names, an
    /// ORAM access contributes its bucket. Symbols from different event
    /// types never collide (each type mixes in its own tag).
    pub fn symbols(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.events.len());
        for event in &self.events {
            match event {
                Observation::Fault { va, kind, .. } => {
                    out.push(sym(1, va.0 >> 12, *kind as u64));
                }
                Observation::FetchSyscall { pages, .. } => {
                    out.extend(pages.iter().map(|p| sym(2, p.0, 0)));
                }
                Observation::EvictSyscall { pages, .. } => {
                    out.extend(pages.iter().map(|p| sym(3, p.0, 0)));
                }
                Observation::AllocSyscall { pages, .. } => {
                    out.extend(pages.iter().map(|p| sym(4, p.0, 0)));
                }
                Observation::SetEnclaveManaged { pages, .. } => {
                    out.extend(pages.iter().map(|p| sym(5, p.0, 0)));
                }
                Observation::SetOsManaged { pages, .. } => {
                    out.extend(pages.iter().map(|p| sym(6, p.0, 0)));
                }
                Observation::UntrustedAccess { key, write } => {
                    out.push(sym(7, *key, *write as u64));
                }
                Observation::DemandPaging { vpn, .. } => out.push(sym(8, vpn.0, 0)),
                Observation::AdBitObserved { vpn, dirty, .. } => {
                    out.push(sym(9, vpn.0, *dirty as u64));
                }
                Observation::FaultInjected { .. } => out.push(sym(10, 0, 0)),
            }
        }
        out
    }
}

/// Tagged symbol constructor: splitmix64 finalizer over a tag/value/attr
/// packing, so symbols are well-spread and type-disjoint.
fn sym(tag: u64, value: u64, attr: u64) -> u64 {
    let mut x = tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
        .wrapping_add(attr.wrapping_mul(0x2545_F491_4F6C_DD1D));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_sgx_sim::{AccessKind, EnclaveId, Va, Vpn};

    fn sample_events() -> Vec<Observation> {
        vec![
            Observation::Fault {
                eid: EnclaveId(1),
                va: Va(0x1000_0000 << 12),
                kind: AccessKind::Read,
            },
            Observation::FetchSyscall {
                eid: EnclaveId(1),
                pages: vec![Vpn(7), Vpn(8)],
            },
            Observation::UntrustedAccess {
                key: 42,
                write: true,
            },
        ]
    }

    #[test]
    fn symbols_expand_batches_per_page() {
        let trace = Trace {
            events: sample_events(),
        };
        // fault=1, fetch of 2 pages=2, untrusted access=1.
        assert_eq!(trace.symbols().len(), 4);
        let unique: autarky_prng::SimSet<u64> = trace.symbols().into_iter().collect();
        assert_eq!(unique.len(), 4, "distinct things map to distinct symbols");
    }
}
