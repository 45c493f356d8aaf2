//! Virtualized EPC management (paper §5.4).
//!
//! In virtualized deployments both the guest OS and the hypervisor manage
//! enclave memory. Autarky supports:
//!
//! * **static partitioning** — each VM gets a fixed EPC share (what Azure
//!   does; "will require no modification");
//! * **ballooning** — the hypervisor asks a guest to shrink; the guest
//!   evicts OS-managed pages and, cooperatively, asks enclaves to reduce
//!   their self-paging budgets (the paper sketches this and defers the
//!   full design; this module implements the simple cooperative version);
//! * **whole-enclave swap** as the non-cooperative fallback: transparent
//!   hypervisor demand paging of individual enclave pages is exactly what
//!   Autarky forbids.
//!
//! A VM here is a group of enclaves hosted by the (single) guest OS; the
//! hypervisor accounts their aggregate EPC frames against the partition.

use std::collections::BTreeSet;

use autarky_prng::SimMap;
use autarky_sgx_sim::EnclaveId;

use crate::kernel::{Os, OsError};

/// Identifier of a guest VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

#[derive(Debug, Default)]
struct Partition {
    enclaves: BTreeSet<EnclaveId>,
    frame_cap: usize,
}

/// Outcome of a balloon request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalloonOutcome {
    /// The guest reached the target by evicting OS-managed pages.
    Satisfied {
        /// Frames in use after ballooning.
        usage: usize,
    },
    /// Pinned enclave-managed pages prevent reaching the target without
    /// enclave cooperation; the hypervisor must either accept the usage,
    /// ask enclaves to shrink their budgets, or suspend whole enclaves.
    NeedsEnclaveCooperation {
        /// Frames in use after evicting everything evictable.
        usage: usize,
        /// The requested target.
        target: usize,
    },
}

/// The hypervisor's EPC view.
#[derive(Debug, Default)]
pub struct Hypervisor {
    partitions: SimMap<VmId, Partition>,
}

impl Hypervisor {
    /// Create a hypervisor with no partitions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create (or resize) a VM's static EPC partition.
    pub fn set_partition(&mut self, vm: VmId, frame_cap: usize) {
        self.partitions.entry(vm).or_default().frame_cap = frame_cap;
    }

    /// Assign an enclave to a VM's partition.
    pub fn assign(&mut self, vm: VmId, eid: EnclaveId) {
        self.partitions.entry(vm).or_default().enclaves.insert(eid);
    }

    /// Frames the VM's enclaves currently occupy.
    pub fn usage(&self, os: &Os, vm: VmId) -> usize {
        self.partitions
            .get(&vm)
            .map(|p| {
                p.enclaves
                    .iter()
                    .map(|&e| os.machine.epc_frames_of(e))
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Enforce the static partition: cap each enclave's OS quota so the
    /// group can never exceed its share. (Static partitioning needs no
    /// Autarky-specific changes — §5.4.)
    pub fn enforce_partition(&self, os: &mut Os, vm: VmId) -> Result<(), OsError> {
        let partition = match self.partitions.get(&vm) {
            Some(p) => p,
            None => return Ok(()),
        };
        let per_enclave = partition.frame_cap / partition.enclaves.len().max(1);
        for &eid in &partition.enclaves {
            os.set_epc_quota(eid, per_enclave)?;
        }
        Ok(())
    }

    /// Balloon request: drive the VM's usage down to `target` frames by
    /// evicting OS-managed pages. Pinned enclave-managed pages are never
    /// touched — reclaiming them needs enclave cooperation (budget
    /// shrinking via the runtime) or whole-enclave suspension.
    pub fn balloon(&self, os: &mut Os, vm: VmId, target: usize) -> Result<BalloonOutcome, OsError> {
        let enclaves: Vec<EnclaveId> = self
            .partitions
            .get(&vm)
            .map(|p| p.enclaves.iter().copied().collect())
            .unwrap_or_default();
        loop {
            let usage = self.usage(os, vm);
            if usage <= target {
                return Ok(BalloonOutcome::Satisfied { usage });
            }
            // Evict one OS-managed page from the enclave with the largest
            // footprint; stop when nothing is evictable.
            let victim = enclaves
                .iter()
                .copied()
                .max_by_key(|&e| os.machine.epc_frames_of(e))
                .ok_or(OsError::NoMemory)?;
            match os.evict_one_os_managed(victim) {
                Ok(_) => {}
                Err(OsError::NoMemory) => {
                    // Try the others before giving up.
                    let mut any = false;
                    for &eid in &enclaves {
                        if eid != victim && os.evict_one_os_managed(eid).is_ok() {
                            any = true;
                            break;
                        }
                    }
                    if !any {
                        return Ok(BalloonOutcome::NeedsEnclaveCooperation {
                            usage: self.usage(os, vm),
                            target,
                        });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::EnclaveImage;
    use autarky_sgx_sim::machine::MachineConfig;
    use autarky_sgx_sim::Va;

    fn os() -> Os {
        Os::new(MachineConfig {
            epc_frames: 512,
            ..Default::default()
        })
    }

    fn image(name: &str, base: u64, self_paging: bool) -> EnclaveImage {
        let mut img = EnclaveImage::named(name);
        img.base = Va(base);
        img.self_paging = self_paging;
        img.heap_pages = 32;
        img
    }

    #[test]
    fn static_partitioning_caps_each_vm() {
        let mut os = os();
        let mut hv = Hypervisor::new();
        let e1 = os
            .load_enclave(&image("vm1-a", 0x1000_0000, false))
            .expect("load");
        let e2 = os
            .load_enclave(&image("vm2-a", 0x2000_0000, false))
            .expect("load");
        hv.set_partition(VmId(1), 48);
        hv.set_partition(VmId(2), 64);
        hv.assign(VmId(1), e1);
        hv.assign(VmId(2), e2);
        hv.enforce_partition(&mut os, VmId(1)).expect("enforce");
        hv.enforce_partition(&mut os, VmId(2)).expect("enforce");
        assert!(hv.usage(&os, VmId(1)) <= 48);
        assert!(hv.usage(&os, VmId(2)) <= 64);
    }

    #[test]
    fn balloon_reclaims_os_managed_pages() {
        let mut os = os();
        let mut hv = Hypervisor::new();
        let eid = os
            .load_enclave(&image("guest", 0x1000_0000, false))
            .expect("load");
        hv.set_partition(VmId(1), 512);
        hv.assign(VmId(1), eid);
        let before = hv.usage(&os, VmId(1));
        assert!(before > 20);
        let outcome = hv.balloon(&mut os, VmId(1), 16).expect("balloon");
        assert_eq!(
            outcome,
            BalloonOutcome::Satisfied {
                usage: hv.usage(&os, VmId(1))
            }
        );
        assert!(
            hv.usage(&os, VmId(1)) <= 16,
            "usage {}",
            hv.usage(&os, VmId(1))
        );
    }

    #[test]
    fn balloon_respects_pinned_pages() {
        // A self-paging enclave pins its image; the balloon cannot force
        // those pages out and must report that cooperation is needed.
        let mut os = os();
        let mut hv = Hypervisor::new();
        let eid = os
            .load_enclave(&image("pinned", 0x1000_0000, true))
            .expect("load");
        // Pin everything the image mapped.
        let pages: Vec<_> = {
            let img = os.image(eid).expect("image").clone();
            (img.code_start().0..img.heap_start().0)
                .map(autarky_sgx_sim::Vpn)
                .collect()
        };
        os.ay_set_enclave_managed(eid, &pages).expect("pin");
        hv.set_partition(VmId(1), 512);
        hv.assign(VmId(1), eid);
        let outcome = hv.balloon(&mut os, VmId(1), 4).expect("balloon");
        match outcome {
            BalloonOutcome::NeedsEnclaveCooperation { usage, target } => {
                assert!(usage > target, "pinned pages kept usage at {usage}");
                // Every remaining page is enclave-managed (pinned).
                for &vpn in &pages {
                    assert!(os.machine.is_resident(eid, vpn), "{vpn} must stay pinned");
                }
            }
            other => panic!("expected cooperation request, got {other:?}"),
        }
        // The non-cooperative fallback: suspend the whole enclave.
        os.suspend_enclave(eid).expect("suspend");
        assert_eq!(hv.usage(&os, VmId(1)), 0);
        os.resume_enclave(eid).expect("resume");
        assert!(hv.usage(&os, VmId(1)) > 0);
    }
}
