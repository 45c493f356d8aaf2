//! The high-level system builder: one call from "I want an Autarky
//! enclave with policy X" to a runnable [`World`].
//!
//! The five [`Profile`]s correspond to the configurations the paper
//! evaluates against each other:
//!
//! | Profile | Paper configuration |
//! |---|---|
//! | [`Profile::Unprotected`] | vanilla SGX baseline (OS demand paging, clock eviction) |
//! | [`Profile::PinAll`] | everything resident; any fault is an attack |
//! | [`Profile::Clusters`] | secure self-paging with page clusters (§5.2.3) |
//! | [`Profile::RateLimited`] | bounded-leakage demand paging for unmodified binaries (§5.2.4) |
//! | [`Profile::CachedOram`] / [`Profile::UncachedOram`] | ORAM paging (§5.2.2 / pre-Autarky) |

use autarky_os_sim::EnclaveImage;
use autarky_runtime::{PagingMechanism, PolicyMode, RateLimit, RtError, RuntimeConfig};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::PAGE_SIZE;
use autarky_workloads::{EncHeap, World};

/// Protection profile for the enclave under construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Profile {
    /// Legacy SGX enclave: no Autarky, OS pages at will, fully exposed to
    /// the controlled channel.
    Unprotected,
    /// Self-paging enclave with everything pinned (working set must fit
    /// the budget); any fault on a tracked page kills the enclave.
    PinAll,
    /// Self-paging with page clusters of the given size for data pages
    /// (code pages are always clustered per library).
    Clusters {
        /// Pages per automatic data cluster.
        pages_per_cluster: usize,
    },
    /// Demand paging with a fault-rate bound; runs unmodified binaries.
    RateLimited {
        /// Maximum faults per unit of forward progress.
        max_faults_per_progress: f64,
        /// Faults tolerated before the ratio applies (cold start).
        burst: u64,
    },
    /// ORAM data path with an enclave-managed cache (§5.2.2).
    CachedOram {
        /// ORAM block space in pages.
        capacity_pages: u64,
        /// Enclave-managed cache size in pages.
        cache_pages: usize,
    },
    /// ORAM data path without the cache (pre-Autarky; very slow).
    UncachedOram {
        /// ORAM block space in pages.
        capacity_pages: u64,
    },
}

/// Builder for a complete simulated system.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    name: String,
    profile: Profile,
    epc_pages: usize,
    heap_pages: usize,
    code_pages: usize,
    data_pages: usize,
    budget_pages: usize,
    mechanism: PagingMechanism,
    elide_aex: bool,
    elide_handler_invocation: bool,
    seed: u64,
}

impl SystemBuilder {
    /// Start building a system named `name` with the given profile.
    pub fn new(name: &str, profile: Profile) -> Self {
        Self {
            name: name.to_owned(),
            profile,
            epc_pages: 8192,
            heap_pages: 4096,
            code_pages: 16,
            data_pages: 16,
            budget_pages: 0,
            mechanism: PagingMechanism::Sgx1,
            elide_aex: false,
            elide_handler_invocation: false,
            seed: 42,
        }
    }

    /// EPC size in 4 KiB pages (paper hardware: ~190 MB usable).
    pub fn epc_pages(mut self, pages: usize) -> Self {
        self.epc_pages = pages;
        self
    }

    /// EPC size in MiB.
    pub fn epc_mib(self, mib: usize) -> Self {
        let pages = mib * (1 << 20) / PAGE_SIZE;
        self.epc_pages(pages)
    }

    /// Enclave heap size in pages.
    pub fn heap_pages(mut self, pages: usize) -> Self {
        self.heap_pages = pages;
        self
    }

    /// Enclave code region size in pages.
    pub fn code_pages(mut self, pages: usize) -> Self {
        self.code_pages = pages;
        self
    }

    /// Enclave initialized-data region size in pages.
    pub fn data_pages(mut self, pages: usize) -> Self {
        self.data_pages = pages;
        self
    }

    /// Resident-page budget for self-paging (0 = unlimited).
    pub fn budget_pages(mut self, pages: usize) -> Self {
        self.budget_pages = pages;
        self
    }

    /// Choose the paging mechanism (SGXv1 `EWB`/`ELDU` or SGXv2 software).
    pub fn mechanism(mut self, mechanism: PagingMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Enable the proposed AEX-elision hardware optimization.
    pub fn elide_aex(mut self, on: bool) -> Self {
        self.elide_aex = on;
        self
    }

    /// Enable the "no upcall" (in-enclave resume) variant.
    pub fn elide_handler_invocation(mut self, on: bool) -> Self {
        self.elide_handler_invocation = on;
        self
    }

    /// Seed for the ORAM randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Assemble the world and its data heap.
    pub fn build(self) -> Result<(World, EncHeap), RtError> {
        let machine = MachineConfig {
            epc_frames: self.epc_pages,
            elide_aex: self.elide_aex,
            elide_handler_invocation: self.elide_handler_invocation,
        };
        let mut image = EnclaveImage::named(&self.name);
        image.self_paging = !matches!(self.profile, Profile::Unprotected);
        image.heap_pages = self.heap_pages;
        image.code_pages = self.code_pages;
        image.data_pages = self.data_pages;

        let runtime = match self.profile {
            Profile::Unprotected => RuntimeConfig::default(),
            Profile::PinAll => RuntimeConfig {
                mode: PolicyMode::PinAll,
                budget: 0,
                mechanism: self.mechanism,
                ..Default::default()
            },
            Profile::Clusters { pages_per_cluster } => RuntimeConfig {
                mode: PolicyMode::SelfPaging,
                auto_cluster_size: pages_per_cluster,
                budget: self.budget_pages,
                mechanism: self.mechanism,
                ..Default::default()
            },
            Profile::RateLimited {
                max_faults_per_progress,
                burst,
            } => RuntimeConfig {
                mode: PolicyMode::SelfPaging,
                rate_limit: Some(RateLimit {
                    max_faults_per_progress,
                    burst,
                }),
                budget: self.budget_pages,
                mechanism: self.mechanism,
                ..Default::default()
            },
            Profile::CachedOram { .. } | Profile::UncachedOram { .. } => RuntimeConfig {
                mode: PolicyMode::PinAll, // ORAM cache + metadata stay pinned
                budget: 0,
                mechanism: self.mechanism,
                ..Default::default()
            },
        };

        let heap = match self.profile {
            Profile::CachedOram {
                capacity_pages,
                cache_pages,
            } => EncHeap::cached_oram(capacity_pages, cache_pages, self.seed),
            Profile::UncachedOram { capacity_pages } => {
                EncHeap::uncached_oram(capacity_pages, self.seed)
            }
            _ => EncHeap::direct(),
        };

        let world = World::new(machine, image, runtime)?;
        Ok((world, heap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_profile() {
        let profiles = [
            Profile::Unprotected,
            Profile::PinAll,
            Profile::Clusters {
                pages_per_cluster: 10,
            },
            Profile::RateLimited {
                max_faults_per_progress: 16.0,
                burst: 512,
            },
            Profile::CachedOram {
                capacity_pages: 128,
                cache_pages: 32,
            },
            Profile::UncachedOram {
                capacity_pages: 128,
            },
        ];
        for profile in profiles {
            let (mut world, mut heap) = SystemBuilder::new("builder-test", profile)
                .epc_pages(2048)
                .heap_pages(512)
                .build()
                .unwrap_or_else(|e| panic!("{profile:?}: {e}"));
            let ptr = heap.alloc(&mut world, 64).expect("alloc");
            heap.write(&mut world, ptr, &[9u8; 64]).expect("write");
            let mut buf = [0u8; 64];
            heap.read(&mut world, ptr, &mut buf).expect("read");
            assert_eq!(buf, [9u8; 64], "{profile:?}");
        }
    }

    #[test]
    fn unprotected_profile_is_legacy_enclave() {
        let (world, _) = SystemBuilder::new("legacy", Profile::Unprotected)
            .build()
            .expect("build");
        let secs = world.os.machine.secs(world.eid).expect("secs");
        assert!(!secs.attributes.self_paging);
    }

    #[test]
    fn protected_profiles_attest_self_paging() {
        let (world, _) = SystemBuilder::new("protected", Profile::PinAll)
            .build()
            .expect("build");
        let report = world
            .os
            .machine
            .ereport(world.eid, [0; 64])
            .expect("report");
        assert!(report.attributes.self_paging, "the bit is attested");
    }

    #[test]
    fn epc_mib_conversion() {
        let (world, _) = SystemBuilder::new("sz", Profile::PinAll)
            .epc_mib(16)
            .heap_pages(64)
            .build()
            .expect("build");
        assert_eq!(world.os.machine.epc_total_frames(), 16 * 256);
    }
}
