//! Bracketed capture of the adversary's view of one workload phase.
//!
//! Two cursors are taken at `begin`: one into the OS observation stream
//! (via the non-draining [`Os::observation_mark`] API, so attack oracles
//! and tests sharing the stream keep working) and one into the ORAM
//! bucket log (ORAM heap traffic deliberately bypasses the kernel — the
//! runtime reads untrusted memory directly — yet it *is*
//! adversary-visible, so the audit folds it back in as
//! [`Observation::UntrustedAccess`] events).

use autarky_os_sim::{Observation, Os};
use autarky_workloads::EncHeap;

/// An open capture bracket.
#[derive(Debug, Clone, Copy)]
pub struct Capture {
    mark: u64,
    oram_mark: usize,
}

impl Capture {
    /// Start capturing: record cursors into both adversary channels.
    pub fn begin(os: &Os, heap: &EncHeap) -> Self {
        Self {
            mark: os.observation_mark(),
            oram_mark: heap.oram_access_log().len(),
        }
    }

    /// Close the bracket: everything the adversary observed since
    /// [`Capture::begin`], kernel events first, then ORAM bucket traffic
    /// (bucket index as the access key).
    pub fn finish(self, os: &Os, heap: &EncHeap) -> Vec<Observation> {
        let mut events: Vec<Observation> = os.observations_since(self.mark).to_vec();
        events.extend(
            heap.oram_access_log()[self.oram_mark..]
                .iter()
                .map(|&(bucket, write)| Observation::UntrustedAccess {
                    key: u64::from(bucket),
                    write,
                }),
        );
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky::{Profile, SystemBuilder};

    #[test]
    fn brackets_only_the_phase() {
        let (mut world, mut heap) = SystemBuilder::new("cap-test", Profile::Unprotected)
            .epc_pages(1024)
            .heap_pages(128)
            .build()
            .expect("build");
        let ptr = heap.alloc(&mut world, 4096).expect("alloc");
        let before = world.os.observations().len();
        let capture = Capture::begin(&world.os, &heap);
        heap.write(&mut world, ptr, &[1u8; 4096]).expect("write");
        let events = capture.finish(&world.os, &heap);
        // Nothing from before the bracket leaks in.
        assert!(world.os.observations().len() >= before + events.len());
        let replay = capture.finish(&world.os, &heap);
        assert_eq!(replay, events, "finish is non-draining and repeatable");
    }

    #[test]
    fn oram_bucket_traffic_is_folded_in() {
        let (mut world, mut heap) = SystemBuilder::new(
            "cap-oram",
            Profile::CachedOram {
                capacity_pages: 64,
                cache_pages: 4,
            },
        )
        .epc_pages(1024)
        .heap_pages(128)
        .build()
        .expect("build");
        // Allocate more than the cache so accesses spill to the ORAM.
        let ptr = heap.alloc(&mut world, 8 * 4096).expect("alloc");
        let capture = Capture::begin(&world.os, &heap);
        for page in 0..8u64 {
            heap.write_u64(&mut world, ptr.offset(page * 4096), page)
                .expect("write");
        }
        let events = capture.finish(&world.os, &heap);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Observation::UntrustedAccess { .. })),
            "ORAM bucket traffic appears in the captured view"
        );
    }
}
