//! Victim selection for OS-driven eviction of OS-managed pages.
//!
//! The baseline (vanilla SGX) driver uses the **clock** algorithm over PTE
//! accessed bits, exactly the behaviour Autarky has to give up: for
//! self-paging enclaves the A/D bits must stay set, so the driver falls
//! back to **FIFO** (paper §7, "Setup": "the baseline uses a clock page
//! eviction policy in the SGX driver, Autarky uses FIFO eviction since page
//! access bits are not available").

use std::collections::VecDeque;

use autarky_sgx_sim::Vpn;

/// Which victim-selection algorithm the driver runs for an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Second-chance clock over accessed bits (baseline SGX driver).
    Clock,
    /// FIFO (Autarky: A/D bits are unavailable to the OS).
    Fifo,
}

/// Per-enclave eviction state: a queue of OS-managed resident pages.
#[derive(Debug, Clone)]
pub struct EvictionState {
    policy: EvictionPolicy,
    queue: VecDeque<Vpn>,
}

impl EvictionState {
    /// Create the state for the given policy.
    pub fn new(policy: EvictionPolicy) -> Self {
        Self {
            policy,
            queue: VecDeque::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Record that `vpn` became resident (appended at queue tail).
    pub fn on_resident(&mut self, vpn: Vpn) {
        self.queue.push_back(vpn);
    }

    /// Forget a page (no longer resident or no longer OS-managed).
    pub fn forget(&mut self, vpn: Vpn) {
        self.queue.retain(|&v| v != vpn);
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Select a victim.
    ///
    /// `accessed` reports (and `clear_accessed` resets) the PTE accessed
    /// bit; only the clock policy uses them. Returns `None` when no page is
    /// evictable. The chosen victim is removed from the queue.
    pub fn pick_victim(
        &mut self,
        mut accessed: impl FnMut(Vpn) -> bool,
        mut clear_accessed: impl FnMut(Vpn),
    ) -> Option<Vpn> {
        match self.policy {
            EvictionPolicy::Fifo => self.queue.pop_front(),
            EvictionPolicy::Clock => {
                // Second chance: give each accessed page one more lap.
                let mut laps = self.queue.len() * 2 + 1;
                while laps > 0 {
                    let vpn = self.queue.pop_front()?;
                    if accessed(vpn) {
                        clear_accessed(vpn);
                        self.queue.push_back(vpn);
                        laps -= 1;
                    } else {
                        return Some(vpn);
                    }
                }
                // Everything stayed hot: degrade to FIFO.
                self.queue.pop_front()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_prng::SimSet;

    #[test]
    fn fifo_order() {
        let mut ev = EvictionState::new(EvictionPolicy::Fifo);
        ev.on_resident(Vpn(1));
        ev.on_resident(Vpn(2));
        ev.on_resident(Vpn(3));
        assert_eq!(ev.pick_victim(|_| false, |_| {}), Some(Vpn(1)));
        assert_eq!(ev.pick_victim(|_| false, |_| {}), Some(Vpn(2)));
        ev.forget(Vpn(3));
        assert_eq!(ev.pick_victim(|_| false, |_| {}), None);
    }

    #[test]
    fn clock_skips_accessed_pages_once() {
        let mut ev = EvictionState::new(EvictionPolicy::Clock);
        ev.on_resident(Vpn(1));
        ev.on_resident(Vpn(2));
        // Page 1 is hot; page 2 is cold.
        let hot: SimSet<Vpn> = [Vpn(1)].into_iter().collect();
        let mut cleared = Vec::new();
        let victim = ev.pick_victim(|v| hot.contains(&v), |v| cleared.push(v));
        assert_eq!(victim, Some(Vpn(2)));
        assert_eq!(cleared, vec![Vpn(1)], "hot page got its A bit cleared");
        // Page 1 stays queued for next time.
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn clock_degenerates_when_all_hot() {
        let mut ev = EvictionState::new(EvictionPolicy::Clock);
        ev.on_resident(Vpn(1));
        ev.on_resident(Vpn(2));
        let victim = ev.pick_victim(|_| true, |_| {});
        assert!(victim.is_some(), "must still evict something");
    }

    #[test]
    fn forget_removes_mid_queue() {
        let mut ev = EvictionState::new(EvictionPolicy::Fifo);
        ev.on_resident(Vpn(1));
        ev.on_resident(Vpn(2));
        ev.on_resident(Vpn(3));
        ev.forget(Vpn(2));
        assert_eq!(ev.pick_victim(|_| false, |_| {}), Some(Vpn(1)));
        assert_eq!(ev.pick_victim(|_| false, |_| {}), Some(Vpn(3)));
    }
}
