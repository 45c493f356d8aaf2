//! Page clusters (paper §5.2.3, Table 1).
//!
//! A page cluster is a consistent set of enclave-managed pages that are
//! evicted and fetched *together*, so the adversary watching the
//! demand-paging side channel cannot tell which page of the cluster caused
//! a fault. The module maintains the paper's invariant:
//!
//! > for each non-resident page, there is at least one cluster to which it
//! > belongs with all of its pages non-resident.
//!
//! Pages may belong to several clusters (code-page sharing across
//! libraries). Fetching therefore pulls in the *transitive closure* of
//! clusters that share pages with the faulting cluster; evicting one
//! cluster at a time is always safe (§5.2.3's argument), and both rules
//! are property-tested.

use std::collections::{BTreeSet, VecDeque};

use autarky_prng::SimMap;
use autarky_sgx_sim::Vpn;

use crate::error::RtError;

/// Identifier of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

#[derive(Debug, Default, Clone)]
struct Cluster {
    pages: BTreeSet<Vpn>,
}

/// The cluster registry (the Table 1 API surface).
#[derive(Debug, Default)]
pub struct ClusterMap {
    clusters: SimMap<ClusterId, Cluster>,
    by_page: SimMap<Vpn, BTreeSet<ClusterId>>,
    next_id: u32,
    /// Target size for automatically grown clusters (`ay_init_clusters`'s
    /// `s` parameter); 0 disables auto-clustering.
    auto_size: usize,
    /// The auto-cluster currently being filled by the allocator.
    auto_current: Option<ClusterId>,
}

/// Deterministic export of a [`ClusterMap`] for checkpoint/restore.
///
/// Clusters come out sorted by id with their pages sorted, so identical
/// registries always produce identical captures. The `by_page` reverse
/// index is derivable and is rebuilt at restore time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCapture {
    /// `(cluster, its pages sorted)` pairs, sorted by cluster id.
    pub clusters: Vec<(ClusterId, Vec<Vpn>)>,
    /// Next id the registry would hand out.
    pub next_id: u32,
    /// Auto-clustering target size (0 = disabled).
    pub auto_size: usize,
    /// The auto-cluster currently being filled, if any.
    pub auto_current: Option<ClusterId>,
}

impl ClusterMap {
    /// `ay_init_clusters(n, s)`: pre-create `n` clusters and set the
    /// target size `s` for automatic clustering. Returns the new ids.
    pub fn ay_init_clusters(&mut self, n: usize, s: usize) -> Vec<ClusterId> {
        self.auto_size = s;
        (0..n).map(|_| self.new_cluster()).collect()
    }

    /// `ay_release_clusters()`: drop all cluster state.
    pub fn ay_release_clusters(&mut self) {
        self.clusters.clear();
        self.by_page.clear();
        self.auto_current = None;
    }

    /// `ay_add_page(cluster, page)`: register `page` with `cluster`.
    pub fn ay_add_page(&mut self, cluster: ClusterId, page: Vpn) -> Result<(), RtError> {
        let c = self
            .clusters
            .get_mut(&cluster)
            .ok_or(RtError::BadCluster("no such cluster"))?;
        c.pages.insert(page);
        self.by_page.entry(page).or_default().insert(cluster);
        Ok(())
    }

    /// `ay_remove_page(cluster, page)`: de-register `page` from `cluster`.
    pub fn ay_remove_page(&mut self, cluster: ClusterId, page: Vpn) -> Result<(), RtError> {
        let c = self
            .clusters
            .get_mut(&cluster)
            .ok_or(RtError::BadCluster("no such cluster"))?;
        if !c.pages.remove(&page) {
            return Err(RtError::BadCluster("page not in cluster"));
        }
        if let Some(ids) = self.by_page.get_mut(&page) {
            ids.remove(&cluster);
            if ids.is_empty() {
                self.by_page.remove(&page);
            }
        }
        Ok(())
    }

    /// `ay_get_cluster_ids(page)`: all clusters containing `page`.
    pub fn ay_get_cluster_ids(&self, page: Vpn) -> Vec<ClusterId> {
        self.by_page
            .get(&page)
            .map(|ids| ids.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Create one fresh, empty cluster.
    pub fn new_cluster(&mut self) -> ClusterId {
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        self.clusters.insert(id, Cluster::default());
        id
    }

    /// Pages of one cluster.
    pub fn pages_of(&self, cluster: ClusterId) -> impl Iterator<Item = Vpn> + '_ {
        self.clusters
            .get(&cluster)
            .into_iter()
            .flat_map(|c| c.pages.iter().copied())
    }

    /// Number of pages in a cluster.
    pub fn cluster_len(&self, cluster: ClusterId) -> usize {
        self.clusters
            .get(&cluster)
            .map(|c| c.pages.len())
            .unwrap_or(0)
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no clusters exist.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Automatic clustering for allocated data pages (§5.2.3): each page
    /// joins the currently-filling auto-cluster; when it reaches the
    /// configured size, a new one is started. Returns the page's cluster,
    /// or `None` when auto-clustering is disabled.
    ///
    /// Fails with [`RtError::BadCluster`] only if the registry is
    /// inconsistent (e.g. the current auto-cluster was released out from
    /// under the allocator) — callers on the allocation path propagate
    /// this instead of panicking.
    pub fn auto_assign(&mut self, page: Vpn) -> Result<Option<ClusterId>, RtError> {
        if self.auto_size == 0 {
            return Ok(None);
        }
        let id = match self.auto_current {
            Some(id)
                if self.clusters.contains_key(&id) && self.cluster_len(id) < self.auto_size =>
            {
                id
            }
            _ => {
                let id = self.new_cluster();
                self.auto_current = Some(id);
                id
            }
        };
        self.ay_add_page(id, page)?;
        Ok(Some(id))
    }

    /// On `free`, merge under-full auto clusters so they stay near-full
    /// (the paper's allocator extension). Returns the id everything was
    /// merged into, if a merge happened.
    ///
    /// Fails with [`RtError::BadCluster`] only on registry inconsistency
    /// (a page listed by a cluster that does not contain it); the error is
    /// typed so the allocator's `free` path stays panic-free.
    pub fn merge_underfull(&mut self) -> Result<Option<ClusterId>, RtError> {
        if self.auto_size == 0 {
            return Ok(None);
        }
        let mut underfull: Vec<ClusterId> = self
            .clusters
            .iter()
            .filter(|(_, c)| !c.pages.is_empty() && c.pages.len() < self.auto_size)
            .map(|(&id, _)| id)
            .collect();
        underfull.sort_unstable();
        if underfull.len() < 2 {
            return Ok(None);
        }
        let target = underfull[0];
        for &src in &underfull[1..] {
            if self.cluster_len(target) >= self.auto_size {
                break;
            }
            let pages: Vec<Vpn> = self.pages_of(src).collect();
            for page in pages {
                if self.cluster_len(target) >= self.auto_size {
                    break;
                }
                self.ay_remove_page(src, page)?;
                self.ay_add_page(target, page)?;
            }
        }
        Ok(Some(target))
    }

    /// The fetch set for a fault on `page`: the union of pages of the
    /// transitive closure of clusters reachable from `page` via shared
    /// pages. A page in no cluster is its own singleton set.
    ///
    /// This implements the paper's rule that fetching must pull in "the
    /// transitive set of all clusters sharing pages with the faulting
    /// cluster and among themselves" — otherwise a shared page could be
    /// left as the lone non-resident page of a cluster, and a later fault
    /// on it would uniquely identify it.
    pub fn fetch_set(&self, page: Vpn) -> BTreeSet<Vpn> {
        let mut pages: BTreeSet<Vpn> = BTreeSet::new();
        pages.insert(page);
        let seed = match self.by_page.get(&page) {
            Some(ids) => ids.clone(),
            None => return pages,
        };
        let mut visited: BTreeSet<ClusterId> = BTreeSet::new();
        let mut queue: VecDeque<ClusterId> = seed.into_iter().collect();
        while let Some(id) = queue.pop_front() {
            if !visited.insert(id) {
                continue;
            }
            for p in self.pages_of(id) {
                if pages.insert(p) {
                    if let Some(ids) = self.by_page.get(&p) {
                        for &next in ids {
                            if !visited.contains(&next) {
                                queue.push_back(next);
                            }
                        }
                    }
                }
            }
        }
        pages
    }

    /// The evict set when evicting the cluster(s) of `page`: just the
    /// pages of one cluster containing `page` (evicting a single cluster
    /// is always safe). For un-clustered pages, the singleton.
    pub fn evict_set(&self, page: Vpn) -> BTreeSet<Vpn> {
        match self.by_page.get(&page).and_then(|ids| ids.iter().next()) {
            Some(&id) => self.pages_of(id).collect(),
            None => [page].into_iter().collect(),
        }
    }

    /// Export the registry in deterministic order (checkpoint capture).
    pub fn capture(&self) -> ClusterCapture {
        let mut clusters: Vec<(ClusterId, Vec<Vpn>)> = self
            .clusters
            .iter()
            .map(|(&id, c)| (id, c.pages.iter().copied().collect()))
            .collect();
        clusters.sort_by_key(|&(id, _)| id);
        ClusterCapture {
            clusters,
            next_id: self.next_id,
            auto_size: self.auto_size,
            auto_current: self.auto_current,
        }
    }

    /// Rebuild a registry from a capture, re-deriving the reverse index.
    pub fn restore(capture: &ClusterCapture) -> ClusterMap {
        let mut map = ClusterMap {
            next_id: capture.next_id,
            auto_size: capture.auto_size,
            auto_current: capture.auto_current,
            ..ClusterMap::default()
        };
        for (id, pages) in &capture.clusters {
            map.clusters.insert(
                *id,
                Cluster {
                    pages: pages.iter().copied().collect(),
                },
            );
            for &page in pages {
                map.by_page.entry(page).or_default().insert(*id);
            }
        }
        map
    }

    /// Check the paper's residency invariant against a residency oracle:
    /// every non-resident page has at least one cluster, containing it,
    /// whose pages are all non-resident. Pages in no cluster trivially
    /// satisfy it (they are their own cluster).
    pub fn invariant_holds(&self, mut resident: impl FnMut(Vpn) -> bool) -> bool {
        for (&page, ids) in &self.by_page {
            if resident(page) {
                continue;
            }
            let ok = ids
                .iter()
                .any(|id| self.pages_of(*id).all(|p| !resident(p)));
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vpns(list: &[u64]) -> Vec<Vpn> {
        list.iter().map(|&n| Vpn(n)).collect()
    }

    #[test]
    fn table1_api_roundtrip() {
        let mut map = ClusterMap::default();
        let ids = map.ay_init_clusters(2, 4);
        assert_eq!(ids.len(), 2);
        map.ay_add_page(ids[0], Vpn(1)).expect("add");
        map.ay_add_page(ids[0], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(2)).expect("shared page");
        assert_eq!(map.ay_get_cluster_ids(Vpn(2)), vec![ids[0], ids[1]]);
        map.ay_remove_page(ids[0], Vpn(2)).expect("remove");
        assert_eq!(map.ay_get_cluster_ids(Vpn(2)), vec![ids[1]]);
        map.ay_release_clusters();
        assert!(map.ay_get_cluster_ids(Vpn(1)).is_empty());
    }

    #[test]
    fn add_to_unknown_cluster_fails() {
        let mut map = ClusterMap::default();
        assert!(matches!(
            map.ay_add_page(ClusterId(99), Vpn(1)),
            Err(RtError::BadCluster(_))
        ));
    }

    #[test]
    fn fetch_set_of_unclustered_page_is_singleton() {
        let map = ClusterMap::default();
        let set = map.fetch_set(Vpn(9));
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vpns(&[9]));
    }

    #[test]
    fn fetch_set_is_whole_cluster() {
        let mut map = ClusterMap::default();
        let ids = map.ay_init_clusters(1, 0);
        for n in [1, 2, 3] {
            map.ay_add_page(ids[0], Vpn(n)).expect("add");
        }
        assert_eq!(
            map.fetch_set(Vpn(2)).into_iter().collect::<Vec<_>>(),
            vpns(&[1, 2, 3])
        );
    }

    #[test]
    fn fetch_set_transitively_closes_shared_pages() {
        // A = {1,2}, B = {2,3}, C = {3,4}, D = {9} (disconnected).
        let mut map = ClusterMap::default();
        let ids = map.ay_init_clusters(4, 0);
        map.ay_add_page(ids[0], Vpn(1)).expect("add");
        map.ay_add_page(ids[0], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(3)).expect("add");
        map.ay_add_page(ids[2], Vpn(3)).expect("add");
        map.ay_add_page(ids[2], Vpn(4)).expect("add");
        map.ay_add_page(ids[3], Vpn(9)).expect("add");
        assert_eq!(
            map.fetch_set(Vpn(1)).into_iter().collect::<Vec<_>>(),
            vpns(&[1, 2, 3, 4]),
            "closure must follow chains of shared pages"
        );
        assert_eq!(
            map.fetch_set(Vpn(9)).into_iter().collect::<Vec<_>>(),
            vpns(&[9])
        );
    }

    #[test]
    fn evict_set_is_one_cluster() {
        let mut map = ClusterMap::default();
        let ids = map.ay_init_clusters(2, 0);
        map.ay_add_page(ids[0], Vpn(1)).expect("add");
        map.ay_add_page(ids[0], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(3)).expect("add");
        let evict = map.evict_set(Vpn(1));
        assert_eq!(evict.into_iter().collect::<Vec<_>>(), vpns(&[1, 2]));
    }

    #[test]
    fn auto_clustering_fills_then_rolls_over() {
        let mut map = ClusterMap::default();
        map.ay_init_clusters(0, 3);
        let mut ids = Vec::new();
        for n in 0..7u64 {
            ids.push(
                map.auto_assign(Vpn(n))
                    .expect("add ok")
                    .expect("auto enabled"),
            );
        }
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
        assert_ne!(ids[2], ids[3], "fourth page starts a new cluster");
        assert_eq!(ids[3], ids[5]);
        assert_ne!(ids[5], ids[6]);
    }

    #[test]
    fn auto_disabled_returns_none() {
        let mut map = ClusterMap::default();
        assert!(map.auto_assign(Vpn(1)).expect("add ok").is_none());
    }

    #[test]
    fn merge_underfull_compacts() {
        let mut map = ClusterMap::default();
        map.ay_init_clusters(0, 4);
        // id0 fills with pages 0-3, id1 gets 4-5.
        for n in 0..6u64 {
            map.auto_assign(Vpn(n)).expect("add ok");
        }
        // Freeing pages 2 and 3 leaves id0 under-full alongside id1.
        let id0 = map.ay_get_cluster_ids(Vpn(0))[0];
        map.ay_remove_page(id0, Vpn(2)).expect("rm");
        map.ay_remove_page(id0, Vpn(3)).expect("rm");
        let merged = map
            .merge_underfull()
            .expect("merge ok")
            .expect("two underfull clusters");
        assert_eq!(map.cluster_len(merged), 4, "merged cluster full again");
    }

    #[test]
    fn invariant_checker_detects_violation() {
        let mut map = ClusterMap::default();
        let ids = map.ay_init_clusters(1, 0);
        map.ay_add_page(ids[0], Vpn(1)).expect("add");
        map.ay_add_page(ids[0], Vpn(2)).expect("add");
        // Both non-resident: invariant holds.
        assert!(map.invariant_holds(|_| false));
        // Page 1 resident, page 2 not: page 2's only cluster has a resident
        // member — a fault on 2 would uniquely identify it. Violation.
        assert!(!map.invariant_holds(|v| v == Vpn(1)));
        // Both resident: fine.
        assert!(map.invariant_holds(|_| true));
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut map = ClusterMap::default();
        map.ay_init_clusters(2, 3);
        for n in 0..5u64 {
            map.auto_assign(Vpn(n)).expect("add ok");
        }
        let capture = map.capture();
        let restored = ClusterMap::restore(&capture);
        assert_eq!(restored.capture(), capture, "capture is canonical");
        // Reverse index rebuilt: fetch/evict sets and the allocator's
        // current auto-cluster behave identically.
        assert_eq!(restored.fetch_set(Vpn(1)), map.fetch_set(Vpn(1)));
        assert_eq!(restored.evict_set(Vpn(4)), map.evict_set(Vpn(4)));
        let mut a = map;
        let mut b = restored;
        assert_eq!(
            a.auto_assign(Vpn(100)).expect("add ok"),
            b.auto_assign(Vpn(100)).expect("add ok"),
        );
    }

    #[test]
    fn invariant_with_shared_pages() {
        // A = {1,2}, B = {2,3}, pages 1 and 2 resident. Page 3 is
        // non-resident while its only cluster (B) has a resident member —
        // a fault on 3 would uniquely identify it. Adding a fully
        // non-resident cluster C = {3} restores the invariant.
        let mut map = ClusterMap::default();
        let ids = map.ay_init_clusters(3, 0);
        map.ay_add_page(ids[0], Vpn(1)).expect("add");
        map.ay_add_page(ids[0], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(2)).expect("add");
        map.ay_add_page(ids[1], Vpn(3)).expect("add");
        let resident = |v: Vpn| v == Vpn(1) || v == Vpn(2);
        assert!(!map.invariant_holds(resident));
        map.ay_add_page(ids[2], Vpn(3)).expect("add");
        assert!(map.invariant_holds(resident));
    }
}
