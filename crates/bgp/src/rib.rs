//! Adjacency RIB-In: per-neighbor route storage with best-path selection.
//!
//! [`IdRibIn`] keys by dense [`PrefixId`] and stores [`IdRoute`]s whose
//! paths live in a shared [`PathInterner`]: the message-level engine
//! processes one UPDATE per neighbor per churn step, and interning turns
//! each of those from an O(path) clone into an O(1) id copy.

use crate::path::{PathId, PathInterner};
use crate::prefix_id::PrefixId;
use lg_asmap::{AsId, Relationship};
use std::collections::HashMap;

/// A received route in an [`IdRibIn`]. It carries no prefix: the RIB
/// keys by [`PrefixId`], so storing the prefix per candidate would
/// replicate it once per neighbor at full-table scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdRoute {
    /// Interned AS path (resolve through the owning [`PathInterner`]).
    pub path: PathId,
    /// Neighbor that announced it.
    pub learned_from: AsId,
    /// Business relationship to that neighbor.
    pub rel: Relationship,
}

/// Routes received from each neighbor, per prefix, plus best-path
/// selection: the state a single BGP speaker keeps for its neighbors.
/// Import filtering happens *before* insertion (the caller applies
/// [`crate::ImportPolicy`]); the RIB stores accepted routes only,
/// mirroring a router's post-policy Adj-RIB-In.
///
/// Keys are dense [`PrefixId`]s and paths are interned in the caller's
/// [`PathInterner`], so a candidate is three words: sized for full-table
/// workloads where per-entry prefix copies and path clones would dominate.
///
/// [`Self::withdraw_neighbor`] returns affected ids in *unsorted map
/// order*: id order is process-global interning order, so callers that
/// feed observable output (reselection cascades, logs) must sort by the
/// resolved [`Prefix`](crate::Prefix) themselves.
#[derive(Default, Debug, Clone)]
pub struct IdRibIn {
    routes: HashMap<PrefixId, HashMap<AsId, IdRoute>>,
}

impl IdRibIn {
    /// Empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace the route from `route.learned_from` for `prefix`.
    /// Returns the replaced route, if any.
    pub fn insert(&mut self, prefix: PrefixId, route: IdRoute) -> Option<IdRoute> {
        self.routes
            .entry(prefix)
            .or_default()
            .insert(route.learned_from, route)
    }

    /// Withdraw the route from `neighbor` for `prefix`. Returns it if present.
    pub fn withdraw(&mut self, neighbor: AsId, prefix: PrefixId) -> Option<IdRoute> {
        let per = self.routes.get_mut(&prefix)?;
        let out = per.remove(&neighbor);
        if per.is_empty() {
            self.routes.remove(&prefix);
        }
        out
    }

    /// Drop every route learned from `neighbor` (session reset / link down).
    /// Returns the affected prefix ids, unsorted (see type docs).
    pub fn withdraw_neighbor(&mut self, neighbor: AsId) -> Vec<PrefixId> {
        let mut affected = Vec::new();
        self.routes.retain(|prefix, per| {
            if per.remove(&neighbor).is_some() {
                affected.push(*prefix);
            }
            !per.is_empty()
        });
        affected
    }

    /// The best route for `prefix` under the BGP decision process.
    ///
    /// Route preference, most important first:
    ///
    /// 1. highest local preference — encoded as the relationship class
    ///    (customer-learned > peer-learned > provider-learned), the
    ///    standard Gao-Rexford economic ordering;
    /// 2. shortest AS path (prepended copies count — this is why the
    ///    paper's `O-O-O` baseline neutralizes the length increase of
    ///    `O-A-O`);
    /// 3. lowest neighbor (next-hop) AS id — a deterministic stand-in for
    ///    the IGP/tie-break steps of real routers;
    /// 4. lexicographically smallest path (final total-order tiebreak so
    ///    selection is a pure function of the candidate set).
    pub fn best(&self, prefix: PrefixId, paths: &PathInterner) -> Option<IdRoute> {
        self.routes.get(&prefix)?.values().copied().min_by(|a, b| {
            a.rel
                .pref_class()
                .cmp(&b.rel.pref_class())
                .then_with(|| paths.len(a.path).cmp(&paths.len(b.path)))
                .then_with(|| a.learned_from.cmp(&b.learned_from))
                .then_with(|| paths.cmp_content(a.path, b.path))
        })
    }

    /// The route learned from a specific neighbor.
    pub fn from_neighbor(&self, neighbor: AsId, prefix: PrefixId) -> Option<&IdRoute> {
        self.routes.get(&prefix)?.get(&neighbor)
    }

    /// All candidate routes for `prefix`, unordered.
    pub fn candidates(&self, prefix: PrefixId) -> impl Iterator<Item = &IdRoute> {
        self.routes
            .get(&prefix)
            .into_iter()
            .flat_map(|m| m.values())
    }

    /// Prefix ids with at least one route, unsorted (see type docs).
    pub fn prefixes(&self) -> impl Iterator<Item = PrefixId> + '_ {
        self.routes.keys().copied()
    }

    /// Number of (prefix, neighbor) entries.
    pub fn entry_count(&self) -> usize {
        self.routes.values().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use crate::prefix::Prefix;
    use crate::route::Route;
    use std::cmp::Ordering;

    /// The decision process over owned routes, level for level: the
    /// oracle [`IdRibIn::best`] is checked against.
    fn compare_routes(a: &Route, b: &Route) -> Ordering {
        a.pref_class()
            .cmp(&b.pref_class())
            .then_with(|| a.path_len().cmp(&b.path_len()))
            .then_with(|| a.learned_from.cmp(&b.learned_from))
            .then_with(|| a.path.cmp(&b.path))
    }

    fn pfx() -> Prefix {
        Prefix::from_octets(10, 0, 0, 0, 16)
    }

    fn id_route(paths: &mut PathInterner, from: u32, rel: Relationship, hops: &[u32]) -> IdRoute {
        IdRoute {
            path: paths.intern(&AsPath::from_hops(hops.iter().map(|h| AsId(*h)).collect())),
            learned_from: AsId(from),
            rel,
        }
    }

    #[test]
    fn insert_select_withdraw_cycle() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let pid = PrefixId::of(pfx());
        rib.insert(
            pid,
            id_route(&mut paths, 1, Relationship::Provider, &[1, 100]),
        );
        rib.insert(
            pid,
            id_route(&mut paths, 2, Relationship::Customer, &[2, 3, 100]),
        );
        assert_eq!(rib.best(pid, &paths).unwrap().learned_from, AsId(2));
        rib.withdraw(AsId(2), pid);
        assert_eq!(rib.best(pid, &paths).unwrap().learned_from, AsId(1));
        rib.withdraw(AsId(1), pid);
        assert!(rib.best(pid, &paths).is_none());
        assert_eq!(rib.entry_count(), 0);
    }

    #[test]
    fn reinsert_replaces_previous_route() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let pid = PrefixId::of(pfx());
        rib.insert(
            pid,
            id_route(&mut paths, 1, Relationship::Peer, &[1, 2, 100]),
        );
        let old = rib.insert(pid, id_route(&mut paths, 1, Relationship::Peer, &[1, 100]));
        assert!(old.is_some());
        assert_eq!(rib.entry_count(), 1);
        assert_eq!(paths.len(rib.best(pid, &paths).unwrap().path), 2);
        assert!(rib.from_neighbor(AsId(1), pid).is_some());
        assert!(rib.from_neighbor(AsId(2), pid).is_none());
    }

    #[test]
    fn id_rib_selects_exactly_like_decision_oracle() {
        // Each case ranks its whole candidate set: withdraw the winner
        // and ask again until the RIB runs dry, so every tiebreak level
        // between every pair gets exercised.
        let cases: Vec<Vec<(u32, Relationship, Vec<u32>)>> = vec![
            // Class beats length: a customer route wins over a shorter
            // provider route, and a peer route over a provider route.
            vec![
                (1, Relationship::Customer, vec![1, 2, 3, 4]),
                (5, Relationship::Provider, vec![5, 6]),
                (7, Relationship::Peer, vec![7, 2, 3]),
            ],
            // Length within class.
            vec![
                (9, Relationship::Peer, vec![9, 3]),
                (1, Relationship::Peer, vec![1, 2, 3]),
            ],
            // Prepending counts toward length.
            vec![
                (7, Relationship::Peer, vec![7, 100, 100, 100]),
                (8, Relationship::Peer, vec![8, 100]),
            ],
            // Neighbor id breaks ties.
            vec![
                (5, Relationship::Peer, vec![5, 100]),
                (3, Relationship::Peer, vec![3, 100]),
            ],
            // All levels at once.
            vec![
                (1, Relationship::Provider, vec![1, 100]),
                (2, Relationship::Customer, vec![2, 3, 4, 100]),
                (9, Relationship::Peer, vec![9, 3]),
                (5, Relationship::Peer, vec![5, 100]),
                (3, Relationship::Peer, vec![3, 100]),
            ],
        ];
        let pid = PrefixId::of(pfx());
        for case in cases {
            let mut paths = PathInterner::new();
            let mut oracle: Vec<Route> = Vec::new();
            // Insertion order must not matter: fill one RIB forwards and
            // one backwards.
            let mut fwd = IdRibIn::new();
            let mut rev = IdRibIn::new();
            for (from, rel, hops) in &case {
                let r = id_route(&mut paths, *from, *rel, hops);
                fwd.insert(pid, r);
                oracle.push(Route {
                    prefix: pfx(),
                    path: paths.materialize(r.path),
                    learned_from: r.learned_from,
                    rel: r.rel,
                    communities: vec![],
                });
            }
            for (from, rel, hops) in case.iter().rev() {
                rev.insert(pid, id_route(&mut paths, *from, *rel, hops));
            }
            while let Some(want) = oracle.iter().min_by(|a, b| compare_routes(a, b)).cloned() {
                for rib in [&fwd, &rev] {
                    let got = rib.best(pid, &paths).expect("id RIB ran dry early");
                    assert_eq!(got.learned_from, want.learned_from);
                    assert_eq!(got.rel, want.rel);
                    assert_eq!(paths.materialize(got.path), want.path);
                }
                oracle.retain(|r| r.learned_from != want.learned_from);
                fwd.withdraw(want.learned_from, pid);
                rev.withdraw(want.learned_from, pid);
            }
            assert!(fwd.best(pid, &paths).is_none());
            assert!(rev.best(pid, &paths).is_none());
        }
    }

    #[test]
    fn withdraw_of_never_announced_is_inert() {
        // Withdrawing a (neighbor, prefix) that was never announced must
        // return None and leave no residue — neither an empty per-prefix
        // map nor any effect on unrelated entries.
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let pid = PrefixId::of(pfx());
        assert!(rib.withdraw(AsId(1), pid).is_none());
        assert_eq!(rib.prefixes().count(), 0);
        assert!(rib.withdraw_neighbor(AsId(1)).is_empty());

        rib.insert(pid, id_route(&mut paths, 2, Relationship::Peer, &[2, 100]));
        // Wrong neighbor, right prefix; right neighbor, wrong prefix.
        assert!(rib.withdraw(AsId(1), pid).is_none());
        let other = PrefixId::of(Prefix::from_octets(20, 0, 0, 0, 16));
        assert!(rib.withdraw(AsId(2), other).is_none());
        assert_eq!(rib.entry_count(), 1);
        assert_eq!(rib.best(pid, &paths).unwrap().learned_from, AsId(2));
        // Double-withdraw: first succeeds, second is a no-op.
        assert!(rib.withdraw(AsId(2), pid).is_some());
        assert!(rib.withdraw(AsId(2), pid).is_none());
        assert_eq!(rib.prefixes().count(), 0);
    }

    #[test]
    fn reannounce_after_withdraw_reuses_interned_tail() {
        // A withdraw/re-announce cycle (the dominant pattern under link
        // flaps) must not grow the interner: the re-announced path
        // hash-conses back to the original id, and selection sees the
        // restored route as if it never left.
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let pid = PrefixId::of(pfx());
        let first = rib
            .insert(pid, id_route(&mut paths, 1, Relationship::Peer, &[1, 100]))
            .is_none();
        assert!(first);
        let id0 = rib.from_neighbor(AsId(1), pid).unwrap().path;
        let nodes = paths.node_count();

        let gone = rib.withdraw(AsId(1), pid).unwrap();
        assert_eq!(gone.path, id0);
        assert!(rib.best(pid, &paths).is_none());

        let r = id_route(&mut paths, 1, Relationship::Peer, &[1, 100]);
        assert_eq!(r.path, id0, "re-interned path must reuse the old id");
        assert_eq!(paths.node_count(), nodes, "interner grew on re-announce");
        rib.insert(pid, r);
        let best = rib.best(pid, &paths).unwrap();
        assert_eq!(best.learned_from, AsId(1));
        assert_eq!(best.path, id0);

        // A longer path sharing the tail only adds the new head node.
        let r2 = id_route(&mut paths, 3, Relationship::Peer, &[3, 1, 100]);
        assert_eq!(paths.node_count(), nodes + 1);
        rib.insert(pid, r2);
        assert_eq!(rib.best(pid, &paths).unwrap().learned_from, AsId(1));
    }

    #[test]
    fn id_rib_withdraw_neighbor_returns_all_affected_ids() {
        let mut paths = PathInterner::new();
        let mut rib = IdRibIn::new();
        let a = PrefixId::of(pfx());
        let b = PrefixId::of(Prefix::from_octets(20, 0, 0, 0, 16));
        let route = id_route(&mut paths, 1, Relationship::Peer, &[1, 100]);
        rib.insert(a, route);
        rib.insert(b, route);
        rib.insert(
            a,
            IdRoute {
                learned_from: AsId(2),
                ..route
            },
        );
        let mut affected = rib.withdraw_neighbor(AsId(1));
        affected.sort_unstable();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(affected, want);
        assert_eq!(rib.best(a, &paths).unwrap().learned_from, AsId(2));
        assert!(rib.best(b, &paths).is_none());
        assert_eq!(rib.entry_count(), 1);
    }
}
