//! The object directory: for each `(node, export id)` location, where the
//! live copy went and whether a read through it may be cached; and where
//! each class's statics singleton was first exported. No I/O and no VM
//! access, so its invariants are unit-tested here in isolation.
//!
//! It stands in for a registry a real deployment would replicate alongside
//! the data, so a node restart leaves it untouched: the node forgets its
//! exports, not where objects went.

use std::collections::HashMap;
use std::fmt::Write as _;

/// A `(node, export id)` location.
pub(crate) type Loc = (u32, u64);

/// Version of a location the object moved away from: permanently
/// uncacheable, so a reader that never exchanges with the new owner cannot
/// keep serving the pre-move value. Travels on reply frames.
pub(crate) const VERSION_TOMBSTONE: u64 = u64::MAX;

#[derive(Debug, Default)]
pub(crate) struct Directory {
    /// Property version per location; absent means 0.
    versions: HashMap<Loc, u64>,
    /// `from → to` for every migration, pull and promotion. A move's
    /// forwarding proxy is lost when its node restarts; these links are
    /// not. Acyclic (see [`Directory::link`]).
    links: HashMap<Loc, Loc>,
    /// Class name → the location its statics singleton was first exported
    /// under, so a restarted statics owner follows the links to a promoted
    /// copy instead of minting a fresh, amnesiac singleton.
    singletons: HashMap<String, Loc>,
    /// Test-only fault: skip the next [`Directory::tombstone`], the bug
    /// the stale-read monitor exists to catch.
    skip_next_tombstone: bool,
}

impl Directory {
    /// The property version of `loc`, tombstone included — the value a
    /// reply frame carries.
    pub fn version(&self, loc: Loc) -> u64 {
        self.versions.get(&loc).copied().unwrap_or(0)
    }

    /// The version of `loc` if a read through it may be cached or served
    /// from a replica, `None` once the location is tombstoned.
    pub fn live_version(&self, loc: Loc) -> Option<u64> {
        Some(self.version(loc)).filter(|&v| v != VERSION_TOMBSTONE)
    }

    /// Record a (possible) mutation of `loc`: any read tagged with an older
    /// version becomes stale. A tombstoned location stays tombstoned.
    /// Returns the version after the bump.
    pub fn bump(&mut self, loc: Loc) -> u64 {
        let v = self.versions.entry(loc).or_insert(0);
        if *v != VERSION_TOMBSTONE {
            *v = v.saturating_add(1).min(VERSION_TOMBSTONE - 1);
        }
        *v
    }

    /// Mark `loc` permanently uncacheable: the object moved away and the
    /// export now forwards. Sticky — neither a bump nor the object moving
    /// back under the same id lifts it (a deliberate over-approximation).
    pub fn tombstone(&mut self, loc: Loc) {
        if std::mem::take(&mut self.skip_next_tombstone) {
            return;
        }
        self.versions.insert(loc, VERSION_TOMBSTONE);
    }

    /// Arm the one-shot fault that skips the next [`Directory::tombstone`].
    pub fn skip_next_tombstone(&mut self) {
        self.skip_next_tombstone = true;
    }

    /// Record that the live copy at `from` now lives at `to`. The
    /// destination stops being a forwarding location the moment something
    /// lands on it, so any link keyed there is dropped. That keeps the
    /// links acyclic: a cycle would have to leave `to`, which has no link.
    pub fn link(&mut self, from: Loc, to: Loc) {
        self.links.insert(from, to);
        self.links.remove(&to);
    }

    /// A move away from `from` to `to`: tombstone the old location and
    /// link it to the new one.
    pub fn moved(&mut self, from: Loc, to: Loc) {
        self.tombstone(from);
        self.link(from, to);
    }

    /// The location the copy at `loc` moved to directly, if it moved.
    pub fn successor(&self, loc: Loc) -> Option<Loc> {
        self.links.get(&loc).copied()
    }

    /// Follow the links from `start` to the end of its chain; an unlinked
    /// location is its own end. The links are acyclic, so no chain has
    /// more hops than there are links.
    pub fn follow(&self, start: Loc) -> Loc {
        let mut at = start;
        for _ in 0..self.links.len() {
            match self.links.get(&at) {
                Some(&next) => at = next,
                None => break,
            }
        }
        at
    }

    /// Register `loc` as the canonical statics singleton of `class`. The
    /// first registration wins.
    pub fn register_singleton(&mut self, class: &str, loc: Loc) {
        self.singletons.entry(class.to_owned()).or_insert(loc);
    }

    /// Where the statics singleton of `class` was first exported.
    pub fn singleton(&self, class: &str) -> Option<Loc> {
        self.singletons.get(class).copied()
    }

    /// The links as served by `rafda.Introspection`: one `from -> to` line
    /// per recorded migration, pull or promotion, sorted by old location.
    pub fn links_table(&self) -> String {
        let mut links: Vec<(Loc, Loc)> = self.links.iter().map(|(&k, &v)| (k, v)).collect();
        links.sort_unstable();
        let mut out = String::new();
        for ((on, oo), (nn, no)) in links {
            let _ = writeln!(out, "node{on}#{oo} -> node{nn}#{no}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every chain ends within as many hops as there are links, at a
    /// location with no link of its own.
    fn assert_acyclic(dir: &Directory) {
        for &start in dir.links.keys() {
            let mut at = start;
            for _ in 0..dir.links.len() {
                match dir.successor(at) {
                    Some(next) => at = next,
                    None => break,
                }
            }
            assert_eq!(dir.successor(at), None, "chain from {start:?} cycles");
        }
    }

    const A: Loc = (0, 1);
    const B: Loc = (1, 4);
    const C: Loc = (2, 9);

    #[test]
    fn chains_stay_acyclic_after_a_round_trip_and_a_promotion() {
        let mut dir = Directory::default();
        // A → B → A: the object migrates back under its original id.
        dir.moved(A, B);
        dir.moved(B, A);
        assert_acyclic(&dir);
        assert_eq!((dir.follow(A), dir.follow(B)), (A, A));
        // A promotion after a migration: A → B, then B's node crashes and
        // a backup promotes the copy onto C.
        let mut dir = Directory::default();
        dir.moved(A, B);
        dir.moved(B, C);
        assert_acyclic(&dir);
        assert_eq!((dir.follow(A), dir.follow(B)), (C, C));
        // ...and a later move back onto A's location.
        dir.moved(C, A);
        assert_acyclic(&dir);
        assert_eq!(dir.follow(B), A);
    }

    #[test]
    fn the_tombstone_is_sticky_while_the_returning_link_is_dropped() {
        let mut dir = Directory::default();
        dir.bump(A);
        dir.moved(A, B);
        dir.moved(B, A);
        // The object lives at A again: A has no link, but its reads stay
        // uncacheable.
        assert_eq!(dir.successor(A), None);
        assert_eq!(dir.live_version(A), None);
        assert_eq!(dir.version(A), VERSION_TOMBSTONE);
    }

    #[test]
    fn a_bump_never_lifts_a_tombstone() {
        let mut dir = Directory::default();
        dir.bump(A);
        assert_eq!(dir.live_version(A), Some(1));
        dir.tombstone(A);
        dir.bump(A);
        assert_eq!(dir.version(A), VERSION_TOMBSTONE);
        assert_eq!(dir.live_version(A), None);
    }

    #[test]
    fn the_canary_skips_exactly_one_tombstone() {
        let mut dir = Directory::default();
        dir.skip_next_tombstone();
        dir.moved(A, B);
        assert_eq!(
            dir.live_version(A),
            Some(0),
            "the armed tombstone is skipped"
        );
        assert_eq!(dir.successor(A), Some(B), "the link is still recorded");
        dir.tombstone(C);
        assert_eq!(dir.live_version(C), None, "the skip is one-shot");
    }

    #[test]
    fn the_first_singleton_registration_wins() {
        let mut dir = Directory::default();
        assert_eq!(dir.singleton("S"), None);
        dir.register_singleton("S", A);
        dir.register_singleton("S", B);
        assert_eq!(dir.singleton("S"), Some(A));
    }

    #[test]
    fn following_an_unlinked_location_is_the_identity() {
        let mut dir = Directory::default();
        assert_eq!(dir.follow(A), A);
        dir.link(B, C);
        assert_eq!(dir.follow(A), A);
        assert_eq!(dir.follow(C), C);
    }

    #[test]
    fn a_chain_longer_than_the_node_count_is_followed_to_its_end() {
        // Rotating one object over three nodes mints a fresh id per move,
        // so its chain grows by one link each time.
        let mut dir = Directory::default();
        let mut at = (1, 1);
        for i in 0..7u32 {
            let next = (1 + (i + 1) % 3, 2 + u64::from(i));
            dir.moved(at, next);
            at = next;
        }
        assert_acyclic(&dir);
        assert_eq!(dir.links.len(), 7);
        assert_eq!(dir.follow((1, 1)), at);
    }
}
