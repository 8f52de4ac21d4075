//! A bounded map with first-in, first-out eviction — the shape of both the
//! server-side reply cache and the proxy-side property cache.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// At most `CAP` entries. Inserting a new key when full evicts the oldest
/// key first; overwriting an existing key keeps its place in the order.
#[derive(Debug)]
pub(crate) struct BoundedFifo<K, V, const CAP: usize> {
    map: HashMap<K, V>,
    /// Insertion order of `map`'s keys, oldest first.
    order: VecDeque<K>,
}

impl<K, V, const CAP: usize> Default for BoundedFifo<K, V, CAP> {
    fn default() -> Self {
        BoundedFifo {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Eq + Hash + Copy, V, const CAP: usize> BoundedFifo<K, V, CAP> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if !self.map.contains_key(&key) {
            if self.order.len() >= CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
            self.order.push_back(key);
        }
        self.map.insert(key, value);
    }

    /// Keep only the keys `keep` accepts, in their current order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
        self.order.retain(|k| keep(k));
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_oldest_key_and_keeps_overwritten_slots() {
        let mut fifo: BoundedFifo<u32, &str, 3> = BoundedFifo::default();
        fifo.insert(1, "a");
        fifo.insert(2, "b");
        fifo.insert(3, "c");
        // Overwriting 1 keeps it oldest: the next new key evicts it.
        fifo.insert(1, "a2");
        assert_eq!(fifo.get(&1), Some(&"a2"));
        fifo.insert(4, "d");
        assert_eq!(fifo.get(&1), None);
        assert_eq!(fifo.len(), 3);
        // Retain drops from the order too: 2 goes, so 3 is oldest now.
        fifo.retain(|&k| k != 2);
        fifo.insert(5, "e");
        assert_eq!(fifo.len(), 3);
        fifo.insert(6, "f");
        assert_eq!(fifo.get(&3), None);
        let left: Vec<u32> = fifo.order.iter().copied().collect();
        assert_eq!(left, vec![4, 5, 6]);
    }
}
