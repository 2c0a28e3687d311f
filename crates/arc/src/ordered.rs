//! An insertion-ordered set with O(log n) LRU operations.
//!
//! Backs the T/B lists of [`crate::ArcCache`]: a `HashMap` from key to a
//! monotonically increasing sequence number plus a `BTreeMap` from
//! sequence number back to key. "Most recently used" is the largest
//! sequence number.

use std::collections::BTreeMap;

use ch_sim::DetHashMap;
use std::hash::Hash;

#[derive(Debug, Clone)]
pub(crate) struct OrderedSet<K> {
    seq_of: DetHashMap<K, u64>,
    key_of: BTreeMap<u64, K>,
    next_seq: u64,
}

impl<K: Eq + Hash + Clone> OrderedSet<K> {
    pub(crate) fn new() -> Self {
        OrderedSet {
            seq_of: ch_sim::det_hash_map(),
            key_of: BTreeMap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.seq_of.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.seq_of.is_empty()
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.seq_of.contains_key(key)
    }

    /// Inserts (or refreshes) `key` at the MRU end.
    pub(crate) fn push_mru(&mut self, key: K) {
        if let Some(old) = self.seq_of.remove(&key) {
            self.key_of.remove(&old);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seq_of.insert(key.clone(), seq);
        self.key_of.insert(seq, key);
    }

    /// Removes and returns the LRU key.
    pub(crate) fn pop_lru(&mut self) -> Option<K> {
        let (_, key) = self.key_of.pop_first()?;
        self.seq_of.remove(&key);
        Some(key)
    }

    /// Removes `key` if present; returns whether it was there.
    pub(crate) fn remove(&mut self, key: &K) -> bool {
        match self.seq_of.remove(key) {
            Some(seq) => {
                self.key_of.remove(&seq);
                true
            }
            None => false,
        }
    }

    /// Keys from LRU to MRU.
    #[cfg(test)]
    pub(crate) fn iter_lru_to_mru(&self) -> impl Iterator<Item = &K> {
        self.key_of.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut s = OrderedSet::new();
        s.push_mru(1);
        s.push_mru(2);
        s.push_mru(3);
        assert_eq!(s.pop_lru(), Some(1));
        assert_eq!(s.pop_lru(), Some(2));
        assert_eq!(s.pop_lru(), Some(3));
        assert_eq!(s.pop_lru(), None);
    }

    #[test]
    fn refresh_moves_to_mru() {
        let mut s = OrderedSet::new();
        s.push_mru('a');
        s.push_mru('b');
        s.push_mru('a'); // refresh
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop_lru(), Some('b'));
        assert_eq!(s.pop_lru(), Some('a'));
    }

    #[test]
    fn remove_and_contains() {
        let mut s = OrderedSet::new();
        s.push_mru("x");
        assert!(s.contains(&"x"));
        assert!(s.remove(&"x"));
        assert!(!s.remove(&"x"));
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_order() {
        let mut s = OrderedSet::new();
        for k in [5, 3, 9] {
            s.push_mru(k);
        }
        let order: Vec<_> = s.iter_lru_to_mru().copied().collect();
        assert_eq!(order, vec![5, 3, 9]);
    }
}
