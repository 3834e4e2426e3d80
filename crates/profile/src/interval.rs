//! An interval map from address ranges to values.
//!
//! The paper's pointer-to-object profiler "maintains an interval map from
//! ranges of memory addresses to the name of the memory object which
//! occupies that space" (§4.1, citing Wu et al.). This is that structure.

use std::collections::BTreeMap;

/// A map from disjoint half-open `[start, end)` ranges to values.
///
/// Inserting a range that overlaps existing entries evicts the overlapped
/// entries first (address reuse after `free`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalMap<V> {
    map: BTreeMap<u64, (u64, V)>,
}

impl<V> Default for IntervalMap<V> {
    fn default() -> Self {
        IntervalMap::new()
    }
}

impl<V> IntervalMap<V> {
    /// An empty map.
    pub fn new() -> IntervalMap<V> {
        IntervalMap {
            map: BTreeMap::new(),
        }
    }

    /// Number of ranges stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Insert `[start, end) -> value`, evicting overlapping ranges.
    /// Returns how many ranges it evicted.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn insert(&mut self, start: u64, end: u64, value: V) -> usize {
        assert!(start < end, "empty interval");
        let evicted = self.remove_overlapping(start, end);
        self.map.insert(start, (end, value));
        evicted
    }

    /// Remove every range overlapping `[start, end)`, returning how many
    /// it removed.
    pub fn remove_overlapping(&mut self, start: u64, end: u64) -> usize {
        // Candidate ranges begin before `end`; collect starts to remove.
        let doomed: Vec<u64> = self
            .map
            .range(..end)
            .rev()
            .take_while(|(_, (e, _))| *e > start)
            .map(|(&s, _)| s)
            .collect();
        // `take_while` from the back works because ranges are disjoint:
        // once a range ends at or before `start`, all earlier ones do too.
        for s in &doomed {
            self.map.remove(s);
        }
        doomed.len()
    }

    /// Remove the range that *starts* exactly at `start`.
    pub fn remove_at(&mut self, start: u64) -> Option<(u64, V)> {
        self.map.remove(&start)
    }

    /// The entry whose range contains `addr`, as `(start, end, &value)`.
    pub fn query(&self, addr: u64) -> Option<(u64, u64, &V)> {
        let (&start, (end, v)) = self.map.range(..=addr).next_back()?;
        (*end > addr).then_some((start, *end, v))
    }

    /// The value at `addr`, if covered.
    pub fn get(&self, addr: u64) -> Option<&V> {
        self.query(addr).map(|(_, _, v)| v)
    }

    /// All distinct entries intersecting `[start, end)`.
    pub fn query_range(&self, start: u64, end: u64) -> Vec<(u64, u64, &V)> {
        let mut out = Vec::new();
        // The entry starting at or before `start` may cover into the range.
        if let Some(hit) = self.query(start) {
            out.push(hit);
        }
        for (&s, (e, v)) in self.map.range(start..end) {
            if out.last().map(|&(ps, _, _)| ps) != Some(s) {
                out.push((s, *e, v));
            }
        }
        out
    }

    /// Iterate over all `(start, end, &value)` entries in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &V)> {
        self.map.iter().map(|(&s, (e, v))| (s, *e, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query() {
        let mut m = IntervalMap::new();
        m.insert(100, 200, "a");
        m.insert(300, 400, "b");
        assert_eq!(m.get(100), Some(&"a"));
        assert_eq!(m.get(199), Some(&"a"));
        assert_eq!(m.get(200), None);
        assert_eq!(m.get(99), None);
        assert_eq!(m.get(350), Some(&"b"));
        assert_eq!(m.query(150), Some((100, 200, &"a")));
    }

    #[test]
    fn overlap_evicts() {
        let mut m = IntervalMap::new();
        m.insert(100, 200, "a");
        m.insert(150, 250, "b");
        assert_eq!(m.get(120), None); // "a" evicted wholesale
        assert_eq!(m.get(180), Some(&"b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn adjacent_ranges_do_not_evict() {
        let mut m = IntervalMap::new();
        m.insert(100, 200, "a");
        m.insert(200, 300, "b");
        m.insert(0, 100, "c");
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(150), Some(&"a"));
    }

    #[test]
    fn remove_at() {
        let mut m = IntervalMap::new();
        m.insert(10, 20, 1);
        assert_eq!(m.remove_at(10), Some((20, 1)));
        assert_eq!(m.remove_at(10), None);
        assert!(m.is_empty());
    }

    #[test]
    fn query_range_spans() {
        let mut m = IntervalMap::new();
        m.insert(0, 10, "a");
        m.insert(10, 20, "b");
        m.insert(30, 40, "c");
        let hits: Vec<&str> = m
            .query_range(5, 35)
            .into_iter()
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(hits, vec!["a", "b", "c"]);
        let hits: Vec<&str> = m
            .query_range(10, 11)
            .into_iter()
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(hits, vec!["b"]);
    }

    #[test]
    fn eviction_of_many() {
        let mut m = IntervalMap::new();
        for i in 0..10u64 {
            m.insert(i * 10, i * 10 + 10, i);
        }
        assert_eq!(m.insert(15, 85, 99), 8);
        // Ranges [10,20) .. [80,90) overlap [15,85) and are gone.
        assert_eq!(m.get(5), Some(&0));
        assert_eq!(m.get(50), Some(&99));
        assert_eq!(m.get(85), None);
        assert_eq!(m.get(95), Some(&9));
    }
}
