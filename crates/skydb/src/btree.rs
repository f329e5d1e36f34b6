//! A from-scratch B+-tree used for primary keys and attribute indexes.
//!
//! The tree is built for the workload the paper measures:
//!
//! * **Insert-heavy maintenance.** Fig. 8 measures the drag an index puts on
//!   bulk loading; every insert here does real comparisons, real node splits
//!   and real memory traffic. Fanout is derived from the key width, so the
//!   paper's "index on 3 float attributes" genuinely has lower fanout, more
//!   splits and more dirty pages than the "index on 1 integer attribute".
//! * **Bulk build from sorted input** for §4.5.1's delayed index building:
//!   secondary indexes are dropped during load and rebuilt afterwards with
//!   [`BPlusTree::bulk_build`], which packs leaves to a fill factor instead
//!   of paying per-key descent and splits.
//! * **Dirty-node accounting.** The engine charges index-device page writes
//!   per distinct node dirtied between cache flushes ([`BPlusTree::take_dirty`]).
//!
//! Deletions (used only to undo uncommitted inserts on rollback) are lazy:
//! entries are removed without rebalancing, as in many production engines.

use std::collections::HashSet;

use crate::value::Key;

/// Payload stored per entry (a packed [`RowId`]).
///
/// [`RowId`]: crate::heap::RowId
pub type Payload = u64;

/// Error returned by [`BPlusTree::insert`] on a unique-key conflict,
/// carrying the payload of the entry already holding the key. Callers use
/// the incumbent to attribute the collision (committed row vs. a still-open
/// transaction's staged row) without a second, racy tree probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateKey(pub Payload);

/// Internal separator: entries are globally ordered by `(key, payload)` so
/// duplicate keys (non-unique indexes) have a total order and never straddle
/// ambiguously.
type Entry = (Key, Payload);

#[derive(Debug)]
enum Node {
    Leaf {
        entries: Vec<Entry>,
        next: Option<u32>,
    },
    Internal {
        /// `children[i]` holds entries `< seps[i]`; `children.len() == seps.len() + 1`.
        seps: Vec<Entry>,
        children: Vec<u32>,
    },
}

/// A B+-tree mapping composite [`Key`]s to row payloads.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: u32,
    /// Maximum entries per node.
    order: usize,
    unique: bool,
    len: u64,
    splits: u64,
    dirty: HashSet<u32>,
}

/// `v.split_off(at)`, but the new half is allocated at `cap`, the most a
/// node holds before it splits, so inserting into it never reallocates.
/// Concurrent loaders insert into nodes another thread allocated, and glibc
/// reallocates a block under the lock of the thread that allocated it.
fn split_off_full<T>(v: &mut Vec<T>, at: usize, cap: usize) -> Vec<T> {
    let mut right = Vec::with_capacity(cap);
    right.extend(v.drain(at..));
    right
}

/// Modeled page size a node occupies (drives fanout from key width).
const NODE_BYTES: usize = 8192;
/// Per-entry bookkeeping overhead assumed when deriving fanout.
const ENTRY_OVERHEAD: usize = 16;

/// Derive a node order (max entries) from an expected key width in bytes.
pub fn order_for_key_width(key_width_bytes: usize) -> usize {
    (NODE_BYTES / (key_width_bytes + ENTRY_OVERHEAD)).clamp(8, 512)
}

impl BPlusTree {
    /// An empty tree. `unique` rejects duplicate keys (primary keys and
    /// UNIQUE constraints); non-unique trees allow them (attribute indexes).
    pub fn new(unique: bool, order: usize) -> Self {
        assert!(order >= 4, "B+-tree order must be at least 4, got {order}");
        BPlusTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            unique,
            len: 0,
            splits: 0,
            dirty: HashSet::new(),
        }
    }

    /// An empty tree with order derived from an expected key width.
    pub fn with_key_width(unique: bool, key_width_bytes: usize) -> Self {
        BPlusTree::new(unique, order_for_key_width(key_width_bytes))
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total node splits since creation (a proxy for index page allocations).
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Number of allocated nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree (1 = just a root leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        loop {
            match &self.nodes[n as usize] {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    h += 1;
                    n = children[0];
                }
            }
        }
    }

    /// Drain the set of nodes dirtied since the last call, returning its size.
    /// The engine maps this to index-device page writes.
    pub fn take_dirty(&mut self) -> usize {
        let n = self.dirty.len();
        self.dirty.clear();
        n
    }

    fn mark_dirty(&mut self, node: u32) {
        self.dirty.insert(node);
    }

    /// Insert `(key, payload)`. For unique trees, returns [`DuplicateKey`]
    /// if an entry with an equal key (any payload) exists. Keys containing
    /// NULL components bypass uniqueness (as in Oracle, NULLs are not
    /// indexed for uniqueness) but are still stored for completeness.
    pub fn insert(&mut self, key: Key, payload: Payload) -> Result<(), DuplicateKey> {
        if self.unique && !key.has_null() {
            if let Some(incumbent) = self.get_first(&key) {
                return Err(DuplicateKey(incumbent));
            }
        }
        let entry = (key, payload);
        if let Some((sep, right)) = self.insert_rec(self.root, entry) {
            // Root split: grow a new root.
            let old_root = self.root;
            let new_root = self.alloc(Node::Internal {
                seps: vec![sep],
                children: vec![old_root, right],
            });
            self.root = new_root;
        }
        self.len += 1;
        Ok(())
    }

    fn alloc(&mut self, node: Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.mark_dirty(id);
        id
    }

    /// Recursive insert; returns the promoted separator and new right node
    /// if `node` split.
    fn insert_rec(&mut self, node: u32, entry: Entry) -> Option<(Entry, u32)> {
        self.mark_dirty(node);
        let child = match &self.nodes[node as usize] {
            Node::Leaf { .. } => None,
            Node::Internal { seps, children, .. } => {
                let idx = seps.partition_point(|s| *s <= entry);
                Some(children[idx])
            }
        };

        match child {
            None => {
                // Leaf insert.
                let order = self.order;
                let Node::Leaf { entries, .. } = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                let pos = entries.partition_point(|e| *e < entry);
                entries.insert(pos, entry);
                if entries.len() <= order {
                    return None;
                }
                // Split leaf. Ascending (rightmost) inserts get Oracle's
                // "90-10" split so presorted loads pack leaves instead of
                // leaving them half-full; everything else splits 50-50.
                let mid = if pos == entries.len() - 1 {
                    (entries.len() * 9) / 10
                } else {
                    entries.len() / 2
                };
                let right_entries = split_off_full(entries, mid, order + 1);
                let sep = right_entries[0].clone();
                let Node::Leaf { next, .. } = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                let old_next = *next;
                let right = self.alloc(Node::Leaf {
                    entries: right_entries,
                    next: old_next,
                });
                let Node::Leaf { next, .. } = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                *next = Some(right);
                self.splits += 1;
                Some((sep, right))
            }
            Some(child_id) => {
                let split = self.insert_rec(child_id, entry)?;
                let order = self.order;
                let (sep, right) = split;
                let Node::Internal { seps, children } = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                let idx = seps.partition_point(|s| *s <= sep);
                seps.insert(idx, sep);
                children.insert(idx + 1, right);
                if seps.len() <= order {
                    return None;
                }
                // Split internal: middle separator moves up.
                let mid = seps.len() / 2;
                let promoted = seps[mid].clone();
                let right_seps = split_off_full(seps, mid + 1, order + 1);
                seps.pop(); // remove promoted
                let right_children = split_off_full(children, mid + 1, order + 2);
                let right = self.alloc(Node::Internal {
                    seps: right_seps,
                    children: right_children,
                });
                self.splits += 1;
                Some((promoted, right))
            }
        }
    }

    fn find_leaf(&self, probe: &Entry) -> u32 {
        let mut n = self.root;
        loop {
            match &self.nodes[n as usize] {
                Node::Leaf { .. } => return n,
                Node::Internal { seps, children } => {
                    let idx = seps.partition_point(|s| s <= probe);
                    n = children[idx];
                }
            }
        }
    }

    /// `true` if any entry has exactly this key.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.get_first(key).is_some()
    }

    /// The payload of the first entry with this key, if any.
    pub fn get_first(&self, key: &Key) -> Option<Payload> {
        let probe = (key.clone(), 0u64);
        let mut leaf = self.find_leaf(&probe);
        loop {
            let Node::Leaf { entries, next } = &self.nodes[leaf as usize] else {
                unreachable!()
            };
            let pos = entries.partition_point(|e| *e < probe);
            if pos < entries.len() {
                return if entries[pos].0 == *key {
                    Some(entries[pos].1)
                } else {
                    None
                };
            }
            // Probe landed past the end of this leaf; the key, if present,
            // is the first entry of the next leaf.
            match next {
                Some(n) => leaf = *n,
                None => return None,
            }
        }
    }

    /// All payloads with keys in the inclusive range `[lo, hi]`, in order.
    pub fn range(&self, lo: &Key, hi: &Key) -> Vec<(Key, Payload)> {
        let mut out = Vec::new();
        if lo > hi || self.len == 0 {
            return out;
        }
        let probe = (lo.clone(), 0u64);
        let mut leaf = self.find_leaf(&probe);
        let mut started = false;
        loop {
            let Node::Leaf { entries, next } = &self.nodes[leaf as usize] else {
                unreachable!()
            };
            let start = if started {
                0
            } else {
                entries.partition_point(|e| e < &probe)
            };
            started = true;
            for e in &entries[start..] {
                if e.0 > *hi {
                    return out;
                }
                out.push(e.clone());
            }
            match next {
                Some(n) => leaf = *n,
                None => return out,
            }
        }
    }

    /// All payloads with exactly this key.
    pub fn get_all(&self, key: &Key) -> Vec<Payload> {
        self.range(key, key).into_iter().map(|(_, p)| p).collect()
    }

    /// Remove the entry `(key, payload)` if present. Lazy: no rebalancing.
    pub fn remove(&mut self, key: &Key, payload: Payload) -> bool {
        let probe = (key.clone(), payload);
        let leaf = self.find_leaf(&probe);
        let Node::Leaf { entries, .. } = &mut self.nodes[leaf as usize] else {
            unreachable!()
        };
        match entries.binary_search_by(|e| e.cmp(&probe)) {
            Ok(pos) => {
                entries.remove(pos);
                self.len -= 1;
                self.mark_dirty(leaf);
                true
            }
            Err(_) => false,
        }
    }

    /// The key of the first entry whose payload is `payload`, found by a
    /// full leaf-chain walk.
    ///
    /// This is the quarantine path: when a heap row's stored bytes have
    /// rotted, the row can no longer be decoded to compute its index keys —
    /// but the index entry that *points at* the row was written before the
    /// rot and is still trustworthy. O(n); acceptable because it runs only
    /// for rows the scrubber has already condemned.
    pub fn key_for_row(&self, payload: Payload) -> Option<Key> {
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n as usize] {
            n = children[0];
        }
        let mut leaf = Some(n);
        while let Some(l) = leaf {
            let Node::Leaf { entries, next } = &self.nodes[l as usize] else {
                unreachable!()
            };
            if let Some((k, _)) = entries.iter().find(|(_, p)| *p == payload) {
                return Some(k.clone());
            }
            leaf = *next;
        }
        None
    }

    /// Remove the first entry whose payload is `payload`, returning its key.
    /// The companion of [`BPlusTree::key_for_row`] for de-indexing a row
    /// whose heap bytes can no longer be decoded. O(n), lazy (no
    /// rebalancing), quarantine-only.
    pub fn remove_payload(&mut self, payload: Payload) -> Option<Key> {
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n as usize] {
            n = children[0];
        }
        let mut leaf = Some(n);
        while let Some(l) = leaf {
            let Node::Leaf { entries, next } = &self.nodes[l as usize] else {
                unreachable!()
            };
            if let Some(pos) = entries.iter().position(|(_, p)| *p == payload) {
                let Node::Leaf { entries, .. } = &mut self.nodes[l as usize] else {
                    unreachable!()
                };
                let (k, _) = entries.remove(pos);
                self.len -= 1;
                self.mark_dirty(l);
                return Some(k);
            }
            leaf = *next;
        }
        None
    }

    /// Build a tree from entries **sorted by (key, payload)**, packing
    /// leaves to ~90% fill. Used for delayed index rebuild (§4.5.1).
    ///
    /// # Panics
    /// Panics (in debug builds) if the input is not sorted, and returns an
    /// invalid tree otherwise — callers sort first.
    pub fn bulk_build(unique: bool, order: usize, entries: Vec<Entry>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "bulk_build requires sorted input"
        );
        let mut tree = BPlusTree::new(unique, order);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len() as u64;
        tree.nodes.clear();
        tree.dirty.clear();

        let per_leaf = ((order * 9) / 10).max(2);
        // Build leaves.
        let mut level: Vec<(Entry, u32)> = Vec::new(); // (first entry, node id)
        let mut prev_leaf: Option<u32> = None;
        for chunk in entries.chunks(per_leaf) {
            let first = chunk[0].clone();
            let id = tree.nodes.len() as u32;
            tree.nodes.push(Node::Leaf {
                entries: chunk.to_vec(),
                next: None,
            });
            tree.dirty.insert(id);
            if let Some(prev) = prev_leaf {
                let Node::Leaf { next, .. } = &mut tree.nodes[prev as usize] else {
                    unreachable!()
                };
                *next = Some(id);
            }
            prev_leaf = Some(id);
            level.push((first, id));
        }

        // Build internal levels until a single root remains.
        let per_node = per_leaf;
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(per_node + 1) {
                let first = group[0].0.clone();
                let children: Vec<u32> = group.iter().map(|(_, id)| *id).collect();
                let seps: Vec<Entry> = group[1..].iter().map(|(e, _)| e.clone()).collect();
                let id = tree.nodes.len() as u32;
                tree.nodes.push(Node::Internal { seps, children });
                tree.dirty.insert(id);
                next_level.push((first, id));
            }
            level = next_level;
        }
        tree.root = level[0].1;
        tree
    }

    /// Verify structural invariants; used by property tests.
    ///
    /// Checks: entries sorted within nodes, separators bound their subtrees,
    /// all leaves at equal depth, leaf chain visits every entry in order.
    pub fn validate(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        self.validate_rec(self.root, None, None, 1, &mut leaf_depths)?;
        if leaf_depths.windows(2).any(|w| w[0] != w[1]) {
            return Err("leaves at unequal depths".into());
        }
        // Walk the leaf chain and confirm global ordering + count.
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n as usize] {
            n = children[0];
        }
        let mut count = 0u64;
        let mut last: Option<Entry> = None;
        let mut leaf = Some(n);
        while let Some(l) = leaf {
            let Node::Leaf { entries, next } = &self.nodes[l as usize] else {
                return Err("leaf chain reached internal node".into());
            };
            for e in entries {
                if let Some(prev) = &last {
                    if prev > e {
                        return Err(format!("leaf chain out of order near {:?}", e.0));
                    }
                }
                last = Some(e.clone());
                count += 1;
            }
            leaf = *next;
        }
        if count != self.len {
            return Err(format!("len {} != chain count {count}", self.len));
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        node: u32,
        lo: Option<&Entry>,
        hi: Option<&Entry>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) -> Result<(), String> {
        match &self.nodes[node as usize] {
            Node::Leaf { entries, .. } => {
                for w in entries.windows(2) {
                    if w[0] > w[1] {
                        return Err("unsorted leaf".into());
                    }
                }
                for e in entries {
                    if let Some(lo) = lo {
                        if e < lo {
                            return Err("leaf entry below lower bound".into());
                        }
                    }
                    if let Some(hi) = hi {
                        if e >= hi {
                            return Err("leaf entry at/above upper bound".into());
                        }
                    }
                }
                leaf_depths.push(depth);
                Ok(())
            }
            Node::Internal { seps, children } => {
                if children.len() != seps.len() + 1 {
                    return Err("internal arity mismatch".into());
                }
                for w in seps.windows(2) {
                    if w[0] > w[1] {
                        return Err("unsorted separators".into());
                    }
                }
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let child_hi = if i == seps.len() { hi } else { Some(&seps[i]) };
                    self.validate_rec(child, child_lo, child_hi, depth + 1, leaf_depths)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn ikey(i: i64) -> Key {
        Key(vec![Value::Int(i)])
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = BPlusTree::new(true, 4);
        for i in 0..100 {
            t.insert(ikey(i), i as u64).unwrap();
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() > 1);
        for i in 0..100 {
            assert_eq!(t.get_first(&ikey(i)), Some(i as u64), "missing key {i}");
        }
        assert_eq!(t.get_first(&ikey(100)), None);
        t.validate().unwrap();
    }

    #[test]
    fn split_nodes_are_allocated_at_full_size() {
        let order = 8;
        let mut t = BPlusTree::new(false, order);
        // Ascending keys split 90-10, scattered ones 50-50.
        for i in 0..200 {
            t.insert(ikey(i), i as u64).unwrap();
            t.insert(ikey((i * 7919) % 1000 + 1000), i as u64).unwrap();
        }
        assert!(t.height() > 2, "internal nodes split too");
        for (id, node) in t.nodes.iter().enumerate() {
            match node {
                Node::Leaf { entries, .. } => assert!(entries.capacity() > order, "leaf {id}"),
                Node::Internal { seps, children } if id as u32 != t.root => {
                    assert!(seps.capacity() > order, "node {id}");
                    assert!(children.capacity() > order + 1, "node {id}");
                }
                Node::Internal { .. } => {}
            }
        }
        t.validate().unwrap();
    }

    #[test]
    fn unique_rejects_duplicates() {
        let mut t = BPlusTree::new(true, 8);
        t.insert(ikey(1), 10).unwrap();
        assert_eq!(t.insert(ikey(1), 20), Err(DuplicateKey(10)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_keys_bypass_uniqueness() {
        let mut t = BPlusTree::new(true, 8);
        let nk = Key(vec![Value::Null]);
        t.insert(nk.clone(), 1).unwrap();
        t.insert(nk.clone(), 2).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn non_unique_allows_duplicates_and_get_all() {
        let mut t = BPlusTree::new(false, 4);
        for p in 0..10u64 {
            t.insert(ikey(7), p).unwrap();
        }
        t.insert(ikey(3), 100).unwrap();
        let all = t.get_all(&ikey(7));
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        t.validate().unwrap();
    }

    #[test]
    fn range_scan_inclusive() {
        let mut t = BPlusTree::new(true, 4);
        for i in (0..200).step_by(2) {
            t.insert(ikey(i), i as u64).unwrap();
        }
        let hits = t.range(&ikey(10), &ikey(20));
        let keys: Vec<i64> = hits.iter().map(|(k, _)| k.0[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
        assert!(t.range(&ikey(21), &ikey(21)).is_empty());
        assert!(t.range(&ikey(30), &ikey(10)).is_empty());
    }

    #[test]
    fn reverse_and_random_order_inserts_stay_valid() {
        let mut t = BPlusTree::new(true, 4);
        for i in (0..500).rev() {
            t.insert(ikey(i), i as u64).unwrap();
        }
        t.validate().unwrap();
        assert_eq!(t.len(), 500);
        // Interleave from both ends.
        let mut t2 = BPlusTree::new(true, 4);
        for i in 0..250 {
            t2.insert(ikey(i), 0).unwrap();
            t2.insert(ikey(999 - i), 0).unwrap();
        }
        t2.validate().unwrap();
    }

    #[test]
    fn remove_is_lazy_but_correct() {
        let mut t = BPlusTree::new(false, 4);
        for i in 0..50 {
            t.insert(ikey(i), i as u64).unwrap();
        }
        assert!(t.remove(&ikey(25), 25));
        assert!(!t.remove(&ikey(25), 25));
        assert!(!t.remove(&ikey(999), 0));
        assert_eq!(t.len(), 49);
        assert_eq!(t.get_first(&ikey(25)), None);
        t.validate().unwrap();
    }

    #[test]
    fn key_for_row_and_remove_payload_walk_the_chain() {
        let mut t = BPlusTree::new(true, 4);
        for i in 0..200 {
            t.insert(ikey(i), 1000 + i as u64).unwrap();
        }
        assert_eq!(t.key_for_row(1123), Some(ikey(123)));
        assert_eq!(t.key_for_row(99), None);
        assert_eq!(t.remove_payload(1123), Some(ikey(123)));
        assert_eq!(t.len(), 199);
        assert_eq!(t.get_first(&ikey(123)), None);
        assert_eq!(t.remove_payload(1123), None, "already removed");
        t.validate().unwrap();
    }

    #[test]
    fn sequential_inserts_split_less_than_random() {
        // Presort ablation (A4) in miniature: right-edge inserts produce a
        // packed tree; shuffled inserts produce more, half-full nodes.
        let n = 2000i64;
        let mut seq = BPlusTree::new(true, 32);
        for i in 0..n {
            seq.insert(ikey(i), 0).unwrap();
        }
        let mut rng = 0x12345u64;
        let mut order: Vec<i64> = (0..n).collect();
        // xorshift shuffle
        for i in (1..order.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            order.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        let mut rnd = BPlusTree::new(true, 32);
        for i in order {
            rnd.insert(ikey(i), 0).unwrap();
        }
        assert!(
            rnd.node_count() > seq.node_count(),
            "random {} nodes should exceed sequential {}",
            rnd.node_count(),
            seq.node_count()
        );
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let entries: Vec<Entry> = (0..1000).map(|i| (ikey(i), i as u64)).collect();
        let t = BPlusTree::bulk_build(true, 32, entries);
        t.validate().unwrap();
        assert_eq!(t.len(), 1000);
        for i in (0..1000).step_by(37) {
            assert_eq!(t.get_first(&ikey(i)), Some(i as u64));
        }
        let hits = t.range(&ikey(100), &ikey(110));
        assert_eq!(hits.len(), 11);
    }

    #[test]
    fn bulk_build_empty_and_single() {
        let t = BPlusTree::bulk_build(true, 8, vec![]);
        assert!(t.is_empty());
        t.validate().unwrap();
        let t1 = BPlusTree::bulk_build(true, 8, vec![(ikey(5), 50)]);
        assert_eq!(t1.get_first(&ikey(5)), Some(50));
        t1.validate().unwrap();
    }

    #[test]
    fn dirty_tracking_drains() {
        let mut t = BPlusTree::new(true, 4);
        for i in 0..100 {
            t.insert(ikey(i), 0).unwrap();
        }
        let d1 = t.take_dirty();
        assert!(d1 > 0);
        assert_eq!(t.take_dirty(), 0);
        t.insert(ikey(1000), 0).unwrap();
        assert!(t.take_dirty() >= 1);
    }

    #[test]
    fn wider_keys_lower_fanout() {
        assert!(order_for_key_width(9) > order_for_key_width(27));
        assert_eq!(order_for_key_width(100_000), 8); // clamped
    }

    #[test]
    fn composite_float_keys() {
        let mut t = BPlusTree::new(false, 8);
        let k = |a: f64, b: f64, c: f64| Key(vec![a.into(), b.into(), c.into()]);
        t.insert(k(1.0, 2.0, 3.0), 1).unwrap();
        t.insert(k(1.0, 2.0, 2.0), 2).unwrap();
        t.insert(k(0.5, 9.0, 9.0), 3).unwrap();
        let hits = t.range(&k(0.0, 0.0, 0.0), &k(1.0, 2.0, 2.5));
        assert_eq!(hits.len(), 2);
        t.validate().unwrap();
    }
}
