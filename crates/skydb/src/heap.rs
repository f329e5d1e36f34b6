//! Table heap storage: slotted pages of encoded rows.
//!
//! Loading is append-only (the paper's workload never updates in place), so
//! the heap is a sequence of fixed-capacity pages filled front to back.
//! Rows are stored *encoded* (the same byte format as the wire protocol and
//! the WAL), so inserting really pays serialization and page-copy costs.
//!
//! Deletion exists only as tombstoning, used to (a) undo the heap append
//! when a later constraint in the same insert fails and (b) roll back
//! uncommitted transactions and (c) quarantine rows whose stored bytes have
//! rotted.
//!
//! **At-rest integrity:** every stored row is framed as
//! `[4-byte LE CRC-32][encoded row]`. [`TableHeap::get`] and
//! [`TableHeap::scan`] strip the prefix; the verified accessors
//! ([`TableHeap::get_checked`], [`TableHeap::scan_checked`]) recompute the
//! CRC so a flipped bit in a stored page is *detected* rather than decoded
//! into plausible-looking garbage and served.

use crate::crc::crc32;
use crate::schema::TableId;

/// Usable payload bytes per heap page (8 KiB, the classic Oracle block).
pub const PAGE_BYTES: usize = 8192;

/// Bytes of CRC framing prepended to each stored row.
pub const ROW_CRC_BYTES: usize = 4;

/// Address of a row: packed `(page << 16) | slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(u64);

impl RowId {
    /// Construct from page and slot numbers.
    #[inline]
    pub fn new(page: u32, slot: u16) -> Self {
        RowId(((page as u64) << 16) | slot as u64)
    }

    /// The page number.
    #[inline]
    pub fn page(self) -> u32 {
        (self.0 >> 16) as u32
    }

    /// The slot within the page.
    #[inline]
    pub fn slot(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// The packed representation (B+-tree payload).
    #[inline]
    pub fn packed(self) -> u64 {
        self.0
    }

    /// Rebuild from a packed representation.
    #[inline]
    pub fn from_packed(p: u64) -> Self {
        RowId(p)
    }
}

/// One heap page: a slot directory of encoded rows.
#[derive(Debug, Default)]
pub struct Page {
    rows: Vec<Option<Box<[u8]>>>,
    bytes: usize,
}

impl Page {
    /// `true` if `len` more bytes fit on this page.
    #[inline]
    fn fits(&self, len: usize) -> bool {
        self.bytes + len <= PAGE_BYTES
    }

    /// Bytes currently used.
    pub fn bytes_used(&self) -> usize {
        self.bytes
    }

    /// Live (non-tombstoned) rows on this page.
    pub fn live_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }
}

/// The heap of one table.
#[derive(Debug)]
pub struct TableHeap {
    table: TableId,
    pages: Vec<Page>,
    live_rows: u64,
}

/// Outcome of a heap insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapInsert {
    /// Where the row landed.
    pub row_id: RowId,
    /// `true` if the insert allocated a fresh page.
    pub new_page: bool,
}

impl TableHeap {
    /// An empty heap for `table`.
    pub fn new(table: TableId) -> Self {
        TableHeap {
            table,
            pages: Vec::new(),
            live_rows: 0,
        }
    }

    /// The owning table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Append an encoded row, framing it with a CRC-32 prefix.
    ///
    /// # Panics
    /// Panics if a single framed row exceeds [`PAGE_BYTES`] — the catalog
    /// schema guarantees rows are far smaller.
    pub fn insert(&mut self, encoded: Box<[u8]>) -> HeapInsert {
        assert!(
            encoded.len() + ROW_CRC_BYTES <= PAGE_BYTES,
            "row of {} bytes exceeds page capacity",
            encoded.len()
        );
        let mut stored = Vec::with_capacity(ROW_CRC_BYTES + encoded.len());
        stored.extend_from_slice(&crc32(&encoded).to_le_bytes());
        stored.extend_from_slice(&encoded);
        let stored = stored.into_boxed_slice();
        let new_page = match self.pages.last() {
            Some(p) if p.fits(stored.len()) && p.rows.len() < u16::MAX as usize => false,
            _ => {
                // Size the slot directory like the page before it, so that
                // filling the page does not reallocate it (see `Wal::new`
                // for why concurrent loaders care).
                let slots = self.pages.last().map_or(0, |p| p.rows.len());
                self.pages.push(Page {
                    rows: Vec::with_capacity(slots),
                    bytes: 0,
                });
                true
            }
        };
        let page_no = (self.pages.len() - 1) as u32;
        let page = self.pages.last_mut().expect("page just ensured");
        let slot = page.rows.len() as u16;
        page.bytes += stored.len();
        page.rows.push(Some(stored));
        self.live_rows += 1;
        HeapInsert {
            row_id: RowId::new(page_no, slot),
            new_page,
        }
    }

    /// The raw stored slot (CRC prefix + payload), if live.
    #[inline]
    fn stored(&self, rid: RowId) -> Option<&[u8]> {
        self.pages
            .get(rid.page() as usize)?
            .rows
            .get(rid.slot() as usize)?
            .as_deref()
    }

    /// Fetch an encoded row, if present and not tombstoned. The CRC prefix
    /// is stripped but **not** verified — internal bookkeeping paths (undo,
    /// rollback) use this; anything that serves a reader must go through
    /// [`TableHeap::get_checked`].
    pub fn get(&self, rid: RowId) -> Option<&[u8]> {
        self.stored(rid).map(|r| &r[ROW_CRC_BYTES..])
    }

    /// Fetch an encoded row and verify its CRC. `None` — no such live row;
    /// `Some(Err(()))` — the row exists but its stored bytes fail the CRC
    /// (bit-rot); `Some(Ok(payload))` — intact.
    pub fn get_checked(&self, rid: RowId) -> Option<Result<&[u8], ()>> {
        self.stored(rid).map(Self::check)
    }

    #[inline]
    fn check(stored: &[u8]) -> Result<&[u8], ()> {
        let (prefix, payload) = stored.split_at(ROW_CRC_BYTES);
        let stored_crc = u32::from_le_bytes(prefix.try_into().expect("4-byte prefix"));
        if crc32(payload) == stored_crc {
            Ok(payload)
        } else {
            Err(())
        }
    }

    /// Tombstone a row, returning `true` if it existed.
    pub fn delete(&mut self, rid: RowId) -> bool {
        let Some(slot) = self
            .pages
            .get_mut(rid.page() as usize)
            .and_then(|p| p.rows.get_mut(rid.slot() as usize))
        else {
            return false;
        };
        if let Some(row) = slot.take() {
            self.pages[rid.page() as usize].bytes -= row.len();
            self.live_rows -= 1;
            true
        } else {
            false
        }
    }

    /// Iterate `(row_id, encoded_row)` over live rows in heap order (CRC
    /// prefix stripped, not verified — see [`TableHeap::scan_checked`]).
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[u8])> + '_ {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            page.rows.iter().enumerate().filter_map(move |(s, row)| {
                row.as_deref()
                    .map(|r| (RowId::new(pno as u32, s as u16), &r[ROW_CRC_BYTES..]))
            })
        })
    }

    /// Iterate live rows in heap order, verifying each row's CRC.
    /// `Err(())` marks a rotted row; the caller decides whether to error
    /// (committed reads) or quarantine (the scrubber).
    pub fn scan_checked(&self) -> impl Iterator<Item = (RowId, Result<&[u8], ()>)> + '_ {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            page.rows.iter().enumerate().filter_map(move |(s, row)| {
                row.as_deref()
                    .map(|r| (RowId::new(pno as u32, s as u16), Self::check(r)))
            })
        })
    }

    /// Chaos hook: flip one bit of a stored row's *payload* in place — the
    /// modeled equivalent of media rot in a heap page. The CRC prefix is
    /// left intact, so the damage is detectable but the stored checksum no
    /// longer matches. Returns `false` if the row is absent or tombstoned.
    pub fn corrupt_row(&mut self, rid: RowId, byte: usize, bit: u8) -> bool {
        let Some(slot) = self
            .pages
            .get_mut(rid.page() as usize)
            .and_then(|p| p.rows.get_mut(rid.slot() as usize))
        else {
            return false;
        };
        let Some(row) = slot.as_deref_mut() else {
            return false;
        };
        let payload_len = row.len() - ROW_CRC_BYTES;
        if payload_len == 0 {
            return false;
        }
        row[ROW_CRC_BYTES + byte % payload_len] ^= 1 << (bit & 7);
        true
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.live_rows
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes of live row data as stored (including the per-row CRC
    /// framing).
    pub fn bytes_used(&self) -> usize {
        self.pages.iter().map(|p| p.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize) -> Box<[u8]> {
        vec![0xAB; n].into_boxed_slice()
    }

    #[test]
    fn rowid_packing_roundtrips() {
        let r = RowId::new(123_456, 789);
        assert_eq!(r.page(), 123_456);
        assert_eq!(r.slot(), 789);
        assert_eq!(RowId::from_packed(r.packed()), r);
    }

    #[test]
    fn insert_fills_then_allocates() {
        let mut h = TableHeap::new(TableId(0));
        let first = h.insert(row(4000));
        assert!(first.new_page);
        let second = h.insert(row(4000));
        assert!(!second.new_page, "4000+4000 <= 8192 fits one page");
        let third = h.insert(row(4000));
        assert!(third.new_page, "8000+4000 overflows");
        assert_eq!(h.page_count(), 2);
        assert_eq!(h.row_count(), 3);
        assert_eq!(third.row_id.page(), 1);
        assert_eq!(third.row_id.slot(), 0);
    }

    #[test]
    fn a_new_page_reserves_the_slots_of_the_one_before() {
        let mut h = TableHeap::new(TableId(0));
        while h.page_count() < 3 {
            h.insert(row(60));
        }
        let before = h.pages[1].rows.len();
        assert!(before > 100, "a page holds many small rows");
        assert!(h.pages[2].rows.capacity() >= before);
    }

    #[test]
    fn get_and_delete() {
        let mut h = TableHeap::new(TableId(0));
        let a = h.insert(row(10)).row_id;
        let b = h.insert(row(20)).row_id;
        assert_eq!(h.get(a).unwrap().len(), 10);
        assert!(h.delete(a));
        assert!(!h.delete(a), "double delete");
        assert!(h.get(a).is_none());
        assert_eq!(h.get(b).unwrap().len(), 20);
        assert_eq!(h.row_count(), 1);
        assert!(!h.delete(RowId::new(99, 0)), "missing page");
    }

    #[test]
    fn scan_skips_tombstones_in_order() {
        let mut h = TableHeap::new(TableId(0));
        let ids: Vec<RowId> = (0..10).map(|i| h.insert(row(i + 1)).row_id).collect();
        h.delete(ids[3]);
        h.delete(ids[7]);
        let seen: Vec<usize> = h.scan().map(|(_, r)| r.len()).collect();
        assert_eq!(seen, vec![1, 2, 3, 5, 6, 7, 9, 10]);
    }

    #[test]
    fn bytes_used_tracks_deletes() {
        let mut h = TableHeap::new(TableId(0));
        let a = h.insert(row(100)).row_id;
        h.insert(row(50));
        // Stored size includes the 4-byte CRC frame per row.
        assert_eq!(h.bytes_used(), 150 + 2 * ROW_CRC_BYTES);
        h.delete(a);
        assert_eq!(h.bytes_used(), 50 + ROW_CRC_BYTES);
    }

    #[test]
    fn checked_reads_catch_every_payload_bit_flip() {
        let mut h = TableHeap::new(TableId(0));
        let rid = h.insert((*b"integrity").to_vec().into_boxed_slice()).row_id;
        assert_eq!(h.get_checked(rid), Some(Ok(&b"integrity"[..])));
        for byte in 0..9 {
            for bit in 0..8 {
                assert!(h.corrupt_row(rid, byte, bit));
                assert_eq!(h.get_checked(rid), Some(Err(())), "flip {byte}:{bit}");
                // Unverified accessors still serve the (wrong) bytes — that
                // is exactly why readers must use the checked paths.
                assert!(h.get(rid).is_some());
                assert!(h.corrupt_row(rid, byte, bit), "flip back");
            }
        }
        assert_eq!(h.get_checked(rid), Some(Ok(&b"integrity"[..])));
        let bad: Vec<RowId> = h
            .scan_checked()
            .filter_map(|(r, c)| c.is_err().then_some(r))
            .collect();
        assert!(bad.is_empty());
        h.corrupt_row(rid, 3, 2);
        let bad: Vec<RowId> = h
            .scan_checked()
            .filter_map(|(r, c)| c.is_err().then_some(r))
            .collect();
        assert_eq!(bad, vec![rid]);
    }

    #[test]
    fn corrupt_row_rejects_missing_and_tombstoned() {
        let mut h = TableHeap::new(TableId(0));
        let rid = h.insert(row(8)).row_id;
        assert!(!h.corrupt_row(RowId::new(5, 0), 0, 0));
        h.delete(rid);
        assert!(!h.corrupt_row(rid, 0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_row_panics() {
        let mut h = TableHeap::new(TableId(0));
        h.insert(row(PAGE_BYTES + 1));
    }
}
