//! Redo/undo write-ahead log.
//!
//! §4.5.2: *"A commit command in data loading permanently writes the loaded
//! data to the database. The RDBMS must perform a considerable amount of
//! processing when a transaction commits, but infrequent commits can lead to
//! large redo and undo logs…"*
//!
//! Every insert appends a redo record to an in-memory log buffer; the buffer
//! is flushed to the log device when it fills and — synchronously, with a
//! barrier — on every commit. That makes commit frequency a real cost knob
//! (ablation A3) and gives crash recovery something honest to replay:
//! [`recover`] scans the durable log and returns the inserts of committed
//! transactions, in order.

use bytes::{Buf, BufMut, BytesMut};
use parking_lot::Mutex;

use skyobs::{CounterHandle, Registry};
use skysim::disk::{Access, DiskDevice};

use crate::crc::crc32;
use crate::error::{DbError, DbResult};
use crate::heap::PAGE_BYTES;
use crate::schema::TableId;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Transaction start.
    Begin(TxnId),
    /// A row insert: the encoded row destined for `table`.
    Insert {
        /// Owning transaction.
        txn: TxnId,
        /// Destination table.
        table: TableId,
        /// Encoded row payload (same format as the wire/page encoding).
        row: Box<[u8]>,
    },
    /// A row delete, identified by its encoded primary-key values.
    Delete {
        /// Owning transaction.
        txn: TxnId,
        /// Table deleted from.
        table: TableId,
        /// Encoded primary-key values (as a row).
        pk: Box<[u8]>,
    },
    /// Transaction commit (durability point).
    Commit(TxnId),
    /// Transaction rollback.
    Rollback(TxnId),
}

impl LogRecord {
    /// Encode the record followed by a 4-byte CRC-32 trailer over its bytes.
    /// The trailer means a redo scan never has to trust the length framing:
    /// a flipped bit anywhere in the record (including the length field)
    /// fails the CRC and replay stops at the last intact prefix.
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        self.encode_body(buf);
        let crc = crc32(&buf[start..]);
        buf.put_u32_le(crc);
    }

    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            LogRecord::Begin(t) => {
                buf.put_u8(1);
                buf.put_u64_le(t.0);
            }
            LogRecord::Insert { txn, table, row } => {
                buf.put_u8(2);
                buf.put_u64_le(txn.0);
                buf.put_u32_le(table.0);
                buf.put_u32_le(row.len() as u32);
                buf.put_slice(row);
            }
            LogRecord::Commit(t) => {
                buf.put_u8(3);
                buf.put_u64_le(t.0);
            }
            LogRecord::Rollback(t) => {
                buf.put_u8(4);
                buf.put_u64_le(t.0);
            }
            LogRecord::Delete { txn, table, pk } => {
                buf.put_u8(5);
                buf.put_u64_le(txn.0);
                buf.put_u32_le(table.0);
                buf.put_u32_le(pk.len() as u32);
                buf.put_slice(pk);
            }
        }
    }

    /// Decode one record and verify its CRC trailer. Truncation (not enough
    /// bytes left) is a [`DbError::Protocol`] — the normal torn-tail case; a
    /// present-but-wrong CRC is [`DbError::DataCorruption`] — rot.
    fn decode(buf: &mut &[u8]) -> DbResult<LogRecord> {
        let start: &[u8] = buf;
        let rec = Self::decode_body(buf)?;
        let consumed = start.len() - buf.len();
        if buf.remaining() < 4 {
            return Err(DbError::Protocol("truncated log record crc".into()));
        }
        let stored = buf.get_u32_le();
        let computed = crc32(&start[..consumed]);
        if stored != computed {
            return Err(DbError::DataCorruption(format!(
                "wal record crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        Ok(rec)
    }

    fn decode_body(buf: &mut impl Buf) -> DbResult<LogRecord> {
        if buf.remaining() < 9 {
            return Err(DbError::Protocol("truncated log record".into()));
        }
        let tag = buf.get_u8();
        let txn = TxnId(buf.get_u64_le());
        match tag {
            1 => Ok(LogRecord::Begin(txn)),
            2 => {
                if buf.remaining() < 8 {
                    return Err(DbError::Protocol("truncated insert record".into()));
                }
                let table = TableId(buf.get_u32_le());
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(DbError::Protocol("truncated insert payload".into()));
                }
                let mut row = vec![0u8; len];
                buf.copy_to_slice(&mut row);
                Ok(LogRecord::Insert {
                    txn,
                    table,
                    row: row.into_boxed_slice(),
                })
            }
            3 => Ok(LogRecord::Commit(txn)),
            4 => Ok(LogRecord::Rollback(txn)),
            5 => {
                if buf.remaining() < 8 {
                    return Err(DbError::Protocol("truncated delete record".into()));
                }
                let table = TableId(buf.get_u32_le());
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(DbError::Protocol("truncated delete payload".into()));
                }
                let mut pk = vec![0u8; len];
                buf.copy_to_slice(&mut pk);
                Ok(LogRecord::Delete {
                    txn,
                    table,
                    pk: pk.into_boxed_slice(),
                })
            }
            t => Err(DbError::Protocol(format!("unknown log tag {t}"))),
        }
    }
}

#[derive(Debug, Default)]
struct WalBuffers {
    /// Records not yet on the log device.
    pending: BytesMut,
    /// The durable log (what survives a crash).
    durable: Vec<u8>,
    /// A crash tore a flush: nothing more reaches the device, and no
    /// later commit may be acknowledged.
    torn: bool,
}

/// The write-ahead log of one engine.
#[derive(Debug)]
pub struct Wal {
    buffers: Mutex<WalBuffers>,
    buffer_capacity: usize,
    flushes: CounterHandle,
    bytes_flushed: CounterHandle,
    records: CounterHandle,
    fsyncs: CounterHandle,
}

impl Wal {
    /// A WAL whose in-memory buffer holds `buffer_capacity` bytes before an
    /// automatic background flush. Counters are registered in `obs` under
    /// `wal.*`.
    pub fn new(buffer_capacity: usize, obs: &Registry) -> Self {
        let buffer_capacity = buffer_capacity.max(PAGE_BYTES);
        Wal {
            // The buffer is allocated once, with room for the record that
            // crosses the flush threshold, and kept across flushes. Grown
            // piecemeal instead, it is reallocated by whichever session
            // appends next, and glibc reallocates a block under the lock
            // of the thread that allocated it: concurrent loaders then put
            // each other to sleep in the allocator.
            buffers: Mutex::new(WalBuffers {
                pending: BytesMut::with_capacity(buffer_capacity + PAGE_BYTES),
                ..WalBuffers::default()
            }),
            buffer_capacity,
            flushes: obs.counter("wal.flushes"),
            bytes_flushed: obs.counter("wal.bytes_flushed"),
            records: obs.counter("wal.records"),
            fsyncs: obs.counter("wal.fsyncs"),
        }
    }

    /// Append a record; flushes to `log_dev` if the buffer is full.
    /// Returns the log offset just past the record.
    pub fn append(&self, rec: &LogRecord, log_dev: &DiskDevice) -> usize {
        let mut bufs = self.buffers.lock();
        rec.encode(&mut bufs.pending);
        self.records.inc();
        let end = bufs.durable.len() + bufs.pending.len();
        if bufs.pending.len() >= self.buffer_capacity {
            self.flush_locked(&mut bufs, log_dev, false);
        }
        end
    }

    /// Synchronously flush the buffer with a barrier (commit path). Fails
    /// once a crash has torn the log: a record appended after the torn
    /// flush began can never become durable, so its commit must not be
    /// acknowledged.
    pub fn flush_sync(&self, log_dev: &DiskDevice) -> DbResult<()> {
        let mut bufs = self.buffers.lock();
        if bufs.torn {
            return Err(DbError::ServerDown(
                "the log was torn by a crash; recover from the durable log".into(),
            ));
        }
        self.flush_locked(&mut bufs, log_dev, true);
        Ok(())
    }

    fn flush_locked(&self, bufs: &mut WalBuffers, log_dev: &DiskDevice, barrier: bool) {
        let WalBuffers {
            pending,
            durable,
            torn,
        } = bufs;
        if *torn {
            pending.clear();
            return;
        }
        if !pending.is_empty() {
            let pages = pending.len().div_ceil(PAGE_BYTES) as u64;
            log_dev.write_run(pages, Access::Sequential);
            self.flushes.inc();
            self.bytes_flushed.add(pending.len() as u64);
            durable.extend_from_slice(pending);
            pending.clear();
        }
        if barrier {
            self.fsyncs.inc();
            log_dev.sync();
        }
    }

    /// A flush interrupted by a crash: the buffered bytes reach the device
    /// only up to `torn_tail` bytes short of log offset `upto` (the end of
    /// the crashing commit's record, as [`Wal::append`] returned it),
    /// cutting that record mid-encode. Records other sessions appended
    /// after it never reach the device. [`decode_log`] discards the
    /// truncated record on recovery, exactly as a real redo scan does.
    ///
    /// No barrier is issued: the crash happens before the sync completes,
    /// and the log stays torn — every later [`Wal::flush_sync`] fails.
    pub fn flush_torn(&self, log_dev: &DiskDevice, upto: usize, torn_tail: usize) {
        let mut bufs = self.buffers.lock();
        let pending = bufs.pending.split();
        let already_torn = std::mem::replace(&mut bufs.torn, true);
        if pending.is_empty() || already_torn {
            return;
        }
        let keep = upto
            .saturating_sub(torn_tail)
            .saturating_sub(bufs.durable.len())
            .min(pending.len());
        let pages = pending.len().div_ceil(PAGE_BYTES) as u64;
        log_dev.write_run(pages, Access::Sequential);
        self.flushes.inc();
        self.bytes_flushed.add(keep as u64);
        bufs.durable.extend_from_slice(&pending[..keep]);
    }

    /// The durable portion of the log — what a crash would preserve.
    /// Unflushed buffer contents are intentionally *not* included.
    pub fn durable_log(&self) -> Vec<u8> {
        self.buffers.lock().durable.clone()
    }

    /// Chaos hook: flip one bit of the *durable* log in place — the modeled
    /// equivalent of media rot on the log device after the write barrier
    /// completed. Returns `false` (no-op) when `byte` is out of range.
    /// [`decode_log`] will stop at the damaged record on the next recovery.
    pub fn rot_durable_bit(&self, byte: usize, bit: u8) -> bool {
        let mut bufs = self.buffers.lock();
        match bufs.durable.get_mut(byte) {
            Some(b) => {
                *b ^= 1 << (bit & 7);
                true
            }
            None => false,
        }
    }

    /// Bytes currently durable (for seeding a rot offset).
    pub fn durable_len(&self) -> usize {
        self.buffers.lock().durable.len()
    }

    /// Log flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes.get()
    }

    /// Bytes made durable.
    pub fn bytes_flushed(&self) -> u64 {
        self.bytes_flushed.get()
    }

    /// Records appended (durable or not).
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Commit-path barriers issued.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.get()
    }
}

/// Decode a durable log into records, stopping cleanly at any truncated tail
/// (a crash mid-flush leaves a partial record; it is discarded, as in real
/// recovery) or at the first record whose CRC trailer fails (bit-rot: the
/// intact prefix is all that can be trusted).
pub fn decode_log(log: &[u8]) -> Vec<LogRecord> {
    decode_log_checked(log).0
}

/// Like [`decode_log`], but also reports whether the scan stopped because a
/// record's CRC failed (as opposed to reaching the end or a torn tail).
/// `true` means the durable log has *rotted* — the replayed prefix is
/// trustworthy but committed work after the bad record is lost and must be
/// re-derived from source files.
pub fn decode_log_checked(mut log: &[u8]) -> (Vec<LogRecord>, bool) {
    let mut out = Vec::new();
    let mut corrupt = false;
    while !log.is_empty() {
        match LogRecord::decode(&mut log) {
            Ok(rec) => out.push(rec),
            Err(e) => {
                corrupt = matches!(e, DbError::DataCorruption(_));
                break;
            }
        }
    }
    (out, corrupt)
}

/// One committed operation recovered from the log, in log order.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredOp {
    /// Re-apply an insert of the encoded row.
    Insert {
        /// Originating transaction.
        txn: TxnId,
        /// Destination table.
        table: TableId,
        /// Encoded row.
        row: Box<[u8]>,
    },
    /// Re-apply a delete by primary key.
    Delete {
        /// Originating transaction.
        txn: TxnId,
        /// Table deleted from.
        table: TableId,
        /// Encoded primary-key values.
        pk: Box<[u8]>,
    },
}

/// Redo scan: the committed operations of a durable log, in log order.
pub fn recover(log: &[u8]) -> Vec<RecoveredOp> {
    recover_checked(log).0
}

/// Redo scan that also reports whether the log was cut short by a CRC
/// failure (see [`decode_log_checked`]). Repair uses the flag to widen the
/// re-load set to every journalled file: with a rotted log, any file's tail
/// rows may be missing from the replayed state.
pub fn recover_checked(log: &[u8]) -> (Vec<RecoveredOp>, bool) {
    let (records, corrupt) = decode_log_checked(log);
    let committed: std::collections::HashSet<TxnId> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit(t) => Some(*t),
            _ => None,
        })
        .collect();
    let ops = records
        .into_iter()
        .filter_map(|r| match r {
            LogRecord::Insert { txn, table, row } if committed.contains(&txn) => {
                Some(RecoveredOp::Insert { txn, table, row })
            }
            LogRecord::Delete { txn, table, pk } if committed.contains(&txn) => {
                Some(RecoveredOp::Delete { txn, table, pk })
            }
            _ => None,
        })
        .collect();
    (ops, corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysim::disk::DiskModel;
    use skysim::time::TimeScale;

    fn dev() -> DiskDevice {
        DiskDevice::new("log", DiskModel::raided_sata(), TimeScale::ZERO)
    }

    fn insert(txn: u64, table: u32, payload: &[u8]) -> LogRecord {
        LogRecord::Insert {
            txn: TxnId(txn),
            table: TableId(table),
            row: payload.to_vec().into_boxed_slice(),
        }
    }

    #[test]
    fn record_roundtrip() {
        let recs = vec![
            LogRecord::Begin(TxnId(1)),
            insert(1, 5, b"hello"),
            LogRecord::Commit(TxnId(1)),
            LogRecord::Rollback(TxnId(2)),
        ];
        let mut buf = BytesMut::new();
        for r in &recs {
            r.encode(&mut buf);
        }
        assert_eq!(decode_log(&buf), recs);
    }

    #[test]
    fn truncated_tail_discarded() {
        let mut buf = BytesMut::new();
        LogRecord::Commit(TxnId(9)).encode(&mut buf);
        insert(1, 2, b"abcdef").encode(&mut buf);
        let cut = buf.len() - 3;
        let recs = decode_log(&buf[..cut]);
        assert_eq!(recs, vec![LogRecord::Commit(TxnId(9))]);
    }

    #[test]
    fn commit_makes_inserts_durable() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&LogRecord::Begin(TxnId(1)), &d);
        wal.append(&insert(1, 0, b"row1"), &d);
        // Not yet flushed: a crash now loses everything.
        assert!(wal.durable_log().is_empty());
        wal.append(&LogRecord::Commit(TxnId(1)), &d);
        wal.flush_sync(&d).unwrap();
        let rec = recover(&wal.durable_log());
        assert_eq!(rec.len(), 1);
        match &rec[0] {
            RecoveredOp::Insert { row, .. } => assert_eq!(&**row, b"row1"),
            other => panic!("expected insert, got {other:?}"),
        }
        assert_eq!(d.syncs(), 1);
    }

    #[test]
    fn flushes_keep_the_buffer_allocation() {
        let wal = Wal::new(PAGE_BYTES, &Registry::new());
        let d = dev();
        let buffer = wal.buffers.lock().pending.as_ptr();
        // Fill the buffer past its threshold (an automatic flush) several
        // times over, then flush at commit.
        for i in 0..64 {
            wal.append(&insert(1, 0, &[i as u8; 500]), &d);
        }
        wal.append(&LogRecord::Commit(TxnId(1)), &d);
        wal.flush_sync(&d).unwrap();
        assert!(wal.flushes() > 2, "the appends crossed the threshold");
        assert_eq!(wal.buffers.lock().pending.as_ptr(), buffer);
        assert_eq!(recover(&wal.durable_log()).len(), 64);
    }

    #[test]
    fn uncommitted_inserts_not_recovered() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&insert(1, 0, b"committed"), &d);
        wal.append(&LogRecord::Commit(TxnId(1)), &d);
        wal.append(&insert(2, 0, b"in-flight"), &d);
        wal.flush_sync(&d).unwrap();
        let rec = recover(&wal.durable_log());
        assert_eq!(rec.len(), 1);
        match &rec[0] {
            RecoveredOp::Insert { txn, .. } => assert_eq!(*txn, TxnId(1)),
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn rolled_back_inserts_not_recovered() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&insert(3, 1, b"undone"), &d);
        wal.append(&LogRecord::Rollback(TxnId(3)), &d);
        wal.flush_sync(&d).unwrap();
        assert!(recover(&wal.durable_log()).is_empty());
    }

    #[test]
    fn buffer_fills_trigger_background_flush() {
        let wal = Wal::new(PAGE_BYTES, &Registry::new()); // minimum capacity
        let d = dev();
        let big = vec![0u8; 3000];
        for _ in 0..4 {
            wal.append(&insert(1, 0, &big), &d);
        }
        assert!(wal.flushes() >= 1, "buffer should have flushed");
        assert!(d.writes() >= 1);
        assert_eq!(d.syncs(), 0, "background flush has no barrier");
    }

    #[test]
    fn torn_flush_loses_the_tail_record_only() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&insert(1, 0, b"first"), &d);
        wal.append(&LogRecord::Commit(TxnId(1)), &d);
        wal.append(&insert(2, 0, b"second"), &d);
        let end = wal.append(&LogRecord::Commit(TxnId(2)), &d);
        // Tear 4 bytes off the second commit record (13 bytes encoded:
        // 9-byte body + 4-byte CRC trailer).
        wal.flush_torn(&d, end, 4);
        let recs = decode_log(&wal.durable_log());
        assert_eq!(recs.len(), 3, "torn commit record must be discarded");
        let rec = recover(&wal.durable_log());
        assert_eq!(rec.len(), 1, "only txn 1 committed durably");
        match &rec[0] {
            RecoveredOp::Insert { txn, .. } => assert_eq!(*txn, TxnId(1)),
            other => panic!("expected insert, got {other:?}"),
        }
        assert_eq!(d.syncs(), 0, "a torn flush never completes its barrier");
    }

    #[test]
    fn torn_flush_cuts_the_crashing_record_and_drops_later_appends() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&insert(1, 0, b"first"), &d);
        let a_end = wal.append(&LogRecord::Commit(TxnId(1)), &d);
        // Another session appends its commit before the crashing flush
        // runs: the tear must cut the crashing record, not this one.
        wal.append(&LogRecord::Commit(TxnId(2)), &d);
        wal.flush_torn(&d, a_end, 3);
        assert_eq!(wal.durable_len(), a_end - 3);
        assert!(recover(&wal.durable_log()).is_empty(), "nothing committed");
        // The torn log acknowledges no later commit and takes no bytes.
        assert!(wal.flush_sync(&d).is_err());
        wal.append(&insert(3, 0, b"late"), &d);
        assert!(wal.flush_sync(&d).is_err());
        assert_eq!(wal.durable_len(), a_end - 3);
    }

    #[test]
    fn torn_flush_of_empty_buffer_is_a_noop() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.flush_torn(&d, 0, 5);
        assert!(wal.durable_log().is_empty());
        assert_eq!(d.writes(), 0);
    }

    #[test]
    fn crc_failure_stops_replay_at_last_intact_prefix() {
        let mut buf = BytesMut::new();
        LogRecord::Begin(TxnId(1)).encode(&mut buf);
        insert(1, 0, b"good").encode(&mut buf);
        let damage_from = buf.len();
        insert(1, 0, b"rotten").encode(&mut buf);
        LogRecord::Commit(TxnId(1)).encode(&mut buf);
        let mut log = buf.to_vec();
        // Flip one bit inside the second insert's payload (record layout:
        // tag 1 + txn 8 + table 4 + len 4 = 17 bytes of header).
        log[damage_from + 18] ^= 0x04;
        let (recs, corrupt) = decode_log_checked(&log);
        assert!(corrupt, "bit flip must be classified as corruption");
        assert_eq!(
            recs,
            vec![LogRecord::Begin(TxnId(1)), insert(1, 0, b"good")],
            "replay must stop at the first bad record, not skip it"
        );
        // The commit after the bad record is unreachable, so nothing is
        // recovered: better to lose the tail than apply rotten bytes.
        assert!(recover(&log).is_empty());
    }

    #[test]
    fn flipped_length_field_fails_crc_not_framing() {
        let mut buf = BytesMut::new();
        insert(1, 0, b"abcdefgh").encode(&mut buf);
        LogRecord::Commit(TxnId(1)).encode(&mut buf);
        let mut log = buf.to_vec();
        // Byte 13 is the low byte of the insert's length field; shrink it so
        // length framing alone would "successfully" mis-parse the log.
        log[13] ^= 0x04;
        let (recs, corrupt) = decode_log_checked(&log);
        assert!(recs.is_empty(), "mis-framed record must not decode");
        assert!(corrupt || recs.is_empty());
    }

    #[test]
    fn rot_durable_bit_hits_only_durable_bytes() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&insert(1, 0, b"row"), &d);
        wal.append(&LogRecord::Commit(TxnId(1)), &d);
        wal.flush_sync(&d).unwrap();
        let len = wal.durable_len();
        assert!(len > 0);
        assert!(!wal.rot_durable_bit(len, 0), "out of range is a no-op");
        assert!(wal.rot_durable_bit(5, 3));
        let (_, corrupt) = decode_log_checked(&wal.durable_log());
        assert!(corrupt);
        // Flip the same bit back: the log is whole again.
        assert!(wal.rot_durable_bit(5, 3));
        let (recs, corrupt) = decode_log_checked(&wal.durable_log());
        assert!(!corrupt);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn flush_counters_track_bytes() {
        let wal = Wal::new(1 << 20, &Registry::new());
        let d = dev();
        wal.append(&insert(1, 0, b"abc"), &d);
        wal.flush_sync(&d).unwrap();
        assert!(wal.bytes_flushed() > 0);
        assert_eq!(wal.records(), 1);
        // Idempotent flush of empty buffer: no extra device writes.
        let w = d.writes();
        wal.flush_sync(&d).unwrap();
        assert_eq!(d.writes(), w);
    }
}
