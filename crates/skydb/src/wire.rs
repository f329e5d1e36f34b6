//! Binary wire protocol between loader clients and the database server.
//!
//! The paper's loaders speak JDBC over Gigabit Ethernet; every
//! `executeBatch` is one driver round trip carrying the bind arrays. Here
//! each request/response is really serialized to bytes and decoded on the
//! other side, so per-call marshaling cost is genuine work, and the payload
//! size (which the network model charges for) is the real encoded size.

use bytes::{Buf, BufMut, BytesMut};

use crate::error::{ConstraintKind, DbError, DbResult};
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::schema::TableId;
use crate::value::{decode_row, encode_row, row_encoded_len, Row, Value};

/// A fencing token carried by mutating requests. `key` names a unit of
/// fenced work (the fleet layer uses one key per catalog file) and `epoch`
/// is the caller's lease generation; the server rejects any fenced call
/// whose epoch is below the minimum registered for that key, so a zombie
/// holder of a reclaimed lease cannot apply stale writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fence {
    /// Identifies the fenced unit of work.
    pub key: u64,
    /// The caller's lease epoch for that unit.
    pub epoch: u64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Insert a single row (the non-bulk baseline path).
    InsertSingle {
        /// Destination table.
        table: TableId,
        /// The row.
        row: Row,
        /// Optional fencing token.
        fence: Option<Fence>,
    },
    /// Insert a batch of rows with JDBC semantics.
    InsertBatch {
        /// Destination table.
        table: TableId,
        /// The rows, applied in order.
        rows: Vec<Row>,
        /// Optional fencing token.
        fence: Option<Fence>,
    },
    /// Commit the session's transaction.
    Commit {
        /// Optional fencing token.
        fence: Option<Fence>,
    },
    /// Roll back the session's transaction. Deliberately *not* fenced: a
    /// fenced-out zombie must still be able to discard its own stale work.
    Rollback,
    /// Read-committed scan with optional predicate pushdown. Reads are
    /// deliberately unfenced — a reader only ever sees committed data, so
    /// lease epochs are irrelevant to it.
    Scan {
        /// Table to scan.
        table: TableId,
        /// Optional filter evaluated server-side (pushdown).
        filter: Option<Expr>,
    },
    /// Read-committed scan addressed by table *name*, resolved on the
    /// server under the catalog read-guard that [`swap_tables`] excludes.
    /// This is the season-atomic read path: name resolution and the scan
    /// are one critical section, so a query can never resolve one season's
    /// binding and read another's rows — [`Request::Scan`] resolves the id
    /// client-side and cannot make that promise across a swap.
    ///
    /// [`swap_tables`]: crate::engine::Engine::swap_tables
    ScanNamed {
        /// Table name to resolve-and-scan atomically.
        table: String,
        /// Optional filter evaluated server-side (pushdown).
        filter: Option<Expr>,
    },
    /// Read-committed point lookup via the primary-key B+-tree.
    PkGet {
        /// Table to probe.
        table: TableId,
        /// Primary-key values, in key-column order.
        key: Row,
    },
    /// Read-committed range scan over a named secondary index
    /// (inclusive bounds) — the access path cone searches use.
    IndexRange {
        /// Table owning the index.
        table: TableId,
        /// Index name as given to `create_index`.
        index: String,
        /// Low key bound (inclusive).
        lo: Row,
        /// High key bound (inclusive).
        hi: Row,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; `rows` rows were applied.
    Ok {
        /// Rows applied by the request.
        rows: u32,
    },
    /// Failure. For batches, `applied` rows persisted and the row at
    /// `offset` caused the error (JDBC semantics).
    Err {
        /// Rows applied before the failure.
        applied: u32,
        /// Failing row offset (`u32::MAX` when not row-specific).
        offset: u32,
        /// Error classification (see [`encode_error_kind`]).
        kind: u8,
        /// Human-readable server message.
        message: String,
    },
    /// Query success: the result rows plus the server-side modeled
    /// service time in microseconds (per-call CPU + per-row scan CPU),
    /// which the client adds to the network round trip for end-to-end
    /// modeled latency.
    Rows {
        /// Result rows.
        rows: Vec<Row>,
        /// Modeled server-side service time, microseconds.
        modeled_us: u64,
    },
}

const OP_INSERT_SINGLE: u8 = 1;
const OP_INSERT_BATCH: u8 = 2;
const OP_COMMIT: u8 = 3;
const OP_ROLLBACK: u8 = 4;
const OP_SCAN: u8 = 5;
const OP_PK_GET: u8 = 6;
const OP_INDEX_RANGE: u8 = 7;
const OP_SCAN_NAMED: u8 = 8;

const RESP_OK: u8 = 0;
const RESP_ERR: u8 = 1;
const RESP_ROWS: u8 = 2;

/// Maximum expression-tree depth accepted by the decoder: a hostile or
/// corrupt frame must not be able to recurse the server stack away.
const EXPR_MAX_DEPTH: usize = 64;

/// Map a [`DbError`] to a one-byte wire classification.
pub fn encode_error_kind(e: &DbError) -> u8 {
    match e.constraint_kind() {
        Some(ConstraintKind::PrimaryKey) => 1,
        Some(ConstraintKind::ForeignKey) => 2,
        Some(ConstraintKind::Unique) => 3,
        Some(ConstraintKind::Check) => 4,
        Some(ConstraintKind::NotNull) => 5,
        None => match e {
            DbError::TypeMismatch { .. } | DbError::ArityMismatch { .. } => 6,
            DbError::ServerBusy(_) => 7,
            DbError::DiskFull(_) => 8,
            DbError::Corruption(_) => 9,
            DbError::ServerDown(_) => 10,
            DbError::FencedOut(_) => 11,
            DbError::WriteConflict(_) => 12,
            // At-rest rot is a distinct kind from request-payload corruption
            // (9): resending cannot fix stored damage. Kind 9 keeps its
            // meaning for wire backcompat.
            DbError::DataCorruption(_) => 13,
            _ => 0,
        },
    }
}

/// Reconstruct a client-side [`DbError`] from a wire classification.
/// Drivers do exactly this: the client never sees the server's native error
/// object, only an error code + message.
pub fn decode_error_kind(kind: u8, message: String) -> DbError {
    let mk = |k: ConstraintKind| DbError::ConstraintViolation {
        kind: k,
        constraint: String::new(),
        table: String::new(),
        detail: message.clone(),
    };
    match kind {
        1 => mk(ConstraintKind::PrimaryKey),
        2 => mk(ConstraintKind::ForeignKey),
        3 => mk(ConstraintKind::Unique),
        4 => mk(ConstraintKind::Check),
        5 => mk(ConstraintKind::NotNull),
        6 => DbError::TypeMismatch {
            table: String::new(),
            column: String::new(),
            detail: message,
        },
        7 => DbError::ServerBusy(message),
        8 => DbError::DiskFull(message),
        9 => DbError::Corruption(message),
        10 => DbError::ServerDown(message),
        11 => DbError::FencedOut(message),
        12 => DbError::WriteConflict(message),
        13 => DbError::DataCorruption(message),
        _ => DbError::Protocol(message),
    }
}

/// Encode an optional fence: one presence byte, then key + epoch.
fn put_fence(buf: &mut BytesMut, fence: &Option<Fence>) {
    match fence {
        Some(f) => {
            buf.put_u8(1);
            buf.put_u64_le(f.key);
            buf.put_u64_le(f.epoch);
        }
        None => buf.put_u8(0),
    }
}

/// Bytes [`put_fence`] writes for `fence`.
fn fence_len(fence: &Option<Fence>) -> usize {
    if fence.is_some() {
        17
    } else {
        1
    }
}

/// Encode the `InsertBatch` request for `rows` straight from the borrowed
/// slice: the bytes `Request::InsertBatch { .. }.encode` writes, without
/// an owned copy of the rows. Returns the encoded length.
pub fn encode_insert_batch(
    buf: &mut BytesMut,
    table: TableId,
    rows: &[Row],
    fence: &Option<Fence>,
) -> usize {
    let start = buf.len();
    buf.put_u8(OP_INSERT_BATCH);
    put_fence(buf, fence);
    buf.put_u32_le(table.0);
    buf.put_u32_le(rows.len() as u32);
    for r in rows {
        encode_row(r, buf);
    }
    buf.len() - start
}

/// Exact length [`encode_insert_batch`] writes, to size its buffer.
pub fn insert_batch_len(rows: &[Row], fence: &Option<Fence>) -> usize {
    1 + fence_len(fence) + 4 + 4 + rows.iter().map(|r| row_encoded_len(r)).sum::<usize>()
}

/// Decode an optional fence written by [`put_fence`].
fn get_fence(buf: &mut impl Buf) -> DbResult<Option<Fence>> {
    if buf.remaining() < 1 {
        return Err(DbError::Protocol("truncated fence marker".into()));
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            if buf.remaining() < 16 {
                return Err(DbError::Protocol("truncated fence token".into()));
            }
            let key = buf.get_u64_le();
            let epoch = buf.get_u64_le();
            Ok(Some(Fence { key, epoch }))
        }
        b => Err(DbError::Protocol(format!("bad fence marker {b}"))),
    }
}

/// Encode a length-prefixed UTF-8 string.
fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a string written by [`put_str`].
fn get_str(buf: &mut impl Buf) -> DbResult<String> {
    if buf.remaining() < 4 {
        return Err(DbError::Protocol("truncated string header".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DbError::Protocol("truncated string payload".into()));
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| DbError::Protocol("invalid utf8 in string".into()))
}

const EX_COLUMN: u8 = 1;
const EX_LITERAL: u8 = 2;
const EX_CMP: u8 = 3;
const EX_ARITH: u8 = 4;
const EX_AND: u8 = 5;
const EX_OR: u8 = 6;
const EX_NOT: u8 = 7;
const EX_IS_NULL: u8 = 8;
const EX_BETWEEN: u8 = 9;
const EX_IN: u8 = 10;

fn cmp_op_byte(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 1,
        CmpOp::Ne => 2,
        CmpOp::Lt => 3,
        CmpOp::Le => 4,
        CmpOp::Gt => 5,
        CmpOp::Ge => 6,
    }
}

fn cmp_op_from(b: u8) -> DbResult<CmpOp> {
    Ok(match b {
        1 => CmpOp::Eq,
        2 => CmpOp::Ne,
        3 => CmpOp::Lt,
        4 => CmpOp::Le,
        5 => CmpOp::Gt,
        6 => CmpOp::Ge,
        _ => return Err(DbError::Protocol(format!("bad cmp op {b}"))),
    })
}

fn arith_op_byte(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 1,
        ArithOp::Sub => 2,
        ArithOp::Mul => 3,
        ArithOp::Div => 4,
    }
}

fn arith_op_from(b: u8) -> DbResult<ArithOp> {
    Ok(match b {
        1 => ArithOp::Add,
        2 => ArithOp::Sub,
        3 => ArithOp::Mul,
        4 => ArithOp::Div,
        _ => return Err(DbError::Protocol(format!("bad arith op {b}"))),
    })
}

/// Encode an expression tree (matches [`get_expr`]).
fn put_expr(buf: &mut BytesMut, e: &Expr) {
    match e {
        Expr::Column(c) => {
            buf.put_u8(EX_COLUMN);
            buf.put_u32_le(*c as u32);
        }
        Expr::Literal(v) => {
            buf.put_u8(EX_LITERAL);
            v.encode(buf);
        }
        Expr::Cmp(op, a, b) => {
            buf.put_u8(EX_CMP);
            buf.put_u8(cmp_op_byte(*op));
            put_expr(buf, a);
            put_expr(buf, b);
        }
        Expr::Arith(op, a, b) => {
            buf.put_u8(EX_ARITH);
            buf.put_u8(arith_op_byte(*op));
            put_expr(buf, a);
            put_expr(buf, b);
        }
        Expr::And(a, b) => {
            buf.put_u8(EX_AND);
            put_expr(buf, a);
            put_expr(buf, b);
        }
        Expr::Or(a, b) => {
            buf.put_u8(EX_OR);
            put_expr(buf, a);
            put_expr(buf, b);
        }
        Expr::Not(a) => {
            buf.put_u8(EX_NOT);
            put_expr(buf, a);
        }
        Expr::IsNull(a) => {
            buf.put_u8(EX_IS_NULL);
            put_expr(buf, a);
        }
        Expr::Between(x, lo, hi) => {
            buf.put_u8(EX_BETWEEN);
            put_expr(buf, x);
            put_expr(buf, lo);
            put_expr(buf, hi);
        }
        Expr::In(x, vals) => {
            buf.put_u8(EX_IN);
            put_expr(buf, x);
            buf.put_u32_le(vals.len() as u32);
            for v in vals {
                v.encode(buf);
            }
        }
    }
}

/// Decode an expression tree with a recursion-depth guard.
fn get_expr(buf: &mut impl Buf, depth: usize) -> DbResult<Expr> {
    if depth > EXPR_MAX_DEPTH {
        return Err(DbError::Protocol(format!(
            "expression deeper than {EXPR_MAX_DEPTH}"
        )));
    }
    if buf.remaining() < 1 {
        return Err(DbError::Protocol("truncated expression".into()));
    }
    match buf.get_u8() {
        EX_COLUMN => {
            if buf.remaining() < 4 {
                return Err(DbError::Protocol("truncated column ref".into()));
            }
            Ok(Expr::Column(buf.get_u32_le() as usize))
        }
        EX_LITERAL => Ok(Expr::Literal(Value::decode(buf)?)),
        EX_CMP => {
            if buf.remaining() < 1 {
                return Err(DbError::Protocol("truncated cmp op".into()));
            }
            let op = cmp_op_from(buf.get_u8())?;
            let a = get_expr(buf, depth + 1)?;
            let b = get_expr(buf, depth + 1)?;
            Ok(Expr::Cmp(op, Box::new(a), Box::new(b)))
        }
        EX_ARITH => {
            if buf.remaining() < 1 {
                return Err(DbError::Protocol("truncated arith op".into()));
            }
            let op = arith_op_from(buf.get_u8())?;
            let a = get_expr(buf, depth + 1)?;
            let b = get_expr(buf, depth + 1)?;
            Ok(Expr::Arith(op, Box::new(a), Box::new(b)))
        }
        EX_AND => {
            let a = get_expr(buf, depth + 1)?;
            let b = get_expr(buf, depth + 1)?;
            Ok(Expr::And(Box::new(a), Box::new(b)))
        }
        EX_OR => {
            let a = get_expr(buf, depth + 1)?;
            let b = get_expr(buf, depth + 1)?;
            Ok(Expr::Or(Box::new(a), Box::new(b)))
        }
        EX_NOT => Ok(Expr::Not(Box::new(get_expr(buf, depth + 1)?))),
        EX_IS_NULL => Ok(Expr::IsNull(Box::new(get_expr(buf, depth + 1)?))),
        EX_BETWEEN => {
            let x = get_expr(buf, depth + 1)?;
            let lo = get_expr(buf, depth + 1)?;
            let hi = get_expr(buf, depth + 1)?;
            Ok(Expr::Between(Box::new(x), Box::new(lo), Box::new(hi)))
        }
        EX_IN => {
            let x = get_expr(buf, depth + 1)?;
            if buf.remaining() < 4 {
                return Err(DbError::Protocol("truncated IN list".into()));
            }
            let n = buf.get_u32_le() as usize;
            // Each value is at least its 1-byte tag.
            if n > buf.remaining() {
                return Err(DbError::Protocol(format!(
                    "IN list claims {n} values but only {} bytes remain",
                    buf.remaining()
                )));
            }
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(Value::decode(buf)?);
            }
            Ok(Expr::In(Box::new(x), vals))
        }
        t => Err(DbError::Protocol(format!("unknown expr tag {t}"))),
    }
}

impl Request {
    /// Encode onto a buffer. Returns the encoded length.
    pub fn encode(&self, buf: &mut BytesMut) -> usize {
        let start = buf.len();
        match self {
            Request::InsertSingle { table, row, fence } => {
                buf.put_u8(OP_INSERT_SINGLE);
                put_fence(buf, fence);
                buf.put_u32_le(table.0);
                encode_row(row, buf);
            }
            Request::InsertBatch { table, rows, fence } => {
                encode_insert_batch(buf, *table, rows, fence);
            }
            Request::Commit { fence } => {
                buf.put_u8(OP_COMMIT);
                put_fence(buf, fence);
            }
            Request::Rollback => buf.put_u8(OP_ROLLBACK),
            Request::Scan { table, filter } => {
                buf.put_u8(OP_SCAN);
                buf.put_u32_le(table.0);
                match filter {
                    Some(e) => {
                        buf.put_u8(1);
                        put_expr(buf, e);
                    }
                    None => buf.put_u8(0),
                }
            }
            Request::ScanNamed { table, filter } => {
                buf.put_u8(OP_SCAN_NAMED);
                put_str(buf, table);
                match filter {
                    Some(e) => {
                        buf.put_u8(1);
                        put_expr(buf, e);
                    }
                    None => buf.put_u8(0),
                }
            }
            Request::PkGet { table, key } => {
                buf.put_u8(OP_PK_GET);
                buf.put_u32_le(table.0);
                encode_row(key, buf);
            }
            Request::IndexRange {
                table,
                index,
                lo,
                hi,
            } => {
                buf.put_u8(OP_INDEX_RANGE);
                buf.put_u32_le(table.0);
                put_str(buf, index);
                encode_row(lo, buf);
                encode_row(hi, buf);
            }
        }
        buf.len() - start
    }

    /// Decode one request.
    pub fn decode(buf: &mut impl Buf) -> DbResult<Request> {
        if buf.remaining() < 1 {
            return Err(DbError::Protocol("empty request".into()));
        }
        match buf.get_u8() {
            OP_INSERT_SINGLE => {
                let fence = get_fence(buf)?;
                if buf.remaining() < 4 {
                    return Err(DbError::Protocol("truncated insert".into()));
                }
                let table = TableId(buf.get_u32_le());
                let row = decode_row(buf)?;
                Ok(Request::InsertSingle { table, row, fence })
            }
            OP_INSERT_BATCH => {
                let fence = get_fence(buf)?;
                if buf.remaining() < 8 {
                    return Err(DbError::Protocol("truncated batch header".into()));
                }
                let table = TableId(buf.get_u32_le());
                let n = buf.get_u32_le() as usize;
                // Never trust a length prefix beyond what the payload can
                // actually hold (each row needs at least its 2-byte count):
                // a corrupt frame must fail cleanly, not allocate gigabytes.
                if n > buf.remaining() / 2 {
                    return Err(DbError::Protocol(format!(
                        "batch claims {n} rows but only {} bytes remain",
                        buf.remaining()
                    )));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(decode_row(buf)?);
                }
                Ok(Request::InsertBatch { table, rows, fence })
            }
            OP_COMMIT => {
                let fence = get_fence(buf)?;
                Ok(Request::Commit { fence })
            }
            OP_ROLLBACK => Ok(Request::Rollback),
            OP_SCAN => {
                if buf.remaining() < 5 {
                    return Err(DbError::Protocol("truncated scan header".into()));
                }
                let table = TableId(buf.get_u32_le());
                let filter = match buf.get_u8() {
                    0 => None,
                    1 => Some(get_expr(buf, 0)?),
                    b => return Err(DbError::Protocol(format!("bad filter marker {b}"))),
                };
                Ok(Request::Scan { table, filter })
            }
            OP_PK_GET => {
                if buf.remaining() < 4 {
                    return Err(DbError::Protocol("truncated pk-get header".into()));
                }
                let table = TableId(buf.get_u32_le());
                let key = decode_row(buf)?;
                Ok(Request::PkGet { table, key })
            }
            OP_SCAN_NAMED => {
                let table = get_str(buf)?;
                if buf.remaining() < 1 {
                    return Err(DbError::Protocol("truncated named-scan filter".into()));
                }
                let filter = match buf.get_u8() {
                    0 => None,
                    1 => Some(get_expr(buf, 0)?),
                    b => return Err(DbError::Protocol(format!("bad filter marker {b}"))),
                };
                Ok(Request::ScanNamed { table, filter })
            }
            OP_INDEX_RANGE => {
                if buf.remaining() < 4 {
                    return Err(DbError::Protocol("truncated index-range header".into()));
                }
                let table = TableId(buf.get_u32_le());
                let index = get_str(buf)?;
                let lo = decode_row(buf)?;
                let hi = decode_row(buf)?;
                Ok(Request::IndexRange {
                    table,
                    index,
                    lo,
                    hi,
                })
            }
            op => Err(DbError::Protocol(format!("unknown opcode {op}"))),
        }
    }

    /// The request's fencing token, if any. Queries are unfenced reads.
    pub fn fence(&self) -> Option<Fence> {
        match self {
            Request::InsertSingle { fence, .. }
            | Request::InsertBatch { fence, .. }
            | Request::Commit { fence } => *fence,
            Request::Rollback
            | Request::Scan { .. }
            | Request::ScanNamed { .. }
            | Request::PkGet { .. }
            | Request::IndexRange { .. } => None,
        }
    }
}

impl Response {
    /// Encode onto a buffer. Returns the encoded length.
    pub fn encode(&self, buf: &mut BytesMut) -> usize {
        let start = buf.len();
        match self {
            Response::Ok { rows } => {
                buf.put_u8(RESP_OK);
                buf.put_u32_le(*rows);
            }
            Response::Err {
                applied,
                offset,
                kind,
                message,
            } => {
                buf.put_u8(RESP_ERR);
                buf.put_u32_le(*applied);
                buf.put_u32_le(*offset);
                buf.put_u8(*kind);
                buf.put_u32_le(message.len() as u32);
                buf.put_slice(message.as_bytes());
            }
            Response::Rows { rows, modeled_us } => {
                buf.put_u8(RESP_ROWS);
                buf.put_u64_le(*modeled_us);
                buf.put_u32_le(rows.len() as u32);
                for r in rows {
                    encode_row(r, buf);
                }
            }
        }
        buf.len() - start
    }

    /// Decode one response.
    pub fn decode(buf: &mut impl Buf) -> DbResult<Response> {
        if buf.remaining() < 1 {
            return Err(DbError::Protocol("empty response".into()));
        }
        match buf.get_u8() {
            RESP_OK => {
                if buf.remaining() < 4 {
                    return Err(DbError::Protocol("truncated ok".into()));
                }
                Ok(Response::Ok {
                    rows: buf.get_u32_le(),
                })
            }
            RESP_ERR => {
                if buf.remaining() < 13 {
                    return Err(DbError::Protocol("truncated err".into()));
                }
                let applied = buf.get_u32_le();
                let offset = buf.get_u32_le();
                let kind = buf.get_u8();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(DbError::Protocol("truncated err message".into()));
                }
                let mut bytes = vec![0u8; len];
                buf.copy_to_slice(&mut bytes);
                let message = String::from_utf8(bytes)
                    .map_err(|_| DbError::Protocol("invalid utf8 in message".into()))?;
                Ok(Response::Err {
                    applied,
                    offset,
                    kind,
                    message,
                })
            }
            RESP_ROWS => {
                if buf.remaining() < 12 {
                    return Err(DbError::Protocol("truncated rows header".into()));
                }
                let modeled_us = buf.get_u64_le();
                let n = buf.get_u32_le() as usize;
                // Each row needs at least its 2-byte column count; reject
                // inflated counts before allocating.
                if n > buf.remaining() / 2 {
                    return Err(DbError::Protocol(format!(
                        "response claims {n} rows but only {} bytes remain",
                        buf.remaining()
                    )));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(decode_row(buf)?);
                }
                Ok(Response::Rows { rows, modeled_us })
            }
            t => Err(DbError::Protocol(format!("unknown response tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(i: i64) -> Row {
        vec![
            Value::Int(i),
            Value::Float(i as f64),
            Value::Text("pq".into()),
        ]
    }

    #[test]
    fn request_roundtrips() {
        let fence = Some(Fence { key: 9, epoch: 3 });
        let reqs = vec![
            Request::InsertSingle {
                table: TableId(3),
                row: row(1),
                fence: None,
            },
            Request::InsertSingle {
                table: TableId(3),
                row: row(1),
                fence,
            },
            Request::InsertBatch {
                table: TableId(7),
                rows: (0..5).map(row).collect(),
                fence: None,
            },
            Request::InsertBatch {
                table: TableId(7),
                rows: (0..5).map(row).collect(),
                fence,
            },
            Request::Commit { fence: None },
            Request::Commit { fence },
            Request::Rollback,
        ];
        for r in reqs {
            let mut buf = BytesMut::new();
            let n = r.encode(&mut buf);
            assert_eq!(n, buf.len());
            let mut rd = buf.freeze();
            assert_eq!(Request::decode(&mut rd).unwrap(), r);
            assert_eq!(rd.remaining(), 0);
        }
    }

    #[test]
    fn query_requests_roundtrip() {
        let filter = Expr::cmp(2, CmpOp::Ge, 1.5f64)
            .and(Expr::between(3, -1.0f64, 1.0f64))
            .or(Expr::In(
                Box::new(Expr::Column(0)),
                vec![Value::Int(1), Value::Int(2), Value::Null],
            ));
        let reqs = vec![
            Request::Scan {
                table: TableId(4),
                filter: None,
            },
            Request::Scan {
                table: TableId(4),
                filter: Some(filter),
            },
            Request::Scan {
                table: TableId(0),
                filter: Some(Expr::IsNull(Box::new(Expr::Not(Box::new(Expr::Arith(
                    ArithOp::Div,
                    Box::new(Expr::Column(1)),
                    Box::new(Expr::Literal(Value::Float(2.0))),
                )))))),
            },
            Request::ScanNamed {
                table: "objects".into(),
                filter: None,
            },
            Request::ScanNamed {
                table: "objects__c7".into(),
                filter: Some(Expr::cmp(0, CmpOp::Eq, 3i64)),
            },
            Request::PkGet {
                table: TableId(9),
                key: vec![Value::Int(77)],
            },
            Request::IndexRange {
                table: TableId(2),
                index: "idx_objects_htmid".into(),
                lo: vec![Value::Int(100)],
                hi: vec![Value::Int(200)],
            },
        ];
        for r in reqs {
            let mut buf = BytesMut::new();
            let n = r.encode(&mut buf);
            assert_eq!(n, buf.len());
            let mut rd = buf.freeze();
            assert_eq!(Request::decode(&mut rd).unwrap(), r);
            assert_eq!(rd.remaining(), 0);
            assert_eq!(r.fence(), None, "queries are unfenced");
        }
    }

    #[test]
    fn pathologically_deep_expr_rejected() {
        let mut e = Expr::Column(0);
        for _ in 0..200 {
            e = Expr::Not(Box::new(e));
        }
        let mut buf = BytesMut::new();
        Request::Scan {
            table: TableId(0),
            filter: Some(e),
        }
        .encode(&mut buf);
        let mut rd = buf.freeze();
        assert!(Request::decode(&mut rd).is_err(), "depth guard must fire");
    }

    #[test]
    fn rows_response_roundtrips_and_rejects_inflated_count() {
        let resp = Response::Rows {
            rows: (0..3).map(row).collect(),
            modeled_us: 12_345,
        };
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        let mut rd = buf.freeze();
        assert_eq!(Response::decode(&mut rd).unwrap(), resp);

        let mut evil = BytesMut::new();
        evil.put_u8(2); // RESP_ROWS
        evil.put_u64_le(0);
        evil.put_u32_le(u32::MAX);
        let mut rd = evil.freeze();
        assert!(Response::decode(&mut rd).is_err());
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            Response::Ok { rows: 40 },
            Response::Err {
                applied: 4,
                offset: 4,
                kind: 1,
                message: "ORA-00001: unique constraint violated".into(),
            },
        ];
        for r in resps {
            let mut buf = BytesMut::new();
            r.encode(&mut buf);
            let mut rd = buf.freeze();
            assert_eq!(Response::decode(&mut rd).unwrap(), r);
        }
    }

    #[test]
    fn error_kind_roundtrip() {
        let cases = vec![
            DbError::constraint(ConstraintKind::PrimaryKey, "p", "t", "d"),
            DbError::constraint(ConstraintKind::ForeignKey, "f", "t", "d"),
            DbError::constraint(ConstraintKind::Unique, "u", "t", "d"),
            DbError::constraint(ConstraintKind::Check, "c", "t", "d"),
            DbError::constraint(ConstraintKind::NotNull, "n", "t", "d"),
        ];
        for e in cases {
            let k = encode_error_kind(&e);
            let back = decode_error_kind(k, "m".into());
            assert_eq!(back.constraint_kind(), e.constraint_kind());
        }
        assert_eq!(
            encode_error_kind(&DbError::ArityMismatch {
                table: "t".into(),
                expected: 2,
                got: 1
            }),
            6
        );
        assert_eq!(encode_error_kind(&DbError::FencedOut("stale".into())), 11);
        assert!(matches!(
            decode_error_kind(11, "x".into()),
            DbError::FencedOut(_)
        ));
        // Request-payload corruption (9) and at-rest rot (13) stay distinct.
        assert_eq!(
            encode_error_kind(&DbError::Corruption("bad batch".into())),
            9
        );
        assert_eq!(
            encode_error_kind(&DbError::DataCorruption("rotted row".into())),
            13
        );
        assert!(matches!(
            decode_error_kind(9, "x".into()),
            DbError::Corruption(_)
        ));
        assert!(matches!(
            decode_error_kind(13, "x".into()),
            DbError::DataCorruption(_)
        ));
        assert!(matches!(
            decode_error_kind(0, "x".into()),
            DbError::Protocol(_)
        ));
    }

    #[test]
    fn truncated_frames_rejected() {
        let mut buf = BytesMut::new();
        Request::InsertBatch {
            table: TableId(1),
            rows: vec![row(1), row(2)],
            fence: Some(Fence { key: 1, epoch: 2 }),
        }
        .encode(&mut buf);
        let full = buf.freeze();
        // Cuts land mid-fence (1..18), mid-header and mid-row.
        for cut in [0, 1, 5, 9, 17, 20, full.len() - 1] {
            let mut partial = full.slice(0..cut);
            assert!(Request::decode(&mut partial).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn batch_encoding_size_scales_with_rows() {
        let mut one = BytesMut::new();
        Request::InsertBatch {
            table: TableId(0),
            rows: vec![row(1)],
            fence: None,
        }
        .encode(&mut one);
        let mut forty = BytesMut::new();
        Request::InsertBatch {
            table: TableId(0),
            rows: (0..40).map(row).collect(),
            fence: None,
        }
        .encode(&mut forty);
        assert!(forty.len() > one.len() * 25, "batch payload should scale");
        assert!(forty.len() < one.len() * 41, "no super-linear blowup");
    }
}
