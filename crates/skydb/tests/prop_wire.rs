//! Fuzz-style property tests for every decoder in the system: arbitrary
//! byte soup must produce clean errors, never panics, and valid frames
//! must round-trip. The codec is pinned hard here because the fencing
//! change added a wire field: every request shape (fenced and unfenced),
//! every error-kind byte, and truncation at every prefix length.

use proptest::prelude::*;

use bytes::BytesMut;
use skydb::error::DbError;
use skydb::schema::TableId;
use skydb::value::{encode_row, Row, Value};
use skydb::wal::decode_log;
use skydb::wire::{
    decode_error_kind, encode_error_kind, encode_insert_batch, insert_batch_len, Fence, Request,
    Response,
};

fn small_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[ -~]{0,16}".prop_map(Value::Text),
            any::<bool>().prop_map(Value::Bool),
        ],
        0..12,
    )
}

fn fence() -> impl Strategy<Value = Option<Fence>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>()).prop_map(|(key, epoch)| Some(Fence { key, epoch })),
    ]
}

/// Any client request, covering every variant and fence combination.
fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u32>(), small_row(), fence()).prop_map(|(table, row, fence)| {
            Request::InsertSingle {
                table: TableId(table),
                row,
                fence,
            }
        }),
        (
            any::<u32>(),
            prop::collection::vec(small_row(), 0..12),
            fence()
        )
            .prop_map(|(table, rows, fence)| {
                Request::InsertBatch {
                    table: TableId(table),
                    rows,
                    fence,
                }
            }),
        fence().prop_map(|fence| Request::Commit { fence }),
        Just(Request::Rollback),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Request decoding never panics on arbitrary bytes.
    #[test]
    fn request_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut rd = bytes.as_slice();
        let _ = Request::decode(&mut rd);
    }

    /// Response decoding never panics on arbitrary bytes.
    #[test]
    fn response_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut rd = bytes.as_slice();
        let _ = Response::decode(&mut rd);
    }

    /// Value decoding never panics on arbitrary bytes.
    #[test]
    fn value_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut rd = bytes.as_slice();
        let _ = Value::decode(&mut rd);
    }

    /// WAL decoding never panics and always terminates on arbitrary bytes.
    #[test]
    fn log_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let records = decode_log(&bytes);
        // Bounded output: each record consumes at least 9 bytes.
        prop_assert!(records.len() <= bytes.len() / 9 + 1);
    }

    /// Every request variant round-trips, fenced or not.
    #[test]
    fn any_request_roundtrips(req in request()) {
        let mut buf = BytesMut::new();
        let n = req.encode(&mut buf);
        prop_assert_eq!(n, buf.len());
        let mut rd = buf.freeze();
        let back = Request::decode(&mut rd).unwrap();
        prop_assert_eq!(rd.len(), 0, "frame fully consumed");
        prop_assert_eq!(back.fence(), req.fence(), "fence survives the wire");
        // Compare via re-encoding (f64 NaN breaks PartialEq).
        let mut buf2 = BytesMut::new();
        back.encode(&mut buf2);
        let mut buf1 = BytesMut::new();
        req.encode(&mut buf1);
        prop_assert_eq!(buf1, buf2);
    }

    /// A batch encoded straight from borrowed rows (the client's path) is
    /// byte-identical to the owned `Request::InsertBatch` encoding — the
    /// server charges per-call service by request length — decodes to the
    /// same rows, and fills a buffer sized by `insert_batch_len` exactly.
    #[test]
    fn borrowed_batch_encoding_matches_the_request(table in any::<u32>(),
                                                   rows in prop::collection::vec(small_row(), 0..40),
                                                   f in fence()) {
        let mut owned = BytesMut::new();
        let owned_len = Request::InsertBatch {
            table: TableId(table),
            rows: rows.clone(),
            fence: f,
        }
        .encode(&mut owned);
        let len = insert_batch_len(&rows, &f);
        let mut borrowed = BytesMut::with_capacity(len);
        let n = encode_insert_batch(&mut borrowed, TableId(table), &rows, &f);
        prop_assert_eq!(n, len);
        prop_assert_eq!(owned_len, len);
        prop_assert_eq!(&borrowed[..], &owned[..]);
        let mut rd = borrowed.freeze();
        match Request::decode(&mut rd).unwrap() {
            Request::InsertBatch { table: t, rows: back, fence } => {
                prop_assert_eq!(t, TableId(table));
                prop_assert_eq!(fence, f);
                prop_assert_eq!(back.len(), rows.len());
                for (a, b) in back.iter().zip(&rows) {
                    let (mut x, mut y) = (BytesMut::new(), BytesMut::new());
                    encode_row(a, &mut x);
                    encode_row(b, &mut y);
                    prop_assert_eq!(x, y);
                }
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    /// Every strict prefix of a valid request frame is rejected with a
    /// clean error — truncation anywhere (mid-fence, mid-header, mid-row)
    /// can never decode successfully, and never panics.
    #[test]
    fn truncated_request_prefixes_rejected(req in request()) {
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            // Rows are self-delimiting, so a cut at a row boundary of a
            // batch can decode as a *different* (shorter) valid batch; a
            // clean decode must then never equal the original frame.
            if let Ok(back) = Request::decode(&mut partial) {
                let mut re = BytesMut::new();
                back.encode(&mut re);
                prop_assert!(re[..] != full[..], "cut {} decoded as the full frame", cut);
            }
        }
    }

    /// A valid frame with appended garbage decodes the frame and leaves
    /// exactly the garbage unread (framing is self-delimiting).
    #[test]
    fn framing_is_self_delimiting(row in small_row(),
                                  f in fence(),
                                  garbage in prop::collection::vec(any::<u8>(), 0..64)) {
        let req = Request::InsertSingle {
            table: TableId(1),
            row,
            fence: f,
        };
        let mut buf = BytesMut::new();
        let frame_len = req.encode(&mut buf);
        buf.extend_from_slice(&garbage);
        let mut rd = buf.freeze();
        Request::decode(&mut rd).unwrap();
        prop_assert_eq!(rd.len(), garbage.len());
        prop_assert_eq!(frame_len + garbage.len(), rd.len() + frame_len);
    }

    /// Responses round-trip including error payloads, for every error-kind
    /// byte the protocol can carry (0..=11 defined, 12.. reserved).
    #[test]
    fn error_response_roundtrips(applied in any::<u32>(),
                                 offset in any::<u32>(),
                                 kind in 0u8..16,
                                 message in "[ -~]{0,64}") {
        let resp = Response::Err { applied, offset, kind, message };
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        let mut rd = buf.freeze();
        prop_assert_eq!(Response::decode(&mut rd).unwrap(), resp);
    }

    /// Every strict prefix of an error response is rejected cleanly.
    #[test]
    fn truncated_response_prefixes_rejected(kind in 0u8..16,
                                            message in "[ -~]{0,32}") {
        let resp = Response::Err { applied: 3, offset: 1, kind, message };
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            prop_assert!(Response::decode(&mut partial).is_err(), "cut {}", cut);
        }
    }

    /// Decoding a wire error kind and re-encoding the reconstructed error
    /// is the identity for every defined kind byte; undefined bytes fall
    /// back to the protocol-error class.
    #[test]
    fn error_kind_bytes_are_stable(kind in 0u8..16, message in "[ -~]{0,32}") {
        let decoded = decode_error_kind(kind, message);
        let back = encode_error_kind(&decoded);
        if kind <= 13 {
            prop_assert_eq!(back, kind);
        } else {
            prop_assert_eq!(back, 0, "reserved kinds fall back to protocol");
            prop_assert!(matches!(decoded, DbError::Protocol(_)));
        }
    }
}
