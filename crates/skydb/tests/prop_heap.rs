//! Property tests for heap storage: arbitrary insert/delete interleavings
//! against a vector reference model.

use proptest::prelude::*;

use skydb::heap::{RowId, TableHeap, ROW_CRC_BYTES};
use skydb::schema::TableId;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    DeleteNth(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 1..200).prop_map(Op::Insert),
        1 => (0usize..64).prop_map(Op::DeleteNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_matches_reference(ops in prop::collection::vec(op(), 1..200)) {
        let mut heap = TableHeap::new(TableId(0));
        let mut model: Vec<(RowId, Vec<u8>)> = Vec::new();
        for o in ops {
            match o {
                Op::Insert(bytes) => {
                    let ins = heap.insert(&bytes);
                    model.push((ins.row_id, bytes));
                }
                Op::DeleteNth(n) => {
                    if !model.is_empty() {
                        let (rid, _) = model.remove(n % model.len());
                        prop_assert!(heap.delete(rid));
                        prop_assert!(!heap.delete(rid), "double delete must fail");
                    }
                }
            }
            prop_assert_eq!(heap.row_count(), model.len() as u64);
        }
        // Every model row is retrievable byte-for-byte.
        for (rid, bytes) in &model {
            prop_assert_eq!(heap.get(*rid), Some(bytes.as_slice()));
        }
        // Scan visits exactly the live rows, in heap order.
        let mut expected: Vec<(RowId, &[u8])> =
            model.iter().map(|(r, b)| (*r, b.as_slice())).collect();
        expected.sort_by_key(|(r, _)| *r);
        let scanned: Vec<(RowId, &[u8])> = heap.scan().collect();
        prop_assert_eq!(scanned, expected);
        // Bytes accounting matches (each stored row carries its CRC frame).
        let total: usize = model.iter().map(|(_, b)| b.len() + ROW_CRC_BYTES).sum();
        prop_assert_eq!(heap.bytes_used(), total);
    }

    #[test]
    fn row_ids_are_dense_and_unique(sizes in prop::collection::vec(1usize..500, 1..300)) {
        let mut heap = TableHeap::new(TableId(7));
        let mut seen = std::collections::HashSet::new();
        for s in sizes {
            let ins = heap.insert(&vec![0xCD; s]);
            prop_assert!(seen.insert(ins.row_id.packed()), "duplicate row id");
        }
        // Page count is consistent with capacity: no page holds more than
        // 8192 payload bytes, so pages ≥ total/8192.
        let total: u64 = heap.bytes_used() as u64;
        prop_assert!(heap.page_count() as u64 >= total / 8192);
    }
}
