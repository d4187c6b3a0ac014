//! Table-aware packet scheduling (Section III-D, Figure 11).
//!
//! Production servers run many SLS threads whose packets interleave at the
//! memory controller, destroying intra-table temporal locality before it
//! reaches the RankCache. The table-aware scheduler reorders the packet
//! queue so packets for the same table issue consecutively, the same idea
//! as thread-level memory schedulers. A trace names its batches by table
//! only, so the table is the grouping key.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use recnmp_types::TableId;

use crate::config::SchedulingPolicy;
use crate::packet::NmpPacket;

/// Orders a packet queue according to `policy`.
///
/// * [`SchedulingPolicy::Fcfs`] returns the queue unchanged.
/// * [`SchedulingPolicy::TableAware`] groups packets by table,
///   groups ordered by first appearance, preserving order within groups
///   (a stable grouping, so no packet starves).
///
/// The grouping is a single O(n) pass: packets move by value into
/// per-key buckets indexed by a `HashMap`, then concatenate in
/// first-appearance order — no per-packet clones or rescans, so a
/// long-queue serving run schedules in linear time.
pub fn schedule(packets: Vec<NmpPacket>, policy: SchedulingPolicy) -> Vec<NmpPacket> {
    match policy {
        SchedulingPolicy::Fcfs => packets,
        SchedulingPolicy::TableAware => {
            let total = packets.len();
            let mut order: Vec<TableId> = Vec::new();
            let mut groups: HashMap<TableId, Vec<NmpPacket>> = HashMap::new();
            for p in packets {
                let key = p.table;
                match groups.entry(key) {
                    Entry::Vacant(slot) => {
                        order.push(key);
                        slot.insert(vec![p]);
                    }
                    Entry::Occupied(mut slot) => slot.get_mut().push(p),
                }
            }
            let mut out = Vec::with_capacity(total);
            for key in order {
                out.append(&mut groups.remove(&key).expect("every key has a bucket"));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(table: u32, marker: usize) -> NmpPacket {
        NmpPacket {
            table: TableId::new(table),
            insts: Vec::new(),
            pooling_sizes: vec![marker],
        }
    }

    #[test]
    fn fcfs_is_identity() {
        let q = vec![packet(1, 0), packet(2, 1), packet(1, 2)];
        let out = schedule(q.clone(), SchedulingPolicy::Fcfs);
        assert_eq!(out, q);
    }

    #[test]
    fn table_aware_groups_by_table() {
        // Interleaved arrival: T1, T2, T1, T2.
        let q = vec![packet(1, 0), packet(2, 1), packet(1, 2), packet(2, 3)];
        let out = schedule(q, SchedulingPolicy::TableAware);
        let keys: Vec<(u32, usize)> = out
            .iter()
            .map(|p| (u32::from(p.table), p.pooling_sizes[0]))
            .collect();
        assert_eq!(keys, vec![(1, 0), (1, 2), (2, 1), (2, 3)]);
    }

    #[test]
    fn grouping_preserves_within_group_order() {
        let q = vec![packet(5, 10), packet(5, 11), packet(5, 12)];
        let out = schedule(q.clone(), SchedulingPolicy::TableAware);
        assert_eq!(out, q);
    }

    #[test]
    fn empty_queue_is_fine() {
        assert!(schedule(Vec::new(), SchedulingPolicy::TableAware).is_empty());
    }
}
