//! Fleet-scale placement: which node(s) each table lives on, then which
//! channel within each node.
//!
//! A serving fleet is N RecNMP nodes (each a multi-channel cluster)
//! behind a front-end router. Placement therefore happens twice:
//!
//! 1. **Tables → nodes** — a flat [`PlacementPlan`]
//!    over the node space. Under
//!    [`FrequencyBalanced`](super::PlacementPolicy::FrequencyBalanced)
//!    the hottest tables are *replicated across nodes* (RecFlash-style
//!    frequency mapping lifted one level), so top-load traffic has more
//!    than one home and the router can spread it;
//! 2. **Tables → channels within each node** — one flat plan per node
//!    over the subset of tables resident there, with a replicated
//!    table's accesses split evenly across its node replicas so each
//!    node's channel plan balances the share it will actually serve.
//!
//! The [`FleetPlacementPlan`] materializes both levels; the serving-side
//! router consults level 1 per batch and each node's scatter consults
//! level 2 — neither recomputes anything per lookup.
//!
//! # Examples
//!
//! ```
//! use recnmp_backend::placement::fleet::FleetPlacementPlan;
//! use recnmp_backend::placement::{PlacementPolicy, TableUsage};
//! use recnmp_types::TableId;
//!
//! // One hot table, three cold ones, two 2-channel nodes; replicate the
//! // hottest table onto every node.
//! let usage = vec![
//!     TableUsage::new(TableId::new(0), 1 << 20, 900),
//!     TableUsage::new(TableId::new(1), 1 << 20, 50),
//!     TableUsage::new(TableId::new(2), 1 << 20, 30),
//!     TableUsage::new(TableId::new(3), 1 << 20, 20),
//! ];
//! let plan = FleetPlacementPlan::build(
//!     2,
//!     2,
//!     None,
//!     &usage,
//!     PlacementPolicy::FrequencyBalanced { replicate: 1 },
//!     PlacementPolicy::FrequencyBalanced { replicate: 0 },
//! )
//! .unwrap();
//! // The hot table lives on both nodes; every node's channel plan
//! // places every table resident there.
//! assert_eq!(plan.node_replicas(TableId::new(0)), &[0, 1]);
//! for n in 0..plan.nodes() {
//!     assert!(!plan.per_node(n).replicas(TableId::new(0)).is_empty());
//! }
//! ```

use recnmp_types::{ConfigError, NodeId, TableId};
use serde::{Deserialize, Serialize};

use super::{PlacementPlan, PlacementPolicy, TableUsage};

/// The materialized two-level table assignment of one fleet workload:
/// a node-level [`PlacementPlan`] (level 1) plus one channel-level plan
/// per node (level 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPlacementPlan {
    channels_per_node: usize,
    /// Level 1: tables → nodes (hot tables may be replicated).
    node_plan: PlacementPlan,
    /// Level 2: per node, the resident tables → that node's channels.
    per_node: Vec<PlacementPlan>,
}

impl FleetPlacementPlan {
    /// Builds the two-level plan: `tables` onto `nodes` nodes of
    /// `channels_per_node` channels each, under `node_policy` across
    /// nodes and `within_policy` across each node's channels.
    ///
    /// `channel_capacity` bounds each channel's bytes; the node-level
    /// plan packs against `channels_per_node * channel_capacity` (a
    /// node's total DRAM) and the per-node plans then enforce the
    /// per-channel bound exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when either level cannot place a table
    /// under its capacity bound, when a table is profiled twice, or when
    /// `nodes`/`channels_per_node` is zero.
    pub fn build(
        nodes: usize,
        channels_per_node: usize,
        channel_capacity: Option<u64>,
        tables: &[TableUsage],
        node_policy: PlacementPolicy,
        within_policy: PlacementPolicy,
    ) -> Result<Self, ConfigError> {
        if channels_per_node == 0 {
            return Err(ConfigError::new(
                "fleet-placement",
                "need at least one channel per node",
            ));
        }
        let node_capacity = channel_capacity.map(|c| c * channels_per_node as u64);
        let node_plan = PlacementPlan::build(nodes, node_capacity, tables, node_policy)?;
        let per_node = (0..nodes)
            .map(|n| {
                // The node's resident subset, with a replicated table's
                // accesses split across its node replicas — each node
                // balances the traffic share it will actually serve.
                let resident: Vec<TableUsage> = tables
                    .iter()
                    .filter_map(|u| {
                        let reps = node_plan.replicas(u.table);
                        reps.contains(&n).then(|| {
                            TableUsage::new(u.table, u.bytes, u.accesses / reps.len() as u64)
                        })
                    })
                    .collect();
                PlacementPlan::build(
                    channels_per_node,
                    channel_capacity,
                    &resident,
                    within_policy,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            channels_per_node,
            node_plan,
            per_node,
        })
    }

    /// Number of nodes the plan places onto.
    pub fn nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Channels per node.
    pub fn channels_per_node(&self) -> usize {
        self.channels_per_node
    }

    /// Number of placed tables.
    pub fn tables(&self) -> usize {
        self.node_plan.tables()
    }

    /// The node-level plan (level 1).
    pub fn node_plan(&self) -> &PlacementPlan {
        &self.node_plan
    }

    /// The sorted node replicas of `table`; empty when the table is not
    /// in the plan.
    pub fn node_replicas(&self, table: TableId) -> &[usize] {
        self.node_plan.replicas(table)
    }

    /// Deterministic node pick for a batch of `table` given a dispatch
    /// `salt` (replicated tables rotate through their node set). `None`
    /// for tables the plan does not place.
    pub fn node_for(&self, table: TableId, salt: usize) -> Option<NodeId> {
        self.node_plan
            .channel_for(table, salt)
            .map(|n| NodeId::new(n as u32))
    }

    /// The channel-level plan of node `n` (level 2).
    ///
    /// # Panics
    ///
    /// Panics when `n >= self.nodes()`.
    pub fn per_node(&self, n: usize) -> &PlacementPlan {
        &self.per_node[n]
    }

    /// Tables resident on more than one node — the cross-node replicas
    /// level 1 created for the hottest traffic.
    pub fn replicated_tables(&self) -> usize {
        self.node_plan
            .assignments()
            .filter(|(_, reps)| reps.len() > 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::apply_absorption;

    fn usage(specs: &[(u32, u64, u64)]) -> Vec<TableUsage> {
        specs
            .iter()
            .map(|&(t, bytes, acc)| TableUsage::new(TableId::new(t), bytes, acc))
            .collect()
    }

    const FREQ0: PlacementPolicy = PlacementPolicy::FrequencyBalanced { replicate: 0 };

    #[test]
    fn two_levels_are_consistent() {
        let u = usage(&[(0, 10, 100), (1, 10, 50), (2, 10, 20), (3, 10, 10)]);
        let plan = FleetPlacementPlan::build(2, 2, None, &u, FREQ0, FREQ0).unwrap();
        assert_eq!(plan.nodes(), 2);
        assert_eq!(plan.channels_per_node(), 2);
        assert_eq!(plan.tables(), 4);
        // Every table's node replicas each hold a channel assignment for
        // it, and no other node does.
        for t in &u {
            let reps = plan.node_replicas(t.table);
            assert!(!reps.is_empty());
            for n in 0..plan.nodes() {
                let placed = !plan.per_node(n).replicas(t.table).is_empty();
                assert_eq!(placed, reps.contains(&n), "table {} node {n}", t.table);
            }
        }
    }

    #[test]
    fn hot_table_replicates_across_nodes_and_splits_load() {
        let u = usage(&[(0, 10, 900), (1, 10, 60), (2, 10, 40), (3, 10, 20)]);
        let plan = FleetPlacementPlan::build(
            2,
            2,
            None,
            &u,
            PlacementPolicy::FrequencyBalanced { replicate: 1 },
            FREQ0,
        )
        .unwrap();
        assert_eq!(plan.node_replicas(TableId::new(0)), &[0, 1]);
        assert_eq!(plan.replicated_tables(), 1);
        // Each node's channel plan accounts only half the hot table's
        // accesses: the share that node actually serves.
        let half: f64 = (0..2)
            .map(|c| plan.per_node(0).load_on(c))
            .sum::<f64>()
            .min((0..2).map(|c| plan.per_node(1).load_on(c)).sum::<f64>());
        assert!((450.0..900.0).contains(&half));
        // Replication beats pure sharding on node-level imbalance here:
        // without it the 900-access table pins one node.
        let sharded = FleetPlacementPlan::build(2, 2, None, &u, FREQ0, FREQ0).unwrap();
        assert!(plan.node_plan.load_imbalance() <= sharded.node_plan.load_imbalance());
    }

    #[test]
    fn node_pick_rotates_replicas() {
        let u = usage(&[(0, 10, 900), (1, 10, 10)]);
        let plan = FleetPlacementPlan::build(
            2,
            1,
            None,
            &u,
            PlacementPolicy::FrequencyBalanced { replicate: 1 },
            PlacementPolicy::Hash,
        )
        .unwrap();
        assert_eq!(plan.node_for(TableId::new(0), 0), Some(NodeId::new(0)));
        assert_eq!(plan.node_for(TableId::new(0), 1), Some(NodeId::new(1)));
        assert_eq!(plan.node_for(TableId::new(9), 0), None);
    }

    #[test]
    fn capacity_bounds_apply_at_both_levels() {
        // Two tables of 60 bytes on 1-channel nodes of 100 bytes: each
        // node fits one, so 2 nodes place and 1 node overflows.
        let u = usage(&[(0, 60, 10), (1, 60, 5)]);
        assert!(FleetPlacementPlan::build(2, 1, Some(100), &u, FREQ0, FREQ0).is_ok());
        assert!(FleetPlacementPlan::build(1, 1, Some(100), &u, FREQ0, FREQ0).is_err());
        // Node-level fit but channel-level overflow: a 2-channel node
        // holds 200 bytes total but only 100 per channel.
        let fat = usage(&[(0, 150, 10)]);
        assert!(FleetPlacementPlan::build(1, 2, Some(100), &fat, FREQ0, FREQ0).is_err());
    }

    #[test]
    fn absorption_flows_through_both_levels() {
        // Table 0 dominates raw counts but is almost fully host-cached;
        // the residual-aware node plan balances on what remains.
        let u = usage(&[(0, 10, 900), (1, 10, 100), (2, 10, 80), (3, 10, 60)]);
        let absorbed = [(TableId::new(0), 880)];
        let residual = apply_absorption(&u, &absorbed).unwrap();
        let aware = FleetPlacementPlan::build(2, 2, None, &residual, FREQ0, FREQ0).unwrap();
        // Residual loads: 20, 100, 80, 60 → level-1 accounting sums to
        // the residual total on both nodes combined.
        let total: f64 = (0..2).map(|n| aware.node_plan().load_on(n)).sum();
        assert_eq!(total, 260.0);
        // The blind plan isolates table 0 on its own node; the aware one
        // pairs it with hotter residual tables.
        let blind = FleetPlacementPlan::build(2, 2, None, &u, FREQ0, FREQ0).unwrap();
        assert!(blind.node_plan().load_imbalance() > aware.node_plan().load_imbalance());
        // Over-absorption is rejected.
        assert!(apply_absorption(&u, &[(TableId::new(0), 901)]).is_err());
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        let u = usage(&[(0, 10, 1)]);
        assert!(FleetPlacementPlan::build(0, 2, None, &u, FREQ0, FREQ0).is_err());
        assert!(FleetPlacementPlan::build(2, 0, None, &u, FREQ0, FREQ0).is_err());
        let dup = usage(&[(0, 10, 1), (0, 10, 1)]);
        assert!(FleetPlacementPlan::build(2, 2, None, &dup, FREQ0, FREQ0).is_err());
    }

    #[test]
    fn single_node_fleet_degenerates_to_the_flat_plan() {
        // On one node the channel-level plan must equal a bare flat plan
        // over the same channels — the fleet layer adds nothing.
        let u = usage(&[(0, 10, 100), (1, 10, 50), (2, 10, 20), (3, 10, 10)]);
        let fleet = FleetPlacementPlan::build(1, 4, None, &u, FREQ0, FREQ0).unwrap();
        let flat = PlacementPlan::build(4, None, &u, FREQ0).unwrap();
        assert_eq!(fleet.per_node(0), &flat);
    }
}
