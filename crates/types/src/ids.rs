//! Identifier newtypes shared across the workspace.
//!
//! Each identifier is a thin wrapper over an integer. The macro also derives
//! `Display`, ordering and hashing so the ids can be used directly as map
//! keys and in log output.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates the identifier from its integer index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the integer index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self(index)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> Self {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies one embedding table within a workload.
    TableId,
    "T"
);
id_type!(
    /// Identifies a DRAM rank within a memory channel (DIMM-major order).
    RankId,
    "rank"
);
id_type!(
    /// Identifies a DIMM within a memory channel.
    DimmId,
    "dimm"
);
id_type!(
    /// Identifies one RecNMP node (a whole multi-channel cluster) within
    /// a serving fleet.
    NodeId,
    "node"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TableId::new(3).to_string(), "T3");
        assert_eq!(RankId::new(0).to_string(), "rank0");
        assert_eq!(DimmId::new(1).to_string(), "dimm1");
        assert_eq!(NodeId::new(2).to_string(), "node2");
    }

    #[test]
    fn conversions_roundtrip() {
        let t = TableId::from(5u32);
        assert_eq!(u32::from(t), 5);
        assert_eq!(t.index(), 5);
    }

    #[test]
    fn ids_order_by_index() {
        assert!(RankId::new(1) < RankId::new(2));
    }
}
