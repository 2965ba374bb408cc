//! Network topologies for the cluster's exchange phase.
//!
//! The comm model ([`crate::comm`]) charges every byte to the links it
//! crosses. A [`Topology`] names those links and routes node-to-node
//! flows over them:
//!
//! - [`Topology::FlatSwitch`] — one non-blocking crossbar: the only
//!   contended resources are the per-node NIC injection/ejection links,
//!   so congestion is purely endpoint congestion;
//! - [`Topology::RackTree`] — a 2-level fat-tree sketch matching the
//!   hierarchical-arbiter layout ([`crate::hierarchy`]): nodes are
//!   grouped into racks of
//!   `nodes_per_rack`, intra-rack traffic stays on the rack switch
//!   (non-blocking), and inter-rack traffic additionally crosses the
//!   source rack's uplink and the destination rack's downlink, which all
//!   nodes of a rack share (oversubscription made explicit).
//!
//! Links are directional: a full-duplex NIC is two links (`NicTx`,
//! `NicRx`), and a rack uplink is distinct from its downlink, so an
//! all-to-one incast and a one-to-all broadcast stress different
//! resources.

use serde::{Deserialize, Serialize};

use crate::error::{ensure, ConfigError};

/// A directional contended resource in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkId {
    /// Node `n`'s NIC injection (send) side.
    NicTx(usize),
    /// Node `n`'s NIC ejection (receive) side.
    NicRx(usize),
    /// Rack `r`'s shared uplink into the core (leaving the rack).
    RackUp(usize),
    /// Rack `r`'s shared downlink from the core (entering the rack).
    RackDown(usize),
}

/// The wiring between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// A single non-blocking switch: only NICs contend.
    FlatSwitch,
    /// Two-level rack tree with shared, possibly oversubscribed uplinks.
    RackTree {
        /// Nodes per rack (the last rack may be partial).
        nodes_per_rack: usize,
        /// Uplink/downlink bandwidth shared by a whole rack, bytes/s.
        uplink_bw: f64,
    },
}

impl Topology {
    /// Validate the topology parameters: racks must be non-empty and the
    /// uplink bandwidth finite positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Topology::RackTree {
            nodes_per_rack,
            uplink_bw,
        } = self
        {
            ensure(
                *nodes_per_rack > 0,
                "Topology::RackTree.nodes_per_rack",
                || "racks need at least one node".into(),
            )?;
            ensure(
                uplink_bw.is_finite() && *uplink_bw > 0.0,
                "Topology::RackTree.uplink_bw",
                || format!("uplink bandwidth {uplink_bw} bytes/s must be finite positive"),
            )?;
        }
        Ok(())
    }

    /// Which rack a node lives in (nodes are packed in rank order).
    pub fn rack_of(&self, node: usize) -> usize {
        match self {
            Topology::FlatSwitch => 0,
            Topology::RackTree { nodes_per_rack, .. } => node / nodes_per_rack,
        }
    }

    /// The ordered links a `src → dst` flow crosses: a NIC pair, plus an
    /// uplink and a downlink between racks. Self-flows are loopback and
    /// cross nothing. This is the one routing function; it allocates
    /// nothing.
    pub fn path(&self, src: usize, dst: usize) -> Route {
        let mut route = Route {
            links: [LinkId::NicTx(src); 4],
            len: 0,
        };
        if src == dst {
            return route;
        }
        route.push(LinkId::NicTx(src));
        if let Topology::RackTree { .. } = self {
            let (rs, rd) = (self.rack_of(src), self.rack_of(dst));
            if rs != rd {
                route.push(LinkId::RackUp(rs));
                route.push(LinkId::RackDown(rd));
            }
        }
        route.push(LinkId::NicRx(dst));
        route
    }

    /// The capacity of a link, bytes/s. NIC links scale with the owning
    /// node's power-dependent drain factor (see [`crate::comm`]); rack
    /// links are passive switch hardware and do not.
    pub fn link_bw(&self, link: LinkId, nic_bw: f64, drain: &[f64]) -> f64 {
        match link {
            LinkId::NicTx(n) | LinkId::NicRx(n) => nic_bw * drain[n],
            LinkId::RackUp(_) | LinkId::RackDown(_) => match self {
                Topology::RackTree { uplink_bw, .. } => *uplink_bw,
                Topology::FlatSwitch => unreachable!("flat switch has no rack links"),
            },
        }
    }
}

/// The links one flow crosses, in order: at most four, held inline.
/// Compare routes as slices (`route[..]`).
#[derive(Debug, Clone, Copy)]
pub struct Route {
    links: [LinkId; 4],
    len: usize,
}

impl Route {
    fn push(&mut self, link: LinkId) {
        self.links[self.len] = link;
        self.len += 1;
    }
}

impl std::ops::Deref for Route {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        &self.links[..self.len]
    }
}

/// A dense numbering of one network's links that follows [`LinkId`]'s
/// order: with `N` nodes and `R` racks, `NicTx(n) → n`,
/// `NicRx(n) → N + n`, `RackUp(r) → 2N + r`, `RackDown(r) → 2N + R + r`.
/// A flat switch has no racks (`R = 0`); a rack tree has
/// `R = ceil(N / nodes_per_rack)`, the last rack possibly partial. Per-link
/// tallies then live in plain vectors, and walking the indices in order
/// visits the links in `LinkId` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkIndex {
    nodes: usize,
    racks: usize,
}

impl LinkIndex {
    /// The numbering of `topology`'s links over `nodes` nodes.
    pub(crate) fn new(topology: &Topology, nodes: usize) -> Self {
        let racks = match topology {
            Topology::FlatSwitch => 0,
            Topology::RackTree { nodes_per_rack, .. } => nodes.div_ceil(*nodes_per_rack),
        };
        Self { nodes, racks }
    }

    /// How many links the network has.
    pub(crate) fn len(&self) -> usize {
        2 * (self.nodes + self.racks)
    }

    /// The dense index of `link`.
    pub(crate) fn of(&self, link: LinkId) -> usize {
        match link {
            LinkId::NicTx(n) => n,
            LinkId::NicRx(n) => self.nodes + n,
            LinkId::RackUp(r) => 2 * self.nodes + r,
            LinkId::RackDown(r) => 2 * self.nodes + self.racks + r,
        }
    }

    /// The link at dense index `i` (the inverse of [`of`](Self::of)).
    pub(crate) fn link(&self, i: usize) -> LinkId {
        let (n, r) = (self.nodes, self.racks);
        if i < n {
            LinkId::NicTx(i)
        } else if i < 2 * n {
            LinkId::NicRx(i - n)
        } else if i < 2 * n + r {
            LinkId::RackUp(i - 2 * n)
        } else {
            LinkId::RackDown(i - 2 * n - r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_switch_paths_touch_only_nics() {
        let t = Topology::FlatSwitch;
        assert_eq!(t.path(0, 3)[..], [LinkId::NicTx(0), LinkId::NicRx(3)]);
        assert_eq!(t.rack_of(7), 0);
        assert!(t.path(2, 2).is_empty(), "loopback crosses nothing");
    }

    #[test]
    fn rack_tree_adds_uplinks_only_across_racks() {
        let t = Topology::RackTree {
            nodes_per_rack: 4,
            uplink_bw: 25.0e9,
        };
        // Intra-rack: NICs only.
        assert_eq!(t.path(0, 3)[..], [LinkId::NicTx(0), LinkId::NicRx(3)]);
        // Inter-rack: up out of rack 0, down into rack 1.
        assert_eq!(
            t.path(1, 5)[..],
            [
                LinkId::NicTx(1),
                LinkId::RackUp(0),
                LinkId::RackDown(1),
                LinkId::NicRx(5)
            ]
        );
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(4), 1);
    }

    #[test]
    fn nic_bandwidth_scales_with_drain_factor() {
        let t = Topology::FlatSwitch;
        let drain = [1.0, 0.5];
        assert_eq!(t.link_bw(LinkId::NicTx(0), 10.0e9, &drain), 10.0e9);
        assert_eq!(t.link_bw(LinkId::NicRx(1), 10.0e9, &drain), 5.0e9);
    }

    #[test]
    fn zero_node_rack_rejected() {
        let err = Topology::RackTree {
            nodes_per_rack: 0,
            uplink_bw: 1.0e9,
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.what, "Topology::RackTree.nodes_per_rack");
        assert!(Topology::FlatSwitch.validate().is_ok());
    }

    #[test]
    fn link_index_is_dense_and_follows_link_order() {
        let tree = Topology::RackTree {
            nodes_per_rack: 4,
            uplink_bw: 25.0e9,
        };
        // 10 nodes in racks of 4: the last rack holds 2, so R = 3.
        for (t, nodes, links) in [(Topology::FlatSwitch, 10, 20), (tree, 10, 26)] {
            let idx = LinkIndex::new(&t, nodes);
            assert_eq!(idx.len(), links);
            let all: Vec<LinkId> = (0..idx.len()).map(|i| idx.link(i)).collect();
            assert!(all.windows(2).all(|w| w[0] < w[1]), "{t:?}: {all:?}");
            for (i, &l) in all.iter().enumerate() {
                assert_eq!(idx.of(l), i);
            }
            // Every link a route crosses has an index inside the table.
            for src in 0..nodes {
                for dst in 0..nodes {
                    assert!(t.path(src, dst).iter().all(|&l| idx.of(l) < idx.len()));
                }
            }
        }
        assert_eq!(LinkIndex::new(&tree, 10).link(25), LinkId::RackDown(2));
    }
}
