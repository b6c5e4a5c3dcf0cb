//! A consistent-hash ring with virtual nodes.
//!
//! Campaigns are placed on backends by hashing the campaign id onto a
//! ring of [`REPLICAS`] virtual points per node and walking clockwise to
//! the first point. The payoff over `id % N` is **stability**: removing
//! a node reassigns only the keys that node owned (each to the next
//! point clockwise, spread across survivors by the virtual points), and
//! adding a node steals only ~`1/N` of the keyspace. The hash is the
//! same multiplicative mix the registry's sharded store uses for its
//! shard index — one hashing idiom across the codebase.

/// Virtual points per node. More points smooth the per-node share at
/// the cost of a bigger (still tiny) sorted table: at 64 points the
/// max/min node share ratio stays within ~2x for small fleets, and
/// removal scatters a dead node's keys across every survivor instead
/// of dumping them on one neighbour.
pub const REPLICAS: usize = 64;

/// Fibonacci multiplicative mix (the registry's shard hash): spreads
/// sequential ids across the ring; the high 32 bits are the ring
/// position.
fn mix(x: u64) -> u32 {
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// Position of virtual point `replica` of `node`: two multiplicative
/// rounds with an xor-fold between them. One round would make node 0's
/// points `mix(1..=REPLICAS)` — the exact key positions of the first
/// `REPLICAS` sequential campaign ids — parking every early campaign
/// on node 0. The extra round keeps the point set and the key hash
/// decorrelated.
fn point(node: usize, replica: usize) -> u32 {
    let x = ((node as u64) << 32) | (replica as u64 + 1);
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// An immutable ring over a set of node indices. Rebuilt (cheaply) on
/// membership change; the node index is the caller's stable backend
/// table index, so the same node set always builds the same ring.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(position, node)` sorted by position (ties broken by node, so
    /// construction order never matters).
    points: Vec<(u32, usize)>,
}

impl Ring {
    /// Build a ring over `nodes` (stable indices into the caller's
    /// backend table) with [`REPLICAS`] virtual points each.
    pub fn build(nodes: &[usize]) -> Self {
        let mut points = Vec::with_capacity(nodes.len() * REPLICAS);
        for &node in nodes {
            for replica in 0..REPLICAS {
                points.push((point(node, replica), node));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The node owning `id`: the first virtual point clockwise from the
    /// id's ring position. `None` on an empty ring.
    pub fn route(&self, id: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let pos = mix(id);
        let at = self.points.partition_point(|&(p, _)| p < pos);
        let (_, node) = self.points[at % self.points.len()];
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_covering() {
        let ring = Ring::build(&[0, 1, 2]);
        let mut seen = [0usize; 3];
        for id in 1..=3000u64 {
            let node = ring.route(id).unwrap();
            assert_eq!(ring.route(id).unwrap(), node);
            seen[node] += 1;
        }
        // Every node owns a real share (virtual points smooth the split).
        for (node, &count) in seen.iter().enumerate() {
            assert!(count > 300, "node {node} owns only {count}/3000 keys");
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        assert_eq!(Ring::build(&[]).route(7), None);
        assert!(Ring::build(&[]).is_empty());
    }
}
