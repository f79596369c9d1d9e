//! Software-managed version numbers.
//!
//! Counter-mode security hinges on never reusing a `(address, version)` pair
//! for different plaintexts. Instead of hardware counter caches and
//! integrity trees, SecNDP lets **trusted software inside the TEE** manage
//! versions (paper §V-A): a whole memory region (e.g. one embedding table)
//! shares a single version, and the version is bumped whenever the region is
//! rewritten. The paper's evaluation assumes the enclave manages at most 64
//! live regions (§VI-A).
//!
//! [`VersionManager`] enforces both invariants: monotonically increasing
//! versions per region, and a cap on the number of live regions.

use crate::error::Error;
use std::collections::HashMap;

/// Identifier of a versioned memory region (one per table / data chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// Software version-number manager living inside the TEE.
///
/// Versions start at 1 (version 0 is reserved as "never encrypted") and only
/// move forward, so an `(addr, v)` pair can never recur with different data.
#[derive(Debug, Clone)]
pub struct VersionManager {
    versions: HashMap<RegionId, u64>,
    max_regions: usize,
    next_region: u64,
    /// Highest version ever issued to any region. Every `register`/`bump`
    /// moves strictly above it, so `(addr, version)` pairs are unique
    /// across the manager's whole lifetime — a region released and later
    /// re-registered at the same base address can never resume (or
    /// collide with) an old OTP counter stream.
    high_water: u64,
}

/// The paper's evaluation bound on live regions managed by the enclave.
pub const DEFAULT_MAX_REGIONS: usize = 64;

impl VersionManager {
    /// Creates a manager with the paper's default 64-region capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_REGIONS)
    }

    /// Creates a manager holding at most `max_regions` live regions.
    pub fn with_capacity(max_regions: usize) -> Self {
        Self {
            versions: HashMap::new(),
            max_regions,
            next_region: 0,
            high_water: 0,
        }
    }

    /// Registers a new region, returning its id and initial version — the
    /// first version strictly above every version ever issued, so a fresh
    /// region can never alias a freed region's `(addr, version)` pads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VersionExhausted`] if the region capacity is full
    /// or the 64-bit version counter would wrap.
    pub fn register(&mut self) -> Result<(RegionId, u64), Error> {
        if self.versions.len() >= self.max_regions {
            return Err(Error::VersionExhausted);
        }
        let v = self
            .high_water
            .checked_add(1)
            .ok_or(Error::VersionExhausted)?;
        let id = RegionId(self.next_region);
        self.next_region += 1;
        self.high_water = v;
        self.versions.insert(id, v);
        Ok((id, v))
    }

    /// The current version of `region`, or `None` if unknown.
    pub fn current(&self, region: RegionId) -> Option<u64> {
        self.versions.get(&region).copied()
    }

    /// Bumps the version of `region` (called when the region is
    /// re-encrypted with new contents), returning the new version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VersionExhausted`] if the region is unknown or the
    /// 64-bit version counter would wrap.
    pub fn bump(&mut self, region: RegionId) -> Result<u64, Error> {
        let nv = self
            .high_water
            .checked_add(1)
            .ok_or(Error::VersionExhausted)?;
        let v = self
            .versions
            .get_mut(&region)
            .ok_or(Error::VersionExhausted)?;
        // Jump to one past the global high-water mark (per-region versions
        // never exceed it, so this is still a strict per-region increase).
        *v = nv;
        self.high_water = nv;
        Ok(nv)
    }

    /// Frees a region, allowing a new one to be registered in its place.
    ///
    /// Freed region ids are never reused, and the global high-water mark
    /// outlives the region, so stale `(addr, v)` pairs from a freed region
    /// can never alias a new region's pads.
    pub fn release(&mut self, region: RegionId) {
        self.versions.remove(&region);
    }

    /// Number of live regions.
    pub fn live_regions(&self) -> usize {
        self.versions.len()
    }

    /// The capacity this manager was created with.
    pub fn capacity(&self) -> usize {
        self.max_regions
    }
}

impl Default for VersionManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn register_bump_release_cycle() {
        let mut vm = VersionManager::with_capacity(2);
        let (r0, v0) = vm.register().unwrap();
        assert_eq!(v0, 1);
        assert_eq!(vm.bump(r0).unwrap(), 2);
        assert_eq!(vm.current(r0), Some(2));
        vm.release(r0);
        assert_eq!(vm.current(r0), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut vm = VersionManager::with_capacity(2);
        vm.register().unwrap();
        vm.register().unwrap();
        assert_eq!(vm.register().unwrap_err(), Error::VersionExhausted);
        // Releasing frees a slot.
        let (r, _) = {
            let mut vm2 = VersionManager::with_capacity(1);
            let (r, _) = vm2.register().unwrap();
            (r, vm2)
        };
        let mut vm3 = VersionManager::with_capacity(1);
        let (r3, _) = vm3.register().unwrap();
        vm3.release(r3);
        assert!(vm3.register().is_ok());
        let _ = r;
    }

    #[test]
    fn region_ids_never_reused() {
        let mut vm = VersionManager::with_capacity(1);
        let (r0, _) = vm.register().unwrap();
        vm.release(r0);
        let (r1, _) = vm.register().unwrap();
        assert_ne!(r0, r1);
    }

    #[test]
    fn versions_monotonic() {
        let mut vm = VersionManager::new();
        let (r, _) = vm.register().unwrap();
        let mut prev = vm.current(r).unwrap();
        for _ in 0..10 {
            let v = vm.bump(r).unwrap();
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn bump_unknown_region_fails() {
        let mut vm = VersionManager::new();
        assert!(vm.bump(RegionId(42)).is_err());
    }

    #[test]
    fn default_capacity_matches_paper() {
        assert_eq!(VersionManager::new().capacity(), 64);
    }

    #[test]
    fn versions_are_globally_unique() {
        // Two live regions must not share a version: if both sat at the
        // same base address (e.g. sequential tables reusing a buffer),
        // identical versions would mean identical OTP pad streams.
        let mut vm = VersionManager::new();
        let (_, v0) = vm.register().unwrap();
        let (_, v1) = vm.register().unwrap();
        assert_ne!(v0, v1);
    }

    #[test]
    fn released_region_version_never_resumes() {
        // Regression: register → bump → release → register again. The new
        // region must start strictly above every version the old region
        // ever used, or a counter stream could be replayed.
        let mut vm = VersionManager::with_capacity(1);
        let (r0, _) = vm.register().unwrap();
        let old_max = vm.bump(r0).unwrap();
        vm.release(r0);
        let (_, fresh) = vm.register().unwrap();
        assert!(fresh > old_max, "fresh={fresh} old_max={old_max}");
    }
}
