//! Multi-dimensional resource descriptions (paper Section 3.2.1).
//!
//! Fuxi unifies diverse demands into a uniform multi-dimensional resource
//! description covering physical resources (CPU, memory) and an open-ended
//! set of *virtual resources* ("to run a distributed sort application called
//! ASort ... configure each node to only contain 5 virtual resource").
//! Alibaba's production deployment used 7 dimensions (Section 5.1): CPU,
//! memory and 5 virtual types; this implementation supports any number.
//!
//! All allocations are component-wise: a request fits iff **every** dimension
//! fits ("all dimensions of this description must be satisfied in the
//! meantime").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// CPU is accounted in milli-cores, so the paper's `0.5 core` instances are
/// exactly representable (the paper's own request format uses `amount: 100`
/// per core, i.e. centi-cores; milli-cores is a strict refinement).
pub const CPU_MILLI_PER_CORE: u64 = 1000;

/// Identifier of a registered virtual-resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VirtualResourceId(pub u32);

/// Interns virtual-resource names (e.g. `"ASortResource"`) to dense ids so
/// the scheduler hot path compares integers, never strings.
#[derive(Debug, Default, Clone)]
pub struct VirtualResourceRegistry {
    names: Vec<String>,
    by_name: HashMap<String, VirtualResourceId>,
}

impl VirtualResourceRegistry {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, registering it if unseen.
    pub fn intern(&mut self, name: &str) -> VirtualResourceId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VirtualResourceId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-registered name.
    pub fn get(&self, name: &str) -> Option<VirtualResourceId> {
        self.by_name.get(name).copied()
    }

    /// The name registered for `id`, if any.
    pub fn name(&self, id: VirtualResourceId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A point in resource space: CPU milli-cores, memory MB, plus any virtual
/// dimensions. Virtual dimensions are kept sorted by id in a small vector;
/// absent entries mean zero, so the common CPU+memory-only case carries no
/// heap data beyond one empty `Vec`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceVec {
    cpu_milli: u64,
    memory_mb: u64,
    /// Sorted by `VirtualResourceId`; never contains zero amounts.
    virtuals: Vec<(VirtualResourceId, u64)>,
}

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec {
        cpu_milli: 0,
        memory_mb: 0,
        virtuals: Vec::new(),
    };

    /// A physical-only resource amount.
    pub fn new(cpu_milli: u64, memory_mb: u64) -> Self {
        Self {
            cpu_milli,
            memory_mb,
            virtuals: Vec::new(),
        }
    }

    /// Convenience: whole cores and megabytes.
    pub fn cores_mb(cores: u64, memory_mb: u64) -> Self {
        Self::new(cores * CPU_MILLI_PER_CORE, memory_mb)
    }

    /// Builder-style addition of a virtual dimension.
    pub fn with_virtual(mut self, id: VirtualResourceId, amount: u64) -> Self {
        self.set_virtual(id, amount);
        self
    }

    /// Cpu milli.
    pub fn cpu_milli(&self) -> u64 {
        self.cpu_milli
    }

    /// Memory mb.
    pub fn memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// Amount of virtual dimension `id` (zero when absent).
    pub fn virtual_amount(&self, id: VirtualResourceId) -> u64 {
        match self.virtuals.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => self.virtuals[i].1,
            Err(_) => 0,
        }
    }

    /// Sets virtual dimension `id` to `amount` (removing the entry when zero).
    pub fn set_virtual(&mut self, id: VirtualResourceId, amount: u64) {
        match self.virtuals.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => {
                if amount == 0 {
                    self.virtuals.remove(i);
                } else {
                    self.virtuals[i].1 = amount;
                }
            }
            Err(i) => {
                if amount != 0 {
                    self.virtuals.insert(i, (id, amount));
                }
            }
        }
    }

    /// Iterates the non-zero virtual dimensions.
    pub fn virtuals(&self) -> impl Iterator<Item = (VirtualResourceId, u64)> + '_ {
        self.virtuals.iter().copied()
    }

    /// Is zero.
    pub fn is_zero(&self) -> bool {
        self.cpu_milli == 0 && self.memory_mb == 0 && self.virtuals.is_empty()
    }

    /// Component-wise `self + other`.
    pub fn add(&mut self, other: &ResourceVec) {
        self.cpu_milli += other.cpu_milli;
        self.memory_mb += other.memory_mb;
        for &(id, amt) in &other.virtuals {
            let cur = self.virtual_amount(id);
            self.set_virtual(id, cur + amt);
        }
    }

    /// Component-wise `self - other`, saturating at zero per dimension.
    pub fn saturating_sub(&mut self, other: &ResourceVec) {
        self.cpu_milli = self.cpu_milli.saturating_sub(other.cpu_milli);
        self.memory_mb = self.memory_mb.saturating_sub(other.memory_mb);
        for &(id, amt) in &other.virtuals {
            let cur = self.virtual_amount(id);
            self.set_virtual(id, cur.saturating_sub(amt));
        }
    }

    /// Component-wise subtraction that fails (leaving `self` untouched) if any
    /// dimension would underflow.
    pub fn checked_sub(&mut self, other: &ResourceVec) -> bool {
        if !other.fits_in(self) {
            return false;
        }
        self.saturating_sub(other);
        true
    }

    /// `true` iff every dimension of `self` is ≤ the same dimension of
    /// `available` — the admission test for one allocation.
    #[inline]
    pub fn fits_in(&self, available: &ResourceVec) -> bool {
        if self.cpu_milli > available.cpu_milli || self.memory_mb > available.memory_mb {
            return false;
        }
        if self.virtuals.is_empty() {
            return true;
        }
        self.virtuals
            .iter()
            .all(|&(id, amt)| amt <= available.virtual_amount(id))
    }

    /// How many copies of `self` fit into `available` (component-wise floor
    /// division, the multi-unit grant count used by the scheduler). Returns
    /// `u64::MAX` when `self` is the zero vector.
    #[inline]
    pub fn times_fitting_in(&self, available: &ResourceVec) -> u64 {
        // Physical-only fast path: the overwhelmingly common case in the
        // scheduler hot loop carries no virtual dimensions, so two divisions
        // suffice and the binary-search walk is skipped entirely.
        if self.virtuals.is_empty() {
            let cpu = available.cpu_milli.checked_div(self.cpu_milli).unwrap_or(u64::MAX);
            let mem = available.memory_mb.checked_div(self.memory_mb).unwrap_or(u64::MAX);
            return cpu.min(mem);
        }
        let mut n = u64::MAX;
        if let Some(q) = available.cpu_milli.checked_div(self.cpu_milli) {
            n = n.min(q);
        }
        if let Some(q) = available.memory_mb.checked_div(self.memory_mb) {
            n = n.min(q);
        }
        for &(id, amt) in &self.virtuals {
            if let Some(q) = available.virtual_amount(id).checked_div(amt) {
                n = n.min(q);
            }
        }
        n
    }

    /// Component-wise `self * k`.
    pub fn scaled(&self, k: u64) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli * k,
            memory_mb: self.memory_mb * k,
            virtuals: self
                .virtuals
                .iter()
                .map(|&(id, amt)| (id, amt * k))
                .collect(),
        }
    }

    /// Adds `other * k` to self without materialising the intermediate.
    #[inline]
    pub fn add_scaled(&mut self, other: &ResourceVec, k: u64) {
        self.cpu_milli += other.cpu_milli * k;
        self.memory_mb += other.memory_mb * k;
        if other.virtuals.is_empty() {
            return;
        }
        for &(id, amt) in &other.virtuals {
            let cur = self.virtual_amount(id);
            self.set_virtual(id, cur + amt * k);
        }
    }

    /// Subtracts `other * k`, saturating at zero per dimension.
    #[inline]
    pub fn sub_scaled(&mut self, other: &ResourceVec, k: u64) {
        self.cpu_milli = self.cpu_milli.saturating_sub(other.cpu_milli * k);
        self.memory_mb = self.memory_mb.saturating_sub(other.memory_mb * k);
        if other.virtuals.is_empty() {
            return;
        }
        for &(id, amt) in &other.virtuals {
            let cur = self.virtual_amount(id);
            self.set_virtual(id, cur.saturating_sub(amt * k));
        }
    }

    /// Clamps every dimension of `self` to at most the matching dimension of
    /// `bound`. Virtual dimensions absent from `bound` are dropped. Used when
    /// returning resources to a machine whose capacity shrank in the meantime
    /// (node flap, blacklist): free space must never exceed capacity.
    pub fn clamp_to(&mut self, bound: &ResourceVec) {
        if self.fits_in(bound) {
            return;
        }
        self.cpu_milli = self.cpu_milli.min(bound.cpu_milli);
        self.memory_mb = self.memory_mb.min(bound.memory_mb);
        if self.virtuals.is_empty() {
            return;
        }
        let mut clamped = Vec::with_capacity(self.virtuals.len());
        for &(id, amt) in &self.virtuals {
            let limit = bound.virtual_amount(id);
            let v = amt.min(limit);
            if v > 0 {
                clamped.push((id, v));
            }
        }
        self.virtuals = clamped;
    }

    /// Component-wise maximum with `other` — the join in the per-dimension
    /// lattice. The scheduler's hierarchical fit index stores, per rack, the
    /// component-wise max of member free vectors: if one unit does not fit in
    /// that aggregate, it fits on no machine in the rack.
    pub fn max_with(&mut self, other: &ResourceVec) {
        self.cpu_milli = self.cpu_milli.max(other.cpu_milli);
        self.memory_mb = self.memory_mb.max(other.memory_mb);
        for &(id, amt) in &other.virtuals {
            let cur = self.virtual_amount(id);
            if amt > cur {
                self.set_virtual(id, amt);
            }
        }
    }

    /// The degree (in [0, 1]) to which `used` consumes `self` on the most
    /// loaded physical dimension; drives the agent's overload detection.
    pub fn max_physical_load(&self, used: &ResourceVec) -> f64 {
        let cpu = if self.cpu_milli > 0 {
            used.cpu_milli as f64 / self.cpu_milli as f64
        } else {
            0.0
        };
        let mem = if self.memory_mb > 0 {
            used.memory_mb as f64 / self.memory_mb as f64
        } else {
            0.0
        };
        cpu.max(mem)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{:.2}c, {}MB",
            self.cpu_milli as f64 / CPU_MILLI_PER_CORE as f64,
            self.memory_mb
        )?;
        for &(id, amt) in &self.virtuals {
            write!(f, ", v{}={}", id.0, amt)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(n: u32) -> VirtualResourceId {
        VirtualResourceId(n)
    }

    #[test]
    fn registry_interns_and_resolves() {
        let mut reg = VirtualResourceRegistry::new();
        let a = reg.intern("ASortResource");
        let b = reg.intern("BSortResource");
        assert_ne!(a, b);
        assert_eq!(reg.intern("ASortResource"), a);
        assert_eq!(reg.get("BSortResource"), Some(b));
        assert_eq!(reg.name(a), Some("ASortResource"));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let mut a = ResourceVec::cores_mb(4, 8192).with_virtual(vid(0), 5);
        let b = ResourceVec::new(1500, 2048).with_virtual(vid(0), 2);
        a.add(&b);
        assert_eq!(a.cpu_milli(), 5500);
        assert_eq!(a.memory_mb(), 10240);
        assert_eq!(a.virtual_amount(vid(0)), 7);
        assert!(a.checked_sub(&b));
        assert_eq!(a, ResourceVec::cores_mb(4, 8192).with_virtual(vid(0), 5));
    }

    #[test]
    fn checked_sub_rejects_underflow_and_leaves_untouched() {
        let mut a = ResourceVec::cores_mb(1, 1024);
        let b = ResourceVec::cores_mb(2, 512);
        assert!(!a.checked_sub(&b));
        assert_eq!(a, ResourceVec::cores_mb(1, 1024));
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let mut a = ResourceVec::cores_mb(1, 1024).with_virtual(vid(1), 3);
        let b = ResourceVec::cores_mb(2, 100).with_virtual(vid(1), 10);
        a.saturating_sub(&b);
        assert_eq!(a.cpu_milli(), 0);
        assert_eq!(a.memory_mb(), 924);
        assert_eq!(a.virtual_amount(vid(1)), 0);
        assert!(a.virtuals().count() == 0, "zero entries must be removed");
    }

    #[test]
    fn fits_requires_all_dimensions() {
        let avail = ResourceVec::cores_mb(12, 96 * 1024);
        assert!(ResourceVec::new(500, 2048).fits_in(&avail));
        // CPU fits, memory does not.
        assert!(!ResourceVec::new(500, 100 * 1024 * 1024).fits_in(&avail));
        // A virtual dimension absent from `avail` blocks the fit.
        assert!(!ResourceVec::new(1, 1).with_virtual(vid(0), 1).fits_in(&avail));
        assert!(ResourceVec::new(1, 1)
            .with_virtual(vid(0), 1)
            .fits_in(&avail.clone().with_virtual(vid(0), 5)));
    }

    #[test]
    fn times_fitting_is_component_wise_min() {
        let avail = ResourceVec::cores_mb(12, 96 * 1024);
        // paper's synthetic instance: 0.5 core, 2 GB -> CPU allows 24, mem allows 48.
        let unit = ResourceVec::new(500, 2048);
        assert_eq!(unit.times_fitting_in(&avail), 24);
        assert_eq!(ResourceVec::ZERO.times_fitting_in(&avail), u64::MAX);
    }

    #[test]
    fn scaled_and_add_scaled_match() {
        let unit = ResourceVec::new(500, 2048).with_virtual(vid(2), 1);
        let mut acc = ResourceVec::ZERO;
        acc.add_scaled(&unit, 7);
        assert_eq!(acc, unit.scaled(7));
        acc.sub_scaled(&unit, 7);
        assert!(acc.is_zero());
    }

    #[test]
    fn clamp_to_is_noop_when_within_bound() {
        let mut v = ResourceVec::new(500, 2048).with_virtual(vid(0), 3);
        let bound = ResourceVec::cores_mb(12, 96 * 1024).with_virtual(vid(0), 5);
        v.clamp_to(&bound);
        assert_eq!(v, ResourceVec::new(500, 2048).with_virtual(vid(0), 3));
    }

    #[test]
    fn clamp_to_caps_each_dimension_independently() {
        // Node flap: capacity shrank from 12c/96GB to 4c/8GB while grants
        // were being returned, so accumulated free exceeds the new capacity.
        let mut free = ResourceVec::cores_mb(12, 4 * 1024);
        let shrunk = ResourceVec::cores_mb(4, 8 * 1024);
        free.clamp_to(&shrunk);
        assert_eq!(free.cpu_milli(), 4000, "cpu clamped to new capacity");
        assert_eq!(free.memory_mb(), 4 * 1024, "memory already within bound");
    }

    #[test]
    fn clamp_to_drops_virtuals_absent_from_bound() {
        // Virtual dimension deconfigured during the flap: entry must vanish,
        // not linger at zero (ResourceVec never stores zero entries).
        let mut free = ResourceVec::new(100, 100)
            .with_virtual(vid(0), 7)
            .with_virtual(vid(1), 2);
        let bound = ResourceVec::new(100, 100).with_virtual(vid(1), 1);
        free.clamp_to(&bound);
        assert_eq!(free.virtual_amount(vid(0)), 0);
        assert_eq!(free.virtual_amount(vid(1)), 1);
        assert_eq!(free.virtuals().count(), 1, "zeroed entries are removed");
    }

    #[test]
    fn max_with_is_component_wise_join() {
        let mut a = ResourceVec::new(500, 4096).with_virtual(vid(0), 2);
        let b = ResourceVec::new(1000, 1024).with_virtual(vid(1), 9);
        a.max_with(&b);
        assert_eq!(a.cpu_milli(), 1000);
        assert_eq!(a.memory_mb(), 4096);
        assert_eq!(a.virtual_amount(vid(0)), 2);
        assert_eq!(a.virtual_amount(vid(1)), 9);
        // Soundness of the fit-index bound: anything fitting in a or b fits
        // in the join.
        assert!(ResourceVec::new(1000, 1024).fits_in(&a));
        assert!(ResourceVec::new(500, 4096).fits_in(&a));
    }

    #[test]
    fn times_fitting_fast_path_matches_general_path() {
        // Physical-only request against an available vector that also has
        // virtuals: the fast path must ignore the extra dimensions.
        let avail = ResourceVec::cores_mb(12, 96 * 1024).with_virtual(vid(0), 5);
        let unit = ResourceVec::new(500, 2048);
        assert_eq!(unit.times_fitting_in(&avail), 24);
        assert_eq!(ResourceVec::new(0, 2048).times_fitting_in(&avail), 48);
        assert_eq!(ResourceVec::new(500, 0).times_fitting_in(&avail), 24);
    }

    #[test]
    fn max_physical_load_picks_hotter_dimension() {
        let cap = ResourceVec::cores_mb(10, 1000);
        let used = ResourceVec::new(2000, 900);
        let load = cap.max_physical_load(&used);
        assert!((load - 0.9).abs() < 1e-9);
    }

    #[test]
    fn display_is_human_readable() {
        let v = ResourceVec::new(1500, 2048).with_virtual(vid(3), 2);
        assert_eq!(v.to_string(), "{1.50c, 2048MB, v3=2}");
    }
}
