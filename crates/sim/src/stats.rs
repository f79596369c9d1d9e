//! Counters collected during simulation.

/// DRAM command and row-buffer-locality counters for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued (explicit row conflicts; idle banks activate
    /// without a precharge).
    pub precharges: u64,
    /// RD commands issued (64-byte transactions).
    pub reads: u64,
    /// WR commands issued (64-byte transactions, initialization phase).
    pub writes: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required an activation.
    pub row_misses: u64,
    /// Requests delayed by an in-progress refresh (tRFC window).
    pub refresh_stalls: u64,
}

impl DramStats {
    /// Bytes read from the DRAM devices.
    pub fn bytes_read(&self) -> u64 {
        self.reads * crate::config::LINE_BYTES
    }

    /// Bytes written to the DRAM devices.
    pub fn bytes_written(&self) -> u64 {
        self.writes * crate::config::LINE_BYTES
    }

    /// Row-buffer hit rate in `[0, 1]`; zero for an idle channel.
    ///
    /// The denominator is hits + misses — the column accesses that were
    /// classified either way — not RD + WR command counts, which drift
    /// from the classification totals (e.g. under refresh interleaving)
    /// and can push the ratio outside `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let classified = self.row_hits + self.row_misses;
        if classified == 0 {
            0.0
        } else {
            self.row_hits as f64 / classified as f64
        }
    }

    /// Accumulates another channel's counters (used to merge the per-rank
    /// NDP channels into one report).
    pub fn merge(&mut self, other: &DramStats) {
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.refresh_stalls += other.refresh_stalls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_edge_cases() {
        let s = DramStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        // Command counts (reads + writes) deliberately disagree with the
        // classification totals (hits + misses): the rate must follow the
        // classification — 7/(7+3), not 7/(10+90).
        let s = DramStats {
            reads: 10,
            writes: 90,
            row_hits: 7,
            row_misses: 3,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert_eq!(s.bytes_read(), 640);
        // All-miss traffic is 0.0, not NaN; all-hit is exactly 1.0 even
        // when write commands would inflate the old denominator.
        let s = DramStats {
            reads: 4,
            row_misses: 4,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.0);
        let s = DramStats {
            reads: 2,
            writes: 6,
            row_hits: 8,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = DramStats {
            activates: 1,
            precharges: 2,
            reads: 3,
            writes: 4,
            row_hits: 1,
            row_misses: 2,
            refresh_stalls: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.activates, 2);
        assert_eq!(a.reads, 6);
        assert_eq!(a.writes, 8);
        assert_eq!(a.refresh_stalls, 10);
    }
}
