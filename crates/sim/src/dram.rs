//! DDR4 bank/rank/channel timing model (Ramulator-lite).
//!
//! The model tracks, per bank: the open row and the earliest cycles at which
//! the next PRE / ACT / RD may issue; per rank: the tRRD and tFAW activate
//! constraints; per channel: data-bus occupancy and the tCCD_S/L
//! read-to-read spacing. Requests are served in arrival order with
//! unlimited request queueing — an open-page FR-FCFS controller whose
//! reordering is approximated by the caller grouping row-local lines
//! together (exactly what both streaming scans and NDP row reads produce).
//!
//! Each call to [`Channel::read_line`] accounts one 64-byte read
//! transaction and returns its data-completion cycle. The channel is the
//! unit of bus sharing: the non-NDP baseline runs all ranks under **one**
//! channel (one shared data bus), while rank-level NDP instantiates one
//! single-rank channel **per rank** (each rank-NDP PU talks to its rank
//! through the buffer chip, giving rank-private bandwidth — the whole point
//! of rank-level NDP, paper §III-A/§V).

use crate::config::{DramOrg, DramTiming};
use crate::mapping::LineLoc;
use crate::stats::DramStats;
use std::collections::VecDeque;

#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Cycle of the most recent ACT.
    act_time: u64,
    /// Earliest cycle the next PRE may issue (tRAS after ACT).
    pre_ready: u64,
    /// Earliest cycle the next ACT may issue (tRP after PRE, tRC after ACT).
    act_ready: u64,
}

#[derive(Debug, Clone)]
struct RankState {
    banks: Vec<BankState>,
    /// Times of the last four ACTs (tFAW window).
    act_window: VecDeque<u64>,
    last_act: Option<(u64, usize)>,
    last_rd: Option<(u64, usize)>,
}

impl RankState {
    fn new(banks: usize) -> Self {
        Self {
            banks: vec![BankState::default(); banks],
            act_window: VecDeque::with_capacity(4),
            last_act: None,
            last_rd: None,
        }
    }

    fn act_constraints(&self, bank_group: usize, t: &DramTiming) -> u64 {
        let rrd = match self.last_act {
            Some((when, bg)) if bg == bank_group => when + t.t_rrd_l,
            Some((when, _)) => when + t.t_rrd_s,
            None => 0,
        };
        let faw = if self.act_window.len() == 4 {
            self.act_window[0] + t.t_faw
        } else {
            0
        };
        rrd.max(faw)
    }

    fn record_act(&mut self, at: u64, bank_group: usize) {
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(at);
        self.last_act = Some((at, bank_group));
    }

    fn rd_constraint(&self, bank_group: usize, t: &DramTiming) -> u64 {
        match self.last_rd {
            Some((when, bg)) if bg == bank_group => when + t.t_ccd_l,
            Some((when, _)) => when + t.t_ccd_s,
            None => 0,
        }
    }
}

/// One memory channel: a shared command/data bus over one or more ranks.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: DramTiming,
    org: DramOrg,
    ranks: Vec<RankState>,
    /// Cycle until which the data bus is occupied.
    bus_free: u64,
    stats: DramStats,
}

impl Channel {
    /// Creates a channel with `ranks` ranks of the given organization.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    pub fn new(timing: DramTiming, org: DramOrg, ranks: usize) -> Self {
        assert!(ranks > 0, "a channel needs at least one rank");
        Self {
            timing,
            org,
            ranks: (0..ranks)
                .map(|_| RankState::new(org.banks_per_rank()))
                .collect(),
            bus_free: 0,
            stats: DramStats::default(),
        }
    }

    /// Accumulated command/locality statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Number of ranks on this channel.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Pushes `t` out of any refresh window: every `tREFI`, the rank is
    /// unavailable for the first `tRFC` cycles (all-bank refresh).
    fn skip_refresh(&mut self, t: u64) -> u64 {
        let (refi, rfc) = (self.timing.t_refi, self.timing.t_rfc);
        // The first refresh fires one full tREFI after power-up, so early
        // requests (t < tREFI) are never stalled.
        if refi == 0 || t < refi {
            return t;
        }
        let phase = t % refi;
        if phase < rfc {
            self.stats.refresh_stalls += 1;
            t - phase + rfc
        } else {
            t
        }
    }

    /// Issues one 64-byte read to `loc`, not earlier than cycle `earliest`,
    /// and returns the cycle at which its data burst completes.
    ///
    /// `loc.rank` is taken modulo the channel's rank count, so per-rank NDP
    /// channels can reuse globally decoded locations.
    pub fn read_line(&mut self, loc: LineLoc, earliest: u64) -> u64 {
        let t = self.timing;
        let earliest = self.skip_refresh(earliest);
        let rank_idx = loc.rank % self.ranks.len();
        let bank_idx = loc.bank_group * self.org.banks_per_group + loc.bank;

        // --- Row-buffer management (open-page policy). ---
        let rank_act_con = self.ranks[rank_idx].act_constraints(loc.bank_group, &t);
        let rank_rd_con = self.ranks[rank_idx].rd_constraint(loc.bank_group, &t);
        let rank = &mut self.ranks[rank_idx];
        let bank = &mut rank.banks[bank_idx];
        let rd_min;
        let mut new_act = None;
        match bank.open_row {
            Some(r) if r == loc.row => {
                self.stats.row_hits += 1;
                rd_min = bank.act_time + t.t_rcd;
            }
            other => {
                self.stats.row_misses += 1;
                let mut act_lower = earliest;
                if other.is_some() {
                    // Precharge the conflicting row.
                    let pre_at = earliest.max(bank.pre_ready);
                    self.stats.precharges += 1;
                    act_lower = act_lower.max(pre_at + t.t_rp);
                }
                let act_at = act_lower.max(bank.act_ready).max(rank_act_con);
                bank.open_row = Some(loc.row);
                bank.act_time = act_at;
                bank.pre_ready = act_at + t.t_ras();
                bank.act_ready = act_at + t.t_rc;
                new_act = Some(act_at);
                self.stats.activates += 1;
                rd_min = act_at + t.t_rcd;
            }
        }
        if let Some(act_at) = new_act {
            rank.record_act(act_at, loc.bank_group);
        }

        // --- Read command: CCD spacing plus data-bus availability. ---
        let rd_at = earliest
            .max(rd_min)
            .max(rank_rd_con)
            .max(self.bus_free.saturating_sub(t.t_cl));
        rank.last_rd = Some((rd_at, loc.bank_group));
        let data_start = rd_at + t.t_cl;
        let done = data_start + t.t_bl;
        self.bus_free = done;
        self.stats.reads += 1;
        done
    }

    /// Issues one 64-byte write to `loc`, not earlier than cycle
    /// `earliest`, and returns the cycle at which its data burst completes.
    /// Used by the initialization phase (`ArithEnc` writing ciphertext back
    /// to memory, paper §V-E1).
    pub fn write_line(&mut self, loc: LineLoc, earliest: u64) -> u64 {
        let t = self.timing;
        let earliest = self.skip_refresh(earliest);
        let rank_idx = loc.rank % self.ranks.len();
        let bank_idx = loc.bank_group * self.org.banks_per_group + loc.bank;

        // Row management is identical to the read path.
        let rank_act_con = self.ranks[rank_idx].act_constraints(loc.bank_group, &t);
        let rank_col_con = self.ranks[rank_idx].rd_constraint(loc.bank_group, &t);
        let rank = &mut self.ranks[rank_idx];
        let bank = &mut rank.banks[bank_idx];
        let wr_min;
        let mut new_act = None;
        match bank.open_row {
            Some(r) if r == loc.row => {
                self.stats.row_hits += 1;
                wr_min = bank.act_time + t.t_rcd;
            }
            other => {
                self.stats.row_misses += 1;
                let mut act_lower = earliest;
                if other.is_some() {
                    let pre_at = earliest.max(bank.pre_ready);
                    self.stats.precharges += 1;
                    act_lower = act_lower.max(pre_at + t.t_rp);
                }
                let act_at = act_lower.max(bank.act_ready).max(rank_act_con);
                bank.open_row = Some(loc.row);
                bank.act_time = act_at;
                bank.pre_ready = act_at + t.t_ras();
                bank.act_ready = act_at + t.t_rc;
                new_act = Some(act_at);
                self.stats.activates += 1;
                wr_min = act_at + t.t_rcd;
            }
        }
        let wr_at = earliest
            .max(wr_min)
            .max(rank_col_con)
            .max(self.bus_free.saturating_sub(t.t_cwl));
        let data_end = wr_at + t.t_cwl + t.t_bl;
        // Write recovery pushes out the earliest precharge of this bank.
        let bank = &mut rank.banks[bank_idx];
        bank.pre_ready = bank.pre_ready.max(data_end + t.t_wr);
        if let Some(act_at) = new_act {
            rank.record_act(act_at, loc.bank_group);
        }
        rank.last_rd = Some((wr_at, loc.bank_group));
        self.bus_free = data_end;
        self.stats.writes += 1;
        data_end
    }

    /// Serves a batch of reads that may all issue from `earliest`, returning
    /// the completion cycle of the last one.
    pub fn read_lines(&mut self, locs: &[LineLoc], earliest: u64) -> u64 {
        locs.iter()
            .map(|&l| self.read_line(l, earliest))
            .max()
            .unwrap_or(earliest)
    }

    /// Peak data-bus bandwidth in bytes per cycle (64 bytes per tBL).
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        64.0 / self.timing.t_bl as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramOrg, DramTiming, LINE_BYTES};
    use crate::mapping::AddressMapper;

    fn chan(ranks: usize) -> Channel {
        Channel::new(DramTiming::DDR4_2400, DramOrg::DDR4_8GB, ranks)
    }

    fn loc(bg: usize, bank: usize, row: u64, col: u64) -> LineLoc {
        LineLoc {
            channel: 0,
            rank: 0,
            bank_group: bg,
            bank,
            row,
            col,
        }
    }

    #[test]
    fn first_read_latency_is_act_rcd_cl_bl() {
        let mut c = chan(1);
        let done = c.read_line(loc(0, 0, 5, 0), 0);
        let t = DramTiming::DDR4_2400;
        assert_eq!(done, t.t_rcd + t.t_cl + t.t_bl);
        assert_eq!(c.stats().activates, 1);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let mut c = chan(1);
        c.read_line(loc(0, 0, 5, 0), 0);
        let hit_done = c.read_line(loc(0, 0, 5, 1), 0);
        let mut c2 = chan(1);
        c2.read_line(loc(0, 0, 5, 0), 0);
        let conflict_done = c2.read_line(loc(0, 0, 6, 0), 0);
        assert!(hit_done < conflict_done);
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c2.stats().row_misses, 2);
        assert_eq!(c2.stats().precharges, 1);
    }

    #[test]
    fn row_conflict_waits_for_tras_and_trp() {
        let mut c = chan(1);
        c.read_line(loc(0, 0, 5, 0), 0);
        let done = c.read_line(loc(0, 0, 6, 0), 0);
        let t = DramTiming::DDR4_2400;
        // ACT@0; PRE ≥ tRAS; second ACT ≥ tRAS+tRP = tRC; RD; data.
        assert_eq!(done, t.t_rc + t.t_rcd + t.t_cl + t.t_bl);
    }

    #[test]
    fn streaming_same_row_is_bus_limited() {
        // 64 hits to one open row: throughput = one burst per tCCD_L.
        let mut c = chan(1);
        c.read_line(loc(0, 0, 1, 0), 0);
        let mut last = 0;
        for i in 1..64 {
            last = c.read_line(loc(0, 0, 1, i), 0);
        }
        let t = DramTiming::DDR4_2400;
        // 63 follow-up reads, spaced ≥ tCCD_L apart within one bank group.
        let lower = t.t_rcd + t.t_cl + t.t_bl + 63 * t.t_ccd_l - t.t_ccd_l;
        assert!(last >= lower, "last={last} lower={lower}");
        assert_eq!(c.stats().row_hits, 63);
    }

    #[test]
    fn interleaved_bank_groups_beat_single_bank_group() {
        // Alternating bank groups uses tCCD_S (4) instead of tCCD_L (6).
        let mut same = chan(1);
        let mut alt = chan(1);
        let mut done_same = 0;
        let mut done_alt = 0;
        for i in 0..32 {
            done_same = same.read_line(loc(0, 0, 1, i), 0);
            done_alt = alt.read_line(loc((i % 4) as usize, 0, 1, i / 4), 0);
        }
        assert!(done_alt < done_same);
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        // 8 row misses to 8 different banks: the 5th ACT must wait for the
        // tFAW window even though all banks are idle.
        let mut c = chan(1);
        let mut acts = Vec::new();
        for b in 0..8 {
            c.read_line(loc(b % 4, b / 4, 1, 0), 0);
            acts.push(c.stats().activates);
        }
        // Reconstruct ACT times through a fresh run tracking completion.
        let mut c = chan(1);
        let mut times = Vec::new();
        for b in 0..8 {
            let done = c.read_line(loc(b % 4, b / 4, 1, 0), 0);
            let t = DramTiming::DDR4_2400;
            times.push(done - t.t_rcd - t.t_cl - t.t_bl); // == ACT time
        }
        let t = DramTiming::DDR4_2400;
        assert!(times[4] >= times[0] + t.t_faw, "tFAW violated: {times:?}");
    }

    #[test]
    fn two_ranks_share_one_bus() {
        // Same traffic over 1 vs 2 ranks on ONE channel: row-hit streams are
        // bus-bound, so two ranks cannot double throughput.
        let m = AddressMapper::new(DramOrg::DDR4_8GB);
        let locs: Vec<LineLoc> = (0..512u64).map(|i| m.decode(i * LINE_BYTES)).collect();
        let mut one = chan(1);
        let done_one = one.read_lines(&locs, 0);
        let mut two = chan(2);
        // Spread across both ranks.
        let locs2: Vec<LineLoc> = locs
            .iter()
            .enumerate()
            .map(|(i, &l)| LineLoc { rank: i % 2, ..l })
            .collect();
        let done_two = two.read_lines(&locs2, 0);
        // Far from 2×: the shared data bus is the bottleneck either way.
        // (A modest gain remains because alternating ranks breaks up
        // same-bank-group runs, turning tCCD_L spacing into tCCD_S.)
        let ratio = done_one as f64 / done_two as f64;
        assert!(ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    fn separate_channels_scale_bandwidth() {
        // The NDP configuration: the same 512-line stream split over 8
        // per-rank channels finishes ~8× faster than over one channel.
        let m = AddressMapper::new(DramOrg::DDR4_8GB);
        let locs: Vec<LineLoc> = (0..512u64).map(|i| m.decode(i * LINE_BYTES)).collect();
        let mut single = chan(8);
        let done_single = single.read_lines(&locs, 0);
        let mut per_rank: Vec<Channel> = (0..8).map(|_| chan(1)).collect();
        let mut done_ndp = 0;
        for (i, &l) in locs.iter().enumerate() {
            let d = per_rank[i % 8].read_line(l, 0);
            done_ndp = done_ndp.max(d);
        }
        let speedup = done_single as f64 / done_ndp as f64;
        assert!(speedup > 4.0, "rank-parallel speedup only {speedup:.2}×");
    }

    #[test]
    fn earliest_is_respected() {
        let mut c = chan(1);
        let done = c.read_line(loc(0, 0, 1, 0), 1000);
        assert!(done > 1000);
        let t = DramTiming::DDR4_2400;
        assert_eq!(done, 1000 + t.t_rcd + t.t_cl + t.t_bl);
    }

    #[test]
    fn empty_batch_returns_earliest() {
        let mut c = chan(1);
        assert_eq!(c.read_lines(&[], 77), 77);
    }

    #[test]
    fn write_then_read_same_row_hits() {
        let mut c = chan(1);
        c.write_line(loc(0, 0, 3, 0), 0);
        let before_hits = c.stats().row_hits;
        c.read_line(loc(0, 0, 3, 1), 0);
        assert_eq!(c.stats().row_hits, before_hits + 1);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().bytes_written(), 64);
    }

    #[test]
    fn write_recovery_delays_row_conflict() {
        // A write followed by a conflicting activation must wait tWR after
        // the write data, making the conflict slower than after a read.
        let t = DramTiming::DDR4_2400;
        let mut wrote = chan(1);
        wrote.write_line(loc(0, 0, 3, 0), 0);
        let after_write = wrote.read_line(loc(0, 0, 4, 0), 0);
        let mut read = chan(1);
        read.read_line(loc(0, 0, 3, 0), 0);
        let after_read = read.read_line(loc(0, 0, 4, 0), 0);
        assert!(
            after_write >= after_read + t.t_wr - t.t_rc.min(t.t_wr),
            "write recovery not applied: {after_write} vs {after_read}"
        );
        assert!(after_write > after_read);
    }

    #[test]
    fn refresh_window_pushes_requests_out() {
        let t = DramTiming::DDR4_2400;
        let mut c = chan(1);
        // A request landing inside the second refresh window is delayed to
        // its end.
        let inside = t.t_refi + t.t_rfc / 2;
        let done = c.read_line(loc(0, 0, 1, 0), inside);
        assert!(done >= t.t_refi + t.t_rfc + t.t_rcd + t.t_cl + t.t_bl);
        assert_eq!(c.stats().refresh_stalls, 1);
        // A request outside the window is unaffected.
        let outside = t.t_refi + 2 * t.t_rfc;
        let done = c.read_line(loc(1, 0, 1, 0), outside);
        assert_eq!(done, outside + t.t_rcd + t.t_cl + t.t_bl);
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mut timing = DramTiming::DDR4_2400;
        timing.t_refi = 0;
        let mut c = Channel::new(timing, DramOrg::DDR4_8GB, 1);
        let done = c.read_line(loc(0, 0, 1, 0), 5);
        assert_eq!(done, 5 + timing.t_rcd + timing.t_cl + timing.t_bl);
        assert_eq!(c.stats().refresh_stalls, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_loc() -> impl Strategy<Value = LineLoc> {
            (0usize..4, 0usize..4, 0u64..8, 0u64..128).prop_map(|(bg, bank, row, col)| LineLoc {
                channel: 0,
                rank: 0,
                bank_group: bg,
                bank,
                row,
                col,
            })
        }

        proptest! {
            /// Data bursts never overlap on the channel bus, and reads
            /// never complete before the physical minimum latency.
            #[test]
            fn bursts_are_disjoint_and_latency_bounded(
                locs in proptest::collection::vec(arb_loc(), 1..80),
            ) {
                let t = DramTiming::DDR4_2400;
                let mut c = chan(1);
                let mut intervals: Vec<(u64, u64)> = Vec::new();
                for &l in &locs {
                    let done = c.read_line(l, 0);
                    prop_assert!(done >= t.t_rcd + t.t_cl + t.t_bl || done >= t.t_cl + t.t_bl);
                    intervals.push((done - t.t_bl, done));
                }
                intervals.sort();
                for w in intervals.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0, "bus overlap: {:?} vs {:?}", w[0], w[1]);
                }
            }

            /// Completion times respect `earliest`, and serving the same
            /// request later never finishes earlier (monotonicity).
            #[test]
            fn earliest_monotonicity(
                locs in proptest::collection::vec(arb_loc(), 1..40),
                offset in 0u64..10_000,
            ) {
                let mut base = chan(1);
                let mut shifted = chan(1);
                for &l in &locs {
                    let d0 = base.read_line(l, 0);
                    let d1 = shifted.read_line(l, offset);
                    prop_assert!(d1 >= offset);
                    prop_assert!(d1 >= d0, "shifting later finished earlier: {d1} < {d0}");
                }
            }

            /// Command accounting is consistent: every read is either a hit
            /// or a miss, and activations equal misses.
            #[test]
            fn stats_are_consistent(locs in proptest::collection::vec(arb_loc(), 1..100)) {
                let mut c = chan(1);
                for &l in &locs {
                    c.read_line(l, 0);
                }
                let s = *c.stats();
                prop_assert_eq!(s.reads, locs.len() as u64);
                prop_assert_eq!(s.row_hits + s.row_misses, s.reads);
                prop_assert_eq!(s.activates, s.row_misses);
                prop_assert!(s.precharges <= s.activates);
            }

            /// The FR-FCFS-style reordering never changes WHAT is read,
            /// only the order: schedule_lines is a permutation.
            #[test]
            fn schedule_is_a_permutation(locs in proptest::collection::vec(arb_loc(), 0..120)) {
                let scheduled = crate::ndp::schedule_lines(&locs, 64);
                prop_assert_eq!(scheduled.len(), locs.len());
                let key = |l: &LineLoc| (l.rank, l.bank_group, l.bank, l.row, l.col);
                let mut a: Vec<_> = locs.iter().map(key).collect();
                let mut b: Vec<_> = scheduled.iter().map(key).collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
            }

            /// Reordering helps (or at least never hurts) total latency on
            /// a single-rank channel.
            #[test]
            fn reordering_never_hurts(locs in proptest::collection::vec(arb_loc(), 1..80)) {
                let mut inorder = chan(1);
                let mut reordered = chan(1);
                let d0 = inorder.read_lines(&locs, 0);
                let sched = crate::ndp::schedule_lines(&locs, usize::MAX);
                let d1 = reordered.read_lines(&sched, 0);
                // Allow a tiny slack: the greedy round-robin is a heuristic.
                prop_assert!(d1 <= d0 + d0 / 10 + 50, "reordering hurt: {d1} vs {d0}");
            }
        }
    }

    #[test]
    fn peak_bandwidth_is_ddr4_2400() {
        // 64 B / 4 cycles at 1.2 GHz = 19.2 GB/s.
        let c = chan(1);
        let gbps = c.peak_bytes_per_cycle() * crate::config::DRAM_CLOCK_GHZ;
        assert!((gbps - 19.2).abs() < 1e-9);
    }
}
