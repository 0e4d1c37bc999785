//! Per-cycle switching-activity records.

use netlist::NetId;

/// The switching activity observed in one clock cycle: how many times each
/// net changed value.
///
/// Zero-delay simulation yields counts of 0 or 1 per net; the event-driven
/// simulator can report higher counts when glitches occur.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CycleActivity {
    transitions: Vec<u32>,
}

impl CycleActivity {
    /// Creates an all-zero activity record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        CycleActivity {
            transitions: vec![0; num_nets],
        }
    }

    /// Creates a record from a dense per-net transition-count vector.
    pub fn from_counts(transitions: Vec<u32>) -> Self {
        CycleActivity { transitions }
    }

    /// Per-net transition counts, indexed by [`NetId::index`].
    #[inline]
    pub fn per_net(&self) -> &[u32] {
        &self.transitions
    }

    /// The number of transitions on a specific net.
    #[inline]
    pub fn transitions_on(&self, net: NetId) -> u32 {
        self.transitions[net.index()]
    }

    /// Mutable access to the per-net transition counts, for simulators and
    /// tests that fill the record in place.
    #[inline]
    pub fn per_net_mut(&mut self) -> &mut [u32] {
        &mut self.transitions
    }

    /// Resets all counts to zero (reuse between cycles without reallocating).
    pub fn reset(&mut self) {
        self.transitions.fill(0);
    }

    /// Total number of transitions across all nets this cycle.
    pub fn total_transitions(&self) -> u64 {
        self.transitions.iter().map(|&t| u64::from(t)).sum()
    }

    /// Number of nets that toggled at least once.
    pub fn active_nets(&self) -> usize {
        self.transitions.iter().filter(|&&t| t > 0).count()
    }
}

/// The switching activity of one clock cycle across the 64 lanes of a
/// bit-parallel simulation, stored as one XOR mask per net: bit `l` of the
/// mask for net `i` is set iff net `i` toggled in lane `l` this cycle.
///
/// Aggregate counts reduce to [`u64::count_ones`]; a single lane can be
/// projected out with [`lane_activity`](Self::lane_activity) for code that
/// expects the scalar [`CycleActivity`] shape.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WordActivity {
    diffs: Vec<u64>,
}

impl WordActivity {
    /// Creates an all-zero record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        WordActivity {
            diffs: vec![0; num_nets],
        }
    }

    /// Creates a record from a dense per-net XOR-mask vector.
    pub fn from_diff_words(diffs: Vec<u64>) -> Self {
        WordActivity { diffs }
    }

    /// The per-net XOR masks, indexed by [`NetId::index`].
    #[inline]
    pub fn diff_words(&self) -> &[u64] {
        &self.diffs
    }

    /// Mutable access to the per-net XOR masks, for simulators that fill the
    /// record in place.
    #[inline]
    pub fn diff_words_mut(&mut self) -> &mut [u64] {
        &mut self.diffs
    }

    /// Whether a net toggled in a given lane this cycle (0 or 1, the
    /// zero-delay transition count of that lane).
    #[inline]
    pub fn transitions_on_lane(&self, net: NetId, lane: usize) -> u32 {
        ((self.diffs[net.index()] >> lane) & 1) as u32
    }

    /// The number of lanes in which a net toggled this cycle — the per-net
    /// aggregate a node-activity accumulator folds with one `count_ones`.
    #[inline]
    pub fn transitions_on(&self, net: NetId) -> u32 {
        self.diffs[net.index()].count_ones()
    }

    /// Total transitions across all nets and all 64 lanes this cycle.
    pub fn total_transitions(&self) -> u64 {
        self.diffs.iter().map(|d| u64::from(d.count_ones())).sum()
    }

    /// Total transitions across all nets within one lane this cycle.
    pub fn lane_total_transitions(&self, lane: usize) -> u64 {
        self.diffs.iter().map(|d| (d >> lane) & 1).sum()
    }

    /// Projects one lane out into a scalar [`CycleActivity`] record.
    pub fn lane_activity(&self, lane: usize) -> CycleActivity {
        CycleActivity::from_counts(
            self.diffs
                .iter()
                .map(|d| ((d >> lane) & 1) as u32)
                .collect(),
        )
    }
}

/// The glitch-decomposed switching activity of one clock cycle, as reported
/// by the delay-aware [`crate::EventDrivenSimulator`]:
///
/// * [`total`](Self::total) — every transition each net made while the cycle
///   settled, glitches included (the counts Eq. 1 charges for power);
/// * [`settled`](Self::settled) — the functional 0/1 transition counts, i.e.
///   whether the net's stable end-of-cycle value differs from the previous
///   cycle's (exactly what a zero-delay simulation reports).
///
/// The glitch activity of a net is the difference `total − settled`: the
/// transitions that exist only because unequal path delays let the net toggle
/// on the way to its final value. It is always even and non-negative (every
/// glitch is a there-and-back pulse), which [`glitch_on`](Self::glitch_on)
/// relies on.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GlitchActivity {
    total: CycleActivity,
    settled: CycleActivity,
}

impl GlitchActivity {
    /// Creates an all-zero record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        GlitchActivity {
            total: CycleActivity::zeroed(num_nets),
            settled: CycleActivity::zeroed(num_nets),
        }
    }

    /// Builds a record from explicit total and settled counts.
    ///
    /// # Panics
    ///
    /// Panics if the two records cover different net counts, or if any net's
    /// total count is below its settled count (a glitch count cannot be
    /// negative).
    pub fn from_counts(total: CycleActivity, settled: CycleActivity) -> Self {
        assert_eq!(
            total.per_net().len(),
            settled.per_net().len(),
            "total and settled records must cover the same nets"
        );
        assert!(
            total
                .per_net()
                .iter()
                .zip(settled.per_net())
                .all(|(t, s)| t >= s),
            "total transitions must dominate settled transitions"
        );
        GlitchActivity { total, settled }
    }

    /// Every transition of the cycle, glitches included.
    #[inline]
    pub fn total(&self) -> &CycleActivity {
        &self.total
    }

    /// The functional (zero-delay) 0/1 transition counts of the cycle.
    #[inline]
    pub fn settled(&self) -> &CycleActivity {
        &self.settled
    }

    /// Glitch transitions on one net this cycle (`total − settled`).
    #[inline]
    pub fn glitch_on(&self, net: NetId) -> u32 {
        self.total.transitions_on(net) - self.settled.transitions_on(net)
    }

    /// Total glitch transitions across all nets this cycle.
    pub fn total_glitch_transitions(&self) -> u64 {
        self.total.total_transitions() - self.settled.total_transitions()
    }

    pub(crate) fn total_mut(&mut self) -> &mut CycleActivity {
        &mut self.total
    }

    pub(crate) fn settled_mut(&mut self) -> &mut CycleActivity {
        &mut self.settled
    }
}

/// The glitch-decomposed switching activity of one clock cycle across the
/// [`LANES`](crate::LANES) lanes of a delay-aware bit-parallel simulation
/// (the word-wide analogue of [`GlitchActivity`]).
///
/// Three views of the same cycle coexist:
///
/// * **aggregate totals** — per net, the number of transitions summed over
///   all lanes ([`totals`](Self::totals)), maintained as one
///   [`u64::count_ones`] per committed change;
/// * **settled diff words** — per net, one `u64` whose bit `l` is set iff
///   the net's settled value changed in lane `l`
///   ([`settled_diff_words`](Self::settled_diff_words));
/// * **the event log** — every committed change as a `(net, lane-mask)`
///   pair in commit order ([`events`](Self::events)), from which any single
///   lane's exact per-net counts are reconstructed
///   ([`lane_activity_into`](Self::lane_activity_into)) without the
///   simulator having to maintain 64 dense count arrays on its hot path.
///
/// Glitch activity falls out exactly as in the scalar record:
/// `glitch = total − settled`, per net, per lane and in aggregate.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WordGlitchActivity {
    /// Per-net transition counts summed across all lanes.
    totals: Vec<u64>,
    /// Per-net settled diff words (bit `l` = lane `l`'s settled value
    /// changed this cycle).
    settled: Vec<u64>,
    /// Commit log of the cycle: every matured value change as
    /// `(net, lane mask)`, in commit order.
    events: Vec<(u32, u64)>,
    /// Nets with a non-zero aggregate total (sparse clearing).
    counted: Vec<u32>,
}

impl WordGlitchActivity {
    /// Creates an all-zero record for `num_nets` nets.
    pub fn zeroed(num_nets: usize) -> Self {
        WordGlitchActivity {
            totals: vec![0; num_nets],
            settled: vec![0; num_nets],
            events: Vec::new(),
            counted: Vec::new(),
        }
    }

    /// The number of nets this record covers.
    pub fn num_nets(&self) -> usize {
        self.totals.len()
    }

    /// Clears the previous cycle's counts (sparse) and log.
    pub(crate) fn begin_cycle(&mut self) {
        for &net in &self.counted {
            self.totals[net as usize] = 0;
        }
        self.counted.clear();
        self.events.clear();
    }

    /// Records one committed change: `mask` lanes of `net` flipped.
    #[inline]
    pub(crate) fn record(&mut self, net: u32, mask: u64) {
        debug_assert_ne!(mask, 0);
        let slot = &mut self.totals[net as usize];
        if *slot == 0 {
            self.counted.push(net);
        }
        *slot += u64::from(mask.count_ones());
        self.events.push((net, mask));
    }

    /// The dense settled-diff word array, for the simulator to fill.
    pub(crate) fn settled_words_mut(&mut self) -> &mut [u64] {
        &mut self.settled
    }

    /// Per-net transition counts summed across all lanes.
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Per-net settled diff words: bit `l` of word `i` is set iff net `i`'s
    /// settled value changed in lane `l`.
    pub fn settled_diff_words(&self) -> &[u64] {
        &self.settled
    }

    /// The commit log of the cycle: `(net, lane mask)` per committed change.
    pub fn events(&self) -> &[(u32, u64)] {
        &self.events
    }

    /// Total transitions across all nets and lanes this cycle.
    pub fn total_transitions(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Settled (functional) transitions across all nets and lanes.
    pub fn settled_transitions(&self) -> u64 {
        self.settled
            .iter()
            .map(|&w| u64::from(w.count_ones()))
            .sum()
    }

    /// Glitch transitions across all nets and lanes (`total − settled`).
    pub fn glitch_transitions(&self) -> u64 {
        self.total_transitions() - self.settled_transitions()
    }

    /// Total transitions of one lane across all nets.
    pub fn lane_total_transitions(&self, lane: usize) -> u64 {
        assert!(lane < 64, "lane index out of range");
        self.events
            .iter()
            .map(|&(_, mask)| (mask >> lane) & 1)
            .sum()
    }

    /// Settled transitions of one lane across all nets.
    pub fn lane_settled_transitions(&self, lane: usize) -> u64 {
        assert!(lane < 64, "lane index out of range");
        self.settled.iter().map(|&w| (w >> lane) & 1).sum()
    }

    /// Projects one lane out into a scalar [`GlitchActivity`], overwriting
    /// `out` completely. The projected record is bit-identical to what a
    /// scalar delay-aware simulation of that lane alone would have reported.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `out` covers a different net count.
    pub fn lane_activity_into(&self, lane: usize, out: &mut GlitchActivity) {
        assert!(lane < 64, "lane index out of range");
        assert_eq!(
            out.total().per_net().len(),
            self.totals.len(),
            "lane projection target must cover the same nets"
        );
        let totals = out.total_mut().per_net_mut();
        totals.fill(0);
        for &(net, mask) in &self.events {
            totals[net as usize] += ((mask >> lane) & 1) as u32;
        }
        let settled = out.settled_mut().per_net_mut();
        settled.fill(0);
        for &net in &self.counted {
            settled[net as usize] = ((self.settled[net as usize] >> lane) & 1) as u32;
        }
    }

    /// Allocating convenience wrapper around
    /// [`lane_activity_into`](Self::lane_activity_into).
    pub fn lane_activity(&self, lane: usize) -> GlitchActivity {
        let mut out = GlitchActivity::zeroed(self.totals.len());
        self.lane_activity_into(lane, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_activity_basic_accessors() {
        let mut a = CycleActivity::zeroed(4);
        a.per_net_mut()[1] = 2;
        a.per_net_mut()[3] = 1;
        assert_eq!(a.total_transitions(), 3);
        assert_eq!(a.active_nets(), 2);
        assert_eq!(a.transitions_on(NetId::from_index(1)), 2);
        a.reset();
        assert_eq!(a.total_transitions(), 0);
    }

    #[test]
    fn from_counts_round_trips() {
        let a = CycleActivity::from_counts(vec![1, 0, 3]);
        assert_eq!(a.per_net(), &[1, 0, 3]);
    }

    #[test]
    fn word_activity_per_net_aggregate() {
        let w = WordActivity::from_diff_words(vec![0, 0b1011, u64::MAX]);
        assert_eq!(w.transitions_on(NetId::from_index(0)), 0);
        assert_eq!(w.transitions_on(NetId::from_index(1)), 3);
        assert_eq!(w.transitions_on(NetId::from_index(2)), 64);
        assert_eq!(w.total_transitions(), 67);
    }

    #[test]
    fn glitch_activity_decomposes() {
        let total = CycleActivity::from_counts(vec![3, 1, 0, 2]);
        let settled = CycleActivity::from_counts(vec![1, 1, 0, 0]);
        let g = GlitchActivity::from_counts(total, settled);
        assert_eq!(g.glitch_on(NetId::from_index(0)), 2);
        assert_eq!(g.glitch_on(NetId::from_index(1)), 0);
        assert_eq!(g.glitch_on(NetId::from_index(3)), 2);
        assert_eq!(g.total_glitch_transitions(), 4);
        assert_eq!(g.total().total_transitions(), 6);
        assert_eq!(g.settled().total_transitions(), 2);
    }

    #[test]
    #[should_panic(expected = "dominate")]
    fn glitch_activity_rejects_negative_glitch() {
        GlitchActivity::from_counts(
            CycleActivity::from_counts(vec![0, 1]),
            CycleActivity::from_counts(vec![1, 1]),
        );
    }

    #[test]
    #[should_panic(expected = "same nets")]
    fn glitch_activity_rejects_mismatched_lengths() {
        GlitchActivity::from_counts(CycleActivity::zeroed(2), CycleActivity::zeroed(3));
    }
}
