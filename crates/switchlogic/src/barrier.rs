//! Per-switch barrier register state and the eq. (4.1) minimum.

use onepipe_types::ids::NodeId;
use onepipe_types::time::Timestamp;

/// A dense `NodeId` → slot map over a switch's links (node ids are small
/// and dense). Barrier observations and forwarding look a link up per
/// packet, so the lookup must not scan or hash.
#[derive(Clone, Debug)]
pub(crate) struct NodeSlots(Vec<u16>);

impl NodeSlots {
    /// The slot of each of `links` is its position; a link listed twice
    /// keeps its first.
    pub(crate) fn new(links: &[NodeId]) -> Self {
        assert!(links.len() < NO_SLOT as usize, "too many links");
        let mut slots = Vec::new();
        for (i, link) in links.iter().enumerate() {
            let id = link.0 as usize;
            if slots.len() <= id {
                slots.resize(id + 1, NO_SLOT);
            }
            if slots[id] == NO_SLOT {
                slots[id] = i as u16;
            }
        }
        NodeSlots(slots)
    }

    /// The slot of `link`, if it is one of the links.
    #[inline]
    pub(crate) fn get(&self, link: NodeId) -> Option<usize> {
        match self.0.get(link.0 as usize) {
            Some(&i) if i != NO_SLOT => Some(i as usize),
            _ => None,
        }
    }
}

/// [`NodeSlots`]' "not one of the links".
const NO_SLOT: u16 = u16::MAX;

/// Barrier bookkeeping for one logical switch.
///
/// Keeps two registers per input link — one for the best-effort barrier,
/// one for the commit barrier (paper §6.2.1: "2 state registers per input
/// link") — plus liveness tracking and monotonic output clamps.
#[derive(Clone, Debug)]
pub struct BarrierAggregator {
    inputs: Vec<NodeId>,
    /// Input slot of each input link.
    index: NodeSlots,
    /// The best-effort barrier. An input leaves its minimum by the
    /// decentralized timeout (§4.2), and its death is then reported to
    /// the controller (Detect, §5.2). Failure is by fiat from that point:
    /// even if the link revives (a healed partition, a falsely-accused
    /// process), its registers are frozen and it stays out of both
    /// minima until the controller explicitly re-admits it
    /// ([`Self::restore_input`]). Otherwise a zombie's barrier
    /// contributions could advance the commit barrier during the
    /// Announce→Resume window and release messages the announcement
    /// orders every receiver to discard.
    be: Minimum,
    /// The commit barrier. An input leaves its minimum only by the
    /// controller's Resume step (§5.2).
    commit: Minimum,
    /// Last time anything (data or beacon) was heard on each input link.
    last_heard: Vec<u64>,
}

/// One of the two barriers: a register per input link, the links left
/// out of the minimum, and the monotone output.
#[derive(Clone, Debug)]
struct Minimum {
    regs: Vec<Timestamp>,
    removed: Vec<bool>,
    /// Monotonic clamp on the output.
    out: Timestamp,
    /// Cached [`Self::out`] result, valid until the live set changes or
    /// a register that may be the minimum rises. Only populated when the
    /// result is independent of `now` (some input live), so serving it
    /// is exact. The chip rewrites barriers per forwarded packet but
    /// registers only change ~once per beacon interval, so this hits
    /// often.
    cache: Option<Timestamp>,
}

impl Minimum {
    fn new(n: usize) -> Self {
        Minimum {
            regs: vec![Timestamp::ZERO; n],
            removed: vec![false; n],
            out: Timestamp::ZERO,
            cache: None,
        }
    }

    /// Raise input `i`'s register to `barrier`.
    fn observe(&mut self, i: usize, barrier: Timestamp) {
        // FIFO links deliver non-decreasing barriers; clamp defensively so
        // a reordered packet cannot drag the register backwards. ZERO is
        // the "never heard" sentinel: the first real value replaces it
        // outright (deployment clocks may sit anywhere in the 48-bit
        // ring, where a ring-max against ZERO would misorder).
        let old = self.regs[i];
        let new = if old == Timestamp::ZERO { barrier } else { old.max(barrier) };
        // A register that sat strictly above the cached output was not
        // the minimum, so raising it cannot move the output. The ZERO
        // sentinel (never heard) may have been pinning it.
        let above_output = self.cache.is_some_and(|c| old != Timestamp::ZERO && old > c);
        if new != old {
            self.regs[i] = new;
            if !above_output {
                self.cache = None;
            }
        }
    }

    /// Leave input `i` out of the minimum, or take it back in.
    fn set_removed(&mut self, i: usize, removed: bool) {
        self.removed[i] = removed;
        self.cache = None;
    }

    /// `min` over the live inputs' registers, clamped monotone (eq. 4.1).
    /// `now` is the switch-local time: the min over an *empty* live set
    /// is unconstrained, so a switch whose entire subtree died emits its
    /// clock instead of pinning the network on a frozen register (the
    /// dead inputs' data is discarded by the failure announcement
    /// anyway).
    fn out(&mut self, now: u64) -> Timestamp {
        if let Some(c) = self.cache {
            return c;
        }
        let mut min: Option<Timestamp> = None;
        for (&reg, _) in self.regs.iter().zip(&self.removed).filter(|(_, &removed)| !removed) {
            if reg == Timestamp::ZERO {
                // A live link that has never reported pins the output at
                // "no information" (ring comparison against the ZERO
                // sentinel would be meaningless).
                self.cache = Some(self.out);
                return self.out;
            }
            min = Some(min.map_or(reg, |m| m.min(reg)));
        }
        // Some input is live: the output does not depend on `now`.
        let any_live = min.is_some();
        if !any_live && now != 0 {
            min = Some(Timestamp::from_raw(now));
        }
        if let Some(m) = min {
            self.out = if self.out == Timestamp::ZERO { m } else { self.out.max(m) };
        }
        if any_live {
            self.cache = Some(self.out);
        }
        self.out
    }
}

impl BarrierAggregator {
    /// Create an aggregator over the given input links. Registers start at
    /// [`Timestamp::ZERO`]: the output barrier cannot advance until every
    /// live input link has reported.
    pub fn new(inputs: Vec<NodeId>) -> Self {
        let n = inputs.len();
        BarrierAggregator {
            index: NodeSlots::new(&inputs),
            inputs,
            be: Minimum::new(n),
            commit: Minimum::new(n),
            last_heard: vec![0; n],
        }
    }

    /// The slot of a live input link; `Err(false)` for an unknown link,
    /// `Err(true)` for one reported dead and not yet re-admitted.
    fn live_slot(&self, link: NodeId) -> Result<usize, bool> {
        match self.index.get(link) {
            Some(i) if self.be.removed[i] => Err(true),
            Some(i) => Ok(i),
            None => Err(false),
        }
    }

    /// The input links this aggregator watches.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Record a best-effort barrier observation on an input link.
    /// Returns `false` if the link is unknown.
    pub fn observe_be(&mut self, from: NodeId, barrier: Timestamp, now: u64) -> bool {
        match self.live_slot(from) {
            Ok(i) => {
                self.be.observe(i, barrier);
                self.last_heard[i] = now;
                true
            }
            Err(known) => known,
        }
    }

    /// Record a commit barrier observation on an input link.
    pub fn observe_commit(&mut self, from: NodeId, barrier: Timestamp, now: u64) -> bool {
        match self.live_slot(from) {
            Ok(i) => {
                self.commit.observe(i, barrier);
                self.last_heard[i] = now;
                true
            }
            Err(known) => known,
        }
    }

    /// Record both barriers a data packet or beacon carries on an input
    /// link, with one slot lookup: [`Self::observe_be`] then
    /// [`Self::observe_commit`] in one call. Returns `false` if the link
    /// is unknown.
    #[inline]
    pub fn observe(&mut self, from: NodeId, be: Timestamp, commit: Timestamp, now: u64) -> bool {
        match self.live_slot(from) {
            Ok(i) => {
                self.be.observe(i, be);
                self.commit.observe(i, commit);
                self.last_heard[i] = now;
                true
            }
            Err(known) => known,
        }
    }

    /// Mark liveness on a link without a barrier value (e.g. a reliable
    /// data packet, which does not update barrier registers but proves the
    /// link is alive).
    #[inline]
    pub fn observe_alive(&mut self, from: NodeId, now: u64) {
        if let Ok(i) = self.live_slot(from) {
            self.last_heard[i] = now;
        }
    }

    /// Current outgoing best-effort barrier: `min` over live input links'
    /// registers, clamped monotone (eq. 4.1).
    #[inline]
    pub fn out_be(&mut self, now: u64) -> Timestamp {
        self.be.out(now)
    }

    /// Current outgoing commit barrier: `min` over commit-live input
    /// links. As with [`Self::out_be`], an empty live set (every input
    /// removed by the controller's Resume) imposes no constraint and the
    /// output tracks `now`.
    #[inline]
    pub fn out_commit(&mut self, now: u64) -> Timestamp {
        self.commit.out(now)
    }

    /// Find input links silent since `now − timeout` and remove them from
    /// the best-effort minimum. Returns the newly-dead links with the last
    /// commit barrier observed on each (the Detect report of §5.2).
    pub fn detect_dead(&mut self, now: u64, timeout: u64) -> Vec<(NodeId, Timestamp)> {
        let mut dead = Vec::new();
        for i in 0..self.inputs.len() {
            if !self.be.removed[i] && now.saturating_sub(self.last_heard[i]) > timeout {
                // The death is about to be reported: from here the input
                // is failed by fiat and may only rejoin via the
                // controller (`restore_input`).
                self.be.set_removed(i, true);
                dead.push((self.inputs[i], self.commit.regs[i]));
            }
        }
        dead
    }

    /// Remove an input link from the commit minimum (controller Resume).
    pub fn remove_commit_input(&mut self, from: NodeId) -> bool {
        let Some(i) = self.index.get(from) else { return false };
        self.commit.set_removed(i, true);
        true
    }

    /// Re-admit a recovered input link to both minima. Its registers keep
    /// their old values; the monotonic clamp hides them until the link
    /// catches up (§4.2 link-addition rule).
    pub fn restore_input(&mut self, from: NodeId, now: u64) -> bool {
        let Some(i) = self.index.get(from) else { return false };
        self.be.set_removed(i, false);
        self.commit.set_removed(i, false);
        self.last_heard[i] = now;
        true
    }

    /// Whether a given input link is currently excluded from the BE min.
    pub fn is_be_dead(&self, from: NodeId) -> bool {
        self.live_slot(from).is_err()
    }

    /// The best-effort register of one input link (telemetry).
    pub fn register_be(&self, from: NodeId) -> Option<Timestamp> {
        self.index.get(from).map(|i| self.be.regs[i])
    }

    /// The commit register of one input link (telemetry).
    pub fn register_commit(&self, from: NodeId) -> Option<Timestamp> {
        self.index.get(from).map(|i| self.commit.regs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_types::time::TIMESTAMP_MASK;
    use proptest::prelude::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    fn agg3() -> BarrierAggregator {
        BarrierAggregator::new(vec![NodeId(1), NodeId(2), NodeId(3)])
    }

    #[test]
    fn min_over_all_inputs() {
        let mut a = agg3();
        a.observe_be(NodeId(1), ts(100), 0);
        a.observe_be(NodeId(2), ts(50), 0);
        a.observe_be(NodeId(3), ts(80), 0);
        assert_eq!(a.out_be(0), ts(50));
        a.observe_be(NodeId(2), ts(120), 1);
        assert_eq!(a.out_be(0), ts(80));
    }

    #[test]
    fn stalls_until_every_link_reports() {
        let mut a = agg3();
        a.observe_be(NodeId(1), ts(100), 0);
        a.observe_be(NodeId(2), ts(100), 0);
        // Link 3 never reported → its register is ZERO → min is ZERO.
        assert_eq!(a.out_be(0), Timestamp::ZERO);
    }

    #[test]
    fn output_is_monotone_even_if_register_regresses() {
        let mut a = agg3();
        for n in 1..=3 {
            a.observe_be(NodeId(n), ts(100), 0);
        }
        assert_eq!(a.out_be(0), ts(100));
        // An out-of-order packet with an older barrier must not regress.
        a.observe_be(NodeId(2), ts(40), 1);
        assert_eq!(a.out_be(0), ts(100));
    }

    #[test]
    fn unknown_link_rejected() {
        let mut a = agg3();
        assert!(!a.observe_be(NodeId(9), ts(5), 0));
        assert!(!a.observe_commit(NodeId(9), ts(5), 0));
        assert!(!a.remove_commit_input(NodeId(9)));
        assert!(a.is_be_dead(NodeId(9)));
    }

    #[test]
    fn dead_link_detection_and_removal() {
        let mut a = agg3();
        a.observe_be(NodeId(1), ts(100), 1000);
        a.observe_be(NodeId(2), ts(90), 1000);
        a.observe_be(NodeId(3), ts(95), 10); // silent since t=10
        let dead = a.detect_dead(2000, 1500);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].0, NodeId(3));
        // With the dead link excluded, the barrier resumes increasing.
        assert_eq!(a.out_be(0), ts(90));
        // Detect is edge-triggered: a second scan (with the other links
        // still within their timeout) reports nothing new.
        assert!(a.detect_dead(2100, 1500).is_empty());
    }

    #[test]
    fn dead_link_reports_last_commit() {
        let mut a = agg3();
        a.observe_commit(NodeId(3), ts(77), 10);
        a.observe_be(NodeId(1), ts(100), 1000);
        a.observe_be(NodeId(2), ts(90), 1000);
        let dead = a.detect_dead(2000, 1500);
        assert_eq!(dead, vec![(NodeId(3), ts(77))]);
    }

    #[test]
    fn commit_min_waits_for_controller_resume() {
        let mut a = agg3();
        a.observe_commit(NodeId(1), ts(100), 0);
        a.observe_commit(NodeId(2), ts(90), 0);
        // Link 3 never commits: commit barrier stalls at ZERO...
        assert_eq!(a.out_commit(0), Timestamp::ZERO);
        a.detect_dead(10_000, 500); // BE removal does NOT unblock commit
        assert_eq!(a.out_commit(0), Timestamp::ZERO);
        // ...until the controller's Resume removes it.
        assert!(a.remove_commit_input(NodeId(3)));
        assert_eq!(a.out_commit(0), ts(90));
    }

    #[test]
    fn reported_dead_link_is_quarantined_until_restored() {
        let mut a = agg3();
        for n in 1..=3 {
            a.observe_be(NodeId(n), ts(100), 0);
            a.observe_commit(NodeId(n), ts(100), 0);
        }
        a.detect_dead(10_000, 500);
        assert!(a.is_be_dead(NodeId(1)));
        // The death was reported: a zombie speaking again must NOT rejoin
        // the minima or advance its frozen registers (fail-stop by fiat —
        // a healed partition cannot release uncommitted messages during
        // the Announce→Resume window).
        a.observe_be(NodeId(1), ts(200), 10_001);
        a.observe_commit(NodeId(1), ts(200), 10_001);
        a.observe_alive(NodeId(1), 10_002);
        assert!(a.is_be_dead(NodeId(1)));
        assert_eq!(a.register_commit(NodeId(1)), Some(ts(100)));
        // Only the controller re-admits it.
        a.restore_input(NodeId(1), 10_003);
        assert!(!a.is_be_dead(NodeId(1)));
        a.observe_commit(NodeId(1), ts(200), 10_004);
        assert_eq!(a.register_commit(NodeId(1)), Some(ts(200)));
    }

    #[test]
    fn restore_input_readmits_to_both_minima() {
        let mut a = agg3();
        for n in 1..=3 {
            a.observe_be(NodeId(n), ts(100), 0);
            a.observe_commit(NodeId(n), ts(100), 0);
        }
        a.remove_commit_input(NodeId(2));
        a.observe_commit(NodeId(1), ts(200), 1);
        a.observe_commit(NodeId(3), ts(200), 1);
        assert_eq!(a.out_commit(0), ts(200));
        // Restore: link 2's stale register (100) is below the clamp (200),
        // so the output holds at 200 until link 2 catches up.
        a.restore_input(NodeId(2), 2);
        assert_eq!(a.out_commit(0), ts(200));
        a.observe_commit(NodeId(2), ts(300), 3);
        a.observe_commit(NodeId(1), ts(300), 3);
        a.observe_commit(NodeId(3), ts(300), 3);
        assert_eq!(a.out_commit(0), ts(300));
    }

    #[test]
    fn alive_observation_defers_death() {
        let mut a = agg3();
        for n in 1..=3 {
            a.observe_be(NodeId(n), ts(10), 0);
        }
        a.observe_alive(NodeId(3), 1900); // reliable data keeps it alive
        let dead = a.detect_dead(2000, 500);
        assert_eq!(dead.len(), 2);
        assert!(!a.is_be_dead(NodeId(3)));
    }

    proptest! {
        /// The cached minima always equal a recompute from the registers,
        /// liveness and output clamps alone, whatever sequence of
        /// observations and membership changes led there, wherever in the
        /// timestamp ring the clocks sit.
        #[test]
        fn cached_minima_match_a_recompute(
            epoch in 0u64..TIMESTAMP_MASK,
            steps in proptest::collection::vec((0u8..6, 1u32..5, 0u64..1_000, 0u64..300), 1..200),
        ) {
            let mut a = BarrierAggregator::new(vec![NodeId(1), NodeId(2), NodeId(3)]);
            let mut now = epoch + 1_000;
            for (op, link, lag, dt) in steps {
                now += dt;
                // Link 4 is not an input.
                let (from, v) = (NodeId(link), Timestamp::from_raw(now - lag));
                match op {
                    0 => _ = a.observe_be(from, v, now),
                    1 => _ = a.observe_commit(from, v, now),
                    2 => a.observe_alive(from, now),
                    3 => _ = a.detect_dead(now, 500),
                    4 => _ = a.remove_commit_input(from),
                    _ => _ = a.restore_input(from, now),
                }
                let mut fresh = a.clone();
                fresh.be.cache = None;
                fresh.commit.cache = None;
                prop_assert_eq!(a.out_be(now), fresh.out_be(now));
                prop_assert_eq!(a.out_commit(now), fresh.out_commit(now));
            }
        }
    }
}
