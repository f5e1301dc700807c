//! Output checks. A failed check makes the command exit non-zero.
//!
//! The checker sees plain data only (the adapter in `sut.rs` converts the
//! crates' records), so it can be unit-tested with hand-made deliveries.

/// One application-level delivery, as the adapter reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Delivery time: sim clock (ns) on `sim_*`, harness wall clock on `udp_*`.
    pub at: u64,
    pub receiver: u32,
    /// Total-order key `(timestamp, sender, sender-local sequence)`.
    pub ts: u64,
    pub sender: u32,
    pub seq: u64,
    pub reliable: bool,
    /// Op id carried in the payload; `None` for a payload that is not ours.
    pub op: Option<u64>,
}

/// Checks a delivery log as it streams past: per receiver the order keys
/// must strictly increase (total order and at-most-once in one test), and
/// every op must reach each of its receivers exactly `expect` times.
pub struct OrderChecker {
    last_key: Vec<Option<(u64, u32, u64)>>,
    /// Deliveries seen per op id.
    seen: Vec<u32>,
    fingerprint: u64,
    pub deliveries: u64,
    pub failures: Vec<String>,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Cap on recorded failure messages: one is enough to fail the run.
const MAX_FAILURE_MESSAGES: usize = 8;

impl OrderChecker {
    pub fn new(receivers: usize, ops: usize) -> Self {
        OrderChecker {
            last_key: vec![None; receivers],
            seen: vec![0; ops],
            fingerprint: FNV_OFFSET,
            deliveries: 0,
            failures: Vec::new(),
        }
    }

    /// Make room for `n` more op ids (a closed loop issues ops as it goes).
    pub fn add_ops(&mut self, n: usize) {
        self.seen.resize(self.seen.len() + n, 0);
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(msg);
        } else if self.failures.len() == MAX_FAILURE_MESSAGES {
            self.failures.push("further failures not listed".to_string());
        }
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.fingerprint = (self.fingerprint ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Observe one delivery. `with_time` folds the delivery time into the
    /// fingerprint: true on the simulator, whose clock must repeat exactly.
    pub fn observe(&mut self, d: &Delivery, with_time: bool) {
        self.deliveries += 1;
        let key = (d.ts, d.sender, d.seq);
        let r = d.receiver as usize;
        match self.last_key.get(r).copied() {
            None => self.fail(format!("delivery to unknown receiver {r}")),
            Some(Some(prev)) if key <= prev => self.fail(format!(
                "receiver {r}: order key {key:?} delivered after {prev:?} (total order / at-most-once)"
            )),
            Some(_) => self.last_key[r] = Some(key),
        }
        match d.op.and_then(|op| self.seen.get_mut(op as usize)) {
            Some(count) => *count += 1,
            None => self.fail(format!("receiver {r}: delivery {key:?} carries no scheduled op id")),
        }
        for v in [d.receiver as u64, d.ts, d.sender as u64, d.seq, d.op.unwrap_or(u64::MAX)] {
            self.mix(v);
        }
        if with_time {
            self.mix(d.at);
        }
    }

    /// Require every op to have been delivered exactly `expect` times
    /// (its fan-out). Returns how many deliveries are missing.
    pub fn finish(&mut self, expect: u32) -> u64 {
        let mut missing = 0u64;
        let mut wrong = Vec::new();
        for (op, &n) in self.seen.iter().enumerate() {
            if n != expect {
                missing += expect.saturating_sub(n) as u64;
                wrong.push((op, n));
            }
        }
        for (op, n) in wrong {
            self.fail(format!("op {op}: delivered {n} times, expected {expect}"));
        }
        missing
    }

    /// FNV-1a over the delivery log in delivery order.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(receiver: u32, ts: u64, sender: u32, seq: u64, op: u64) -> Delivery {
        Delivery { at: ts + 8_000, receiver, ts, sender, seq, reliable: true, op: Some(op) }
    }

    fn clean_log() -> Vec<Delivery> {
        vec![d(0, 100, 1, 0, 0), d(1, 100, 1, 0, 0), d(0, 100, 2, 0, 1), d(1, 100, 2, 0, 1)]
    }

    fn run(log: &[Delivery]) -> OrderChecker {
        let mut c = OrderChecker::new(2, 2);
        for x in log {
            c.observe(x, true);
        }
        c.finish(2);
        c
    }

    #[test]
    fn a_correct_log_passes() {
        let c = run(&clean_log());
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert_eq!(c.deliveries, 4);
        assert_eq!(c.fingerprint(), run(&clean_log()).fingerprint());
    }

    #[test]
    fn a_swapped_pair_is_caught() {
        let mut log = clean_log();
        log.swap(0, 2); // receiver 0 now sees sender 2 before sender 1
        let c = run(&log);
        assert!(c.failures.iter().any(|f| f.contains("total order")), "{:?}", c.failures);
        assert_ne!(c.fingerprint(), run(&clean_log()).fingerprint());
    }

    #[test]
    fn a_duplicated_delivery_is_caught() {
        let mut log = clean_log();
        log.push(log[3]);
        let c = run(&log);
        assert!(c.failures.iter().any(|f| f.contains("at-most-once")), "{:?}", c.failures);
        assert!(c.failures.iter().any(|f| f.contains("delivered 3 times")), "{:?}", c.failures);
    }

    #[test]
    fn a_lost_delivery_is_counted() {
        let mut c = OrderChecker::new(2, 2);
        for x in &clean_log()[..3] {
            c.observe(x, true);
        }
        assert_eq!(c.finish(2), 1);
        assert!(!c.failures.is_empty());
    }

    #[test]
    fn a_foreign_payload_is_caught() {
        let mut c = OrderChecker::new(1, 1);
        c.observe(&Delivery { op: None, ..d(0, 1, 0, 0, 0) }, false);
        assert!(c.failures.iter().any(|f| f.contains("no scheduled op id")));
    }
}
