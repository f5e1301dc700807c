//! Capped exponential backoff for control-plane requests.
//!
//! Every client of the controller — a host or a switch, over UDP or on
//! the simulator's modelled management network — re-sends requests that
//! must reach the controller *log* on this policy ([`CtrlClient`]): send,
//! wait, and if no commit ack arrives, re-send with exponentially growing
//! delays up to a cap and a bounded attempt count. Bounding matters in
//! both directions: no unbounded spin against a dead controller cluster,
//! and no silent drop — the client counts exhaustion. A client that must
//! never give up (a switch's Detect reports, on both transports) says so
//! with `max_attempts: u32::MAX`.
//!
//! [`CtrlClient`]: crate::client::CtrlClient

/// A capped exponential backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry (ns).
    pub base: u64,
    /// Upper bound on any single delay (ns).
    pub cap: u64,
    /// Total attempts (first try included). After this many the request
    /// is abandoned and the caller must report the drop.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Backoff after `attempt` tries have already been made (so the delay
    /// before attempt `attempt + 1`): `min(base << (attempt-1), cap)`.
    /// `attempt == 0` means nothing has been sent yet — no delay.
    pub fn delay(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let shift = (attempt - 1).min(32);
        self.base.saturating_mul(1u64 << shift).min(self.cap)
    }

    /// Whether the request is out of attempts.
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_then_cap() {
        let p = RetryPolicy { base: 10, cap: 80, max_attempts: 7 };
        let delays: Vec<u64> = (0..7).map(|a| p.delay(a)).collect();
        assert_eq!(delays, vec![0, 10, 20, 40, 80, 80, 80]);
    }

    #[test]
    fn exhaustion_is_bounded() {
        let p = RetryPolicy { base: 1, cap: 4, max_attempts: 3 };
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
    }

    #[test]
    fn no_overflow_at_large_attempts() {
        let p = RetryPolicy { base: u64::MAX / 2, cap: u64::MAX, max_attempts: 100 };
        assert_eq!(p.delay(99), u64::MAX);
    }
}
