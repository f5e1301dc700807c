//! Measurement shared by the applications: per-key histogram maps,
//! per-tenant event counters, and the transaction-window metrics the
//! figure benches consume.
//!
//! The figure apps (KVS, TPC-C, …) aggregate [`TxnRecord`]s over a
//! window; multi-tenant services (the `onepipe-log` pub/sub log) track
//! one [`TenantCounters`] per tenant in a [`TenantTable`] plus latency
//! histograms in a [`ByKey`]. Both are built on the same
//! [`Samples`] reservoir.

pub use onepipe_netsim::stats::Samples;
use std::collections::BTreeMap;

/// Histogram samples keyed by an arbitrary `Ord` key (transaction kind,
/// tenant id, shard id, …).
#[derive(Default)]
pub struct ByKey<K: Ord + Copy> {
    map: BTreeMap<K, Samples>,
}

impl<K: Ord + Copy> ByKey<K> {
    /// Empty map.
    pub fn new() -> Self {
        ByKey { map: BTreeMap::new() }
    }

    /// Record one sample under `key`.
    pub fn push(&mut self, key: K, v: f64) {
        self.map.entry(key).or_default().push(v);
    }

    /// Samples recorded under `key`, if any.
    pub fn get(&self, key: K) -> Option<&Samples> {
        self.map.get(&key)
    }

    /// Iterate `(key, samples)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Samples)> {
        self.map.iter()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All samples across keys, merged into one distribution.
    pub fn merged(&self) -> Samples {
        let mut all = Samples::new();
        for s in self.map.values() {
            for &v in s.values() {
                all.push(v);
            }
        }
        all
    }
}

/// Monotonic event counters for one tenant (stream) of a multi-tenant
/// service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Batches appended to the tenant's log.
    pub appends: u64,
    /// Payload bytes appended.
    pub bytes: u64,
    /// Duplicate batches dropped by the sequence gate.
    pub dup_drops: u64,
    /// Batches currently held waiting for a sequence gap to fill.
    pub held: u64,
    /// Peak held-for-gap depth ever observed.
    pub held_peak: u64,
    /// Admission attempts deferred because the credit window was
    /// exhausted (backpressure surfaced to the submitting client).
    pub stalls: u64,
    /// Records pushed to subscribers (live fan-out plus replay).
    pub fanout_records: u64,
}

impl TenantCounters {
    /// Record `held` and refresh the peak.
    pub fn set_held(&mut self, depth: u64) {
        self.held = depth;
        self.held_peak = self.held_peak.max(depth);
    }

    /// Fold another tenant's counters into this one (peaks take the max).
    pub fn merge(&mut self, o: &TenantCounters) {
        self.appends += o.appends;
        self.bytes += o.bytes;
        self.dup_drops += o.dup_drops;
        self.held += o.held;
        self.held_peak = self.held_peak.max(o.held_peak);
        self.stalls += o.stalls;
        self.fanout_records += o.fanout_records;
    }
}

/// Per-tenant counter table, indexed by tenant (stream) id.
///
/// A dense table: a touch is an index, and memory grows with the
/// largest tenant id ever touched, so callers bound tenant ids.
#[derive(Default)]
pub struct TenantTable {
    /// `None`: never touched.
    slots: Vec<Option<TenantCounters>>,
    touched: usize,
}

impl TenantTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable counters for `tenant`, created on first touch.
    pub fn tenant(&mut self, tenant: u64) -> &mut TenantCounters {
        let i = tenant as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.touched += 1;
        }
        slot.get_or_insert_with(TenantCounters::default)
    }

    /// Counters for `tenant`, if it was ever touched.
    pub fn get(&self, tenant: u64) -> Option<&TenantCounters> {
        self.slots.get(tenant as usize)?.as_ref()
    }

    /// Iterate `(tenant, counters)` in tenant order over touched tenants.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TenantCounters)> {
        (0u64..).zip(&self.slots).filter_map(|(id, c)| Some((id, c.as_ref()?)))
    }

    /// Number of tenants touched.
    pub fn len(&self) -> usize {
        self.touched
    }

    /// True when no tenant was touched.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// Sum of all tenants' counters (peaks are maxima, not sums).
    pub fn totals(&self) -> TenantCounters {
        let mut t = TenantCounters::default();
        for (_, c) in self.iter() {
            t.merge(c);
        }
        t
    }

    /// Fold another table into this one, tenant by tenant.
    pub fn merge(&mut self, o: &TenantTable) {
        for (id, c) in o.iter() {
            self.tenant(id).merge(c);
        }
    }
}

/// One completed transaction.
#[derive(Clone, Copy, Debug)]
pub struct TxnRecord {
    /// True time the transaction was issued.
    pub start: u64,
    /// True time it completed.
    pub end: u64,
    /// Classification: 0 = read-only, 1 = write-only, 2 = read-write
    /// (applications may use their own codes).
    pub kind: u8,
    /// Retries before success (aborts under OCC/locking).
    pub retries: u32,
}

/// Aggregated transaction metrics over a window.
pub struct TxnMetrics {
    /// Transactions per second (total).
    pub tput: f64,
    /// Latency samples (ns) per kind code.
    pub latency_by_kind: ByKey<u8>,
    /// All-latency samples (ns).
    pub latency: Samples,
    /// Mean retries per committed transaction.
    pub mean_retries: f64,
    /// Number of transactions in the window.
    pub count: usize,
}

impl TxnMetrics {
    /// Compute metrics from records completing within `[t0, t1]`.
    pub fn over_window(records: &[TxnRecord], t0: u64, t1: u64) -> TxnMetrics {
        let mut latency = Samples::new();
        let mut by_kind = ByKey::new();
        let mut retries = 0u64;
        let mut count = 0usize;
        for r in records {
            if r.end < t0 || r.end > t1 {
                continue;
            }
            count += 1;
            retries += r.retries as u64;
            let l = (r.end - r.start) as f64;
            latency.push(l);
            by_kind.push(r.kind, l);
        }
        let secs = ((t1 - t0) as f64 / 1e9).max(1e-12);
        TxnMetrics {
            tput: count as f64 / secs,
            latency_by_kind: by_kind,
            latency,
            mean_retries: if count == 0 { 0.0 } else { retries as f64 / count as f64 },
            count,
        }
    }

    /// Latency samples for a kind code, if any completed.
    pub fn kind(&self, k: u8) -> Option<&Samples> {
        self.latency_by_kind.get(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_metrics() {
        let records = vec![
            TxnRecord { start: 0, end: 1_000, kind: 0, retries: 0 },
            TxnRecord { start: 500, end: 2_000, kind: 2, retries: 1 },
            TxnRecord { start: 0, end: 99_999_999, kind: 0, retries: 0 }, // outside
        ];
        let m = TxnMetrics::over_window(&records, 0, 10_000);
        assert_eq!(m.count, 2);
        assert!((m.mean_retries - 0.5).abs() < 1e-9);
        assert!(m.kind(0).is_some());
        assert!(m.kind(2).is_some());
        assert!(m.kind(1).is_none());
        assert_eq!(m.latency.len(), 2);
    }

    #[test]
    fn by_key_groups_and_merges() {
        let mut b = ByKey::new();
        b.push(7u64, 1.0);
        b.push(7, 3.0);
        b.push(9, 5.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(7).unwrap().len(), 2);
        assert!(b.get(8).is_none());
        assert_eq!(b.merged().len(), 3);
        let keys: Vec<u64> = b.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![7, 9]);
    }

    #[test]
    fn tenant_counters_track_peaks_and_totals() {
        let mut t = TenantTable::new();
        t.tenant(1).appends = 5;
        t.tenant(1).bytes = 500;
        t.tenant(1).set_held(3);
        t.tenant(1).set_held(1);
        t.tenant(2).appends = 2;
        t.tenant(2).stalls = 4;
        assert_eq!(t.get(1).unwrap().held, 1);
        assert_eq!(t.get(1).unwrap().held_peak, 3);
        let tot = t.totals();
        assert_eq!(tot.appends, 7);
        assert_eq!(tot.stalls, 4);
        assert_eq!(tot.held_peak, 3);

        let mut other = TenantTable::new();
        other.tenant(2).appends = 1;
        other.tenant(3).dup_drops = 9;
        t.merge(&other);
        assert_eq!(t.get(2).unwrap().appends, 3);
        assert_eq!(t.get(3).unwrap().dup_drops, 9);
        assert_eq!(t.len(), 3);
        // Touches only: tenant 0 sits below the largest id but was never
        // touched, and reading does not touch.
        assert!(t.get(0).is_none() && t.get(99).is_none());
        let ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        t.tenant(0);
        assert_eq!(t.len(), 4);
    }
}
