//! Simulation primitives: the virtual clock, utilization-based resource
//! meters (CPU, disk), and a latency reservoir for percentile estimation.
//!
//! The engine simulates at transaction granularity: each transaction's
//! timeline is computed against shared [`ResourceMeter`]s. A meter tracks
//! busy-time in small time buckets; a request observes the trailing
//! utilization and pays a queueing delay that grows hyperbolically as the
//! resource saturates, which reproduces the first-order behaviour of an
//! M/M/c queue without simulating every I/O as a discrete event.

/// Virtual time in microseconds.
pub type Micros = u64;

/// One virtual second.
pub const SECOND: Micros = 1_000_000;

/// Buckets in a [`ResourceMeter`]'s ring: the 4-bucket utilization window
/// up to the current bucket, 11 reservable ahead of it and the one being
/// cleared. A constant, so slot arithmetic compiles to a mask.
const RING: usize = 16;

/// A multi-server resource (CPU cores, SSD channels) with utilization-based
/// queueing.
#[derive(Debug, Clone)]
pub struct ResourceMeter {
    /// Number of parallel servers.
    servers: f64,
    /// Bucket width in microseconds.
    bucket_us: Micros,
    /// Busy microseconds per bucket (may include reserved future load).
    /// Bucket `b` lives at slot `b % RING`; slots are recycled as the
    /// clock advances.
    ring: [f64; RING],
    /// Most recent bucket the meter has advanced to.
    current_bucket: u64,
    /// Exponent of the queueing-delay curve: higher values delay the onset
    /// of queueing (multi-server resources queue only near saturation).
    contention_exp: f64,
    /// Total busy microseconds ever added (for utilization metrics).
    total_busy: f64,
}

impl ResourceMeter {
    /// Creates a meter with the given parallelism. `contention_exp` should
    /// be ~2 for single-server devices and larger for multi-server pools.
    pub fn new(servers: f64, bucket_us: Micros, contention_exp: f64) -> Self {
        assert!(servers > 0.0);
        assert!(bucket_us > 0);
        ResourceMeter {
            servers,
            bucket_us,
            ring: [0.0; RING],
            current_bucket: 0,
            contention_exp,
            total_busy: 0.0,
        }
    }

    fn advance(&mut self, now: Micros) {
        let bucket = now / self.bucket_us;
        while self.current_bucket < bucket {
            self.current_bucket += 1;
            // The bucket that just became reachable as the farthest future
            // slot still holds data from one ring-length ago; clear it.
            // (Its previous occupant, bucket current-5, is already outside
            // the 4-bucket utilization window, so nothing live is lost.)
            let stale = (self.current_bucket as usize + RING - 5) % RING;
            self.ring[stale] = 0.0;
        }
    }

    fn slot_for(&self, bucket: u64) -> Option<usize> {
        if bucket <= self.current_bucket {
            let back = (self.current_bucket - bucket) as usize;
            if back > 3 {
                return None; // too old to matter
            }
        } else {
            let ahead = (bucket - self.current_bucket) as usize;
            if ahead >= RING - 4 {
                return None; // beyond the reservation horizon
            }
        }
        Some(bucket as usize % RING)
    }

    /// Trailing utilization over the (up to) 4 most recent buckets.
    pub fn utilization(&self, now: Micros) -> f64 {
        let bucket = now / self.bucket_us;
        let mut busy = 0.0;
        let mut counted = 0u32;
        for b in bucket.saturating_sub(3)..=bucket {
            if let Some(slot) = self.slot_for(b) {
                busy += self.ring[slot];
                counted += 1;
            }
        }
        if counted == 0 {
            return 0.0;
        }
        busy / (f64::from(counted) * self.bucket_us as f64 * self.servers)
    }

    /// Executes a foreground request of `service_us` at `now`; returns the
    /// total latency (service + queueing delay).
    ///
    /// Transactions are simulated at transaction granularity, so a request
    /// may arrive slightly "in the past" of the meter's clock (an earlier-
    /// starting transaction already advanced it); such requests are charged
    /// to the oldest bucket still in the window.
    pub fn request(&mut self, now: Micros, service_us: f64) -> f64 {
        debug_assert!(service_us >= 0.0);
        self.advance(now);
        let rho = self.utilization(now).min(0.98);
        let queue_factor = rho.powf(self.contention_exp) / (1.0 - rho);
        let bucket = (now / self.bucket_us).max(self.current_bucket.saturating_sub(3));
        let slot = self.slot_for(bucket).expect("clamped bucket is always in the window");
        self.ring[slot] += service_us;
        self.total_busy += service_us;
        service_us * (1.0 + queue_factor.min(40.0))
    }

    /// Reserves background load (daemon work) spread uniformly over
    /// `[start, start + duration_us)`. Background load raises utilization
    /// seen by foreground requests but has no latency of its own.
    pub fn add_background(&mut self, start: Micros, total_service_us: f64, duration_us: Micros) {
        self.advance(start);
        let duration = duration_us.max(self.bucket_us);
        let first = start / self.bucket_us;
        let last = (start + duration) / self.bucket_us;
        let n = (last - first + 1) as f64;
        let per_bucket = total_service_us / n;
        // `slot_for` rejects every bucket past the reservation horizon,
        // so the walk ends there: a throttled vacuum pass of 10^15 µs
        // spans ~10^11 buckets and lands in a dozen slots. `n` keeps
        // the unclamped count, so what each slot receives is unchanged.
        let horizon = self.current_bucket + RING as u64 - 5;
        for b in first..=last.min(horizon) {
            if let Some(slot) = self.slot_for(b) {
                self.ring[slot] += per_bucket;
            }
        }
        self.total_busy += total_service_us;
    }

    /// Total busy microseconds accumulated since construction.
    pub fn total_busy_us(&self) -> f64 {
        self.total_busy
    }
}

/// Fixed-capacity reservoir of latency samples for percentile estimation.
#[derive(Debug, Clone)]
pub struct LatencyReservoir {
    samples: Vec<f64>,
    seen: u64,
    cap: usize,
    state: u64,
}

impl LatencyReservoir {
    /// Creates a reservoir holding at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0);
        LatencyReservoir {
            samples: Vec::with_capacity(cap.min(4096)),
            seen: 0,
            cap,
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Records one latency observation (Vitter's Algorithm R).
    pub fn record(&mut self, latency_us: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(latency_us);
        } else {
            let idx = (self.next_u64() % self.seen) as usize;
            if idx < self.cap {
                self.samples[idx] = latency_us;
            }
        }
    }

    /// Number of observations recorded (not retained).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Percentile estimate (q in `[0, 100]`); `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.percentiles([q]).map(|[p]| p)
    }

    /// Several percentile estimates off one sort of the samples.
    pub fn percentiles<const N: usize>(&self, qs: [f64; N]) -> Option<[f64; N]> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
        Some(qs.map(|q| {
            assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
            llamatune_math::stats::percentile_sorted(&sorted, q)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`ResourceMeter::add_background`] as it was before its loop was
    /// clamped to the reservation horizon: every bucket of the pass is
    /// offered to `slot_for`.
    fn add_background_reference(
        m: &mut ResourceMeter,
        start: Micros,
        total: f64,
        duration: Micros,
    ) {
        m.advance(start);
        let duration = duration.max(m.bucket_us);
        let first = start / m.bucket_us;
        let last = (start + duration) / m.bucket_us;
        let per_bucket = total / (last - first + 1) as f64;
        for b in first..=last {
            if let Some(slot) = m.slot_for(b) {
                m.ring[slot] += per_bucket;
            }
        }
        m.total_busy += total;
    }

    proptest! {
        /// Passes of up to a few thousand buckets, starting ahead of,
        /// inside and behind the meter's window: the ring and the busy
        /// total are the unclamped loop's, bit for bit, after each.
        #[test]
        fn clamped_background_matches_the_unclamped_walk_bit_for_bit(
            passes in proptest::collection::vec(
                (0u64..400_000, 0.0f64..1e7, 0u64..30_000_000),
                1..12,
            ),
        ) {
            let mut clamped = ResourceMeter::new(2.0, 10_000, 3.0);
            let mut reference = clamped.clone();
            for (start, total, duration) in passes {
                clamped.add_background(start, total, duration);
                add_background_reference(&mut reference, start, total, duration);
                let bits = |m: &ResourceMeter| m.ring.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&clamped), bits(&reference));
                prop_assert_eq!(clamped.total_busy.to_bits(), reference.total_busy.to_bits());
                prop_assert_eq!(clamped.current_bucket, reference.current_bucket);
            }
        }
    }

    /// The pass `VacuumPacing::plan` answers `vacuum_cost_limit = 1`,
    /// `vacuum_cost_page_hit = 10 000` and a 100 ms delay with: ~10^11
    /// buckets, which the unclamped loop walked for twenty minutes.
    #[test]
    fn a_pass_of_ten_to_the_fifteen_microseconds_returns_at_once() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        let t = std::time::Instant::now();
        m.add_background(50_000, 4.0e9, 1_000_000_000_000_000);
        assert!(t.elapsed().as_secs() < 1, "walked the whole pass: {:?}", t.elapsed());
        assert_eq!(m.total_busy_us(), 4.0e9);
        // Twelve reachable buckets (the current one and eleven ahead),
        // each with its 1/(10^11 + 1) share.
        let share = 4.0e9 / 100_000_000_001.0;
        assert_eq!(m.ring.iter().filter(|v| **v == share).count(), 12);
        assert_eq!(m.ring.iter().filter(|v| **v == 0.0).count(), 4);
    }

    #[test]
    fn idle_resource_has_no_queueing() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        let lat = m.request(0, 100.0);
        assert!((lat - 100.0).abs() < 1e-9, "idle latency {lat}");
    }

    #[test]
    fn saturation_inflates_latency() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        // Saturate the current window.
        for t in 0..40 {
            m.request(t * 1_000, 900.0);
        }
        let busy_lat = m.request(40_000, 100.0);
        assert!(busy_lat > 150.0, "expected queueing, got {busy_lat}");

        // After a long idle gap the meter decays back to idle.
        let idle_lat = m.request(2_000_000, 100.0);
        assert!((idle_lat - 100.0).abs() < 1.0, "idle latency {idle_lat}");
    }

    #[test]
    fn multi_server_queues_later_than_single() {
        let mut single = ResourceMeter::new(1.0, 10_000, 2.0);
        let mut multi = ResourceMeter::new(10.0, 10_000, 4.0);
        for t in 0..40 {
            single.request(t * 1_000, 900.0);
            multi.request(t * 1_000, 900.0);
        }
        let s = single.request(40_000, 100.0);
        let m = multi.request(40_000, 100.0);
        assert!(m < s, "10-way resource should queue less: single={s} multi={m}");
    }

    #[test]
    fn background_load_raises_utilization() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        assert!(m.utilization(5_000) < 0.01);
        m.add_background(0, 30_000.0, 40_000);
        assert!(m.utilization(5_000) > 0.5);
        // Foreground requests see the background pressure.
        let lat = m.request(5_000, 100.0);
        assert!(lat > 150.0);
    }

    #[test]
    fn utilization_window_rolls_forward() {
        let mut m = ResourceMeter::new(1.0, 10_000, 2.0);
        m.request(0, 10_000.0);
        assert!(m.utilization(1_000) > 0.2);
        // 10 buckets later the old busy time is out of the window.
        m.advance(100_000);
        assert!(m.utilization(100_000) < 0.01);
    }

    #[test]
    fn total_busy_accumulates() {
        let mut m = ResourceMeter::new(2.0, 10_000, 3.0);
        m.request(0, 50.0);
        m.add_background(0, 150.0, 20_000);
        assert!((m.total_busy_us() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_exact_percentiles_under_capacity() {
        let mut r = LatencyReservoir::new(1000, 42);
        for i in 1..=100 {
            r.record(i as f64);
        }
        assert_eq!(r.count(), 100);
        let p50 = r.percentile(50.0).unwrap();
        assert!((p50 - 50.5).abs() < 1.0, "p50 {p50}");
        let p95 = r.percentile(95.0).unwrap();
        assert!((p95 - 95.0).abs() < 1.5, "p95 {p95}");
    }

    #[test]
    fn reservoir_approximates_after_overflow() {
        let mut r = LatencyReservoir::new(512, 7);
        for i in 0..50_000 {
            r.record((i % 1000) as f64);
        }
        assert_eq!(r.count(), 50_000);
        let p50 = r.percentile(50.0).unwrap();
        assert!((p50 - 500.0).abs() < 80.0, "p50 {p50}");
    }

    #[test]
    fn empty_reservoir_has_no_percentile() {
        let r = LatencyReservoir::new(8, 1);
        assert!(r.percentile(95.0).is_none());
    }
}
