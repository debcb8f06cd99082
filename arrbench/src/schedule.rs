//! Open-loop schedules: request `i` is due at `i / rate` seconds after the
//! phase starts, whether or not earlier requests have completed. Every
//! request is timed from its due time, so a stall also charges the wait
//! it imposes on the requests queued behind it, and the generator's own
//! lateness (send time minus due time) is recorded next to it.

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `rate_per_s` requests per second (must be positive).
    pub fn at_rate(rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule {
            interval_ns: (1e9 / rate_per_s).round().max(1.0) as u64,
        }
    }

    /// Due time of request `i`, ns after the phase start.
    pub fn due_ns(&self, i: usize) -> u64 {
        i as u64 * self.interval_ns
    }

    /// Requests due within the first `seconds` of the phase.
    pub fn count_within(&self, seconds: f64) -> usize {
        ((seconds * 1e9) / self.interval_ns as f64).floor() as usize
    }
}

/// Per-request timings of one open-loop phase, in µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopLog {
    /// Completion minus due time: the latency a user sees.
    pub latency_us: Vec<f64>,
    /// Send minus due time: how late the generator ran.
    pub lateness_us: Vec<f64>,
    /// Completion minus send time: the round trip alone.
    pub rtt_us: Vec<f64>,
}

impl OpenLoopLog {
    /// Appends another phase's timings.
    pub fn extend(&mut self, other: OpenLoopLog) {
        self.latency_us.extend(other.latency_us);
        self.lateness_us.extend(other.lateness_us);
        self.rtt_us.extend(other.rtt_us);
    }

    /// Records one request from its due, send and completion times (ns
    /// since the phase start).
    pub fn record(&mut self, due_ns: u64, sent_ns: u64, done_ns: u64) {
        let us = |a: u64, b: u64| a.saturating_sub(b) as f64 / 1e3;
        self.latency_us.push(us(done_ns, due_ns));
        self.lateness_us.push(us(sent_ns, due_ns));
        self.rtt_us.push(us(done_ns, sent_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::at_rate(2000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 1_500_000);
        assert_eq!(s.count_within(1.0), 2000);
        assert_eq!(s.count_within(0.0), 0);
    }

    /// Serial sender: request `i` goes out at max(due, previous completion)
    /// and takes `service[i]` ns.
    fn serial(schedule: Schedule, service: &[u64]) -> OpenLoopLog {
        let mut log = OpenLoopLog::default();
        let mut free_at = 0;
        for (i, &cost) in service.iter().enumerate() {
            let due = schedule.due_ns(i);
            let sent = due.max(free_at);
            free_at = sent + cost;
            log.record(due, sent, free_at);
        }
        log
    }

    #[test]
    fn a_stall_makes_later_requests_late_and_counts_their_wait() {
        // 1 request per ms; the second takes 3.5 ms.
        let s = Schedule::at_rate(1000.0);
        let log = serial(s, &[100_000, 3_500_000, 100_000, 100_000, 100_000]);
        assert_eq!(log.lateness_us, vec![0.0, 0.0, 2500.0, 1600.0, 700.0]);
        assert_eq!(log.latency_us, vec![100.0, 3500.0, 2600.0, 1700.0, 800.0]);
        assert_eq!(log.rtt_us, vec![100.0, 3500.0, 100.0, 100.0, 100.0]);
    }

    #[test]
    fn early_completion_is_never_negative() {
        let mut log = OpenLoopLog::default();
        log.record(1000, 500, 900);
        assert_eq!(log.lateness_us, vec![0.0]);
        assert_eq!(log.latency_us, vec![0.0]);
        assert_eq!(log.rtt_us, vec![0.4]);
    }
}
