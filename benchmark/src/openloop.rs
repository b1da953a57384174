//! The open-loop load generator: requests are sent on a seeded schedule
//! whether or not earlier ones have completed, and every latency is timed
//! from when the request was *due*, so a stall in the generator or a full
//! queue shows up in the latency of the requests behind it.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;

/// Arrival offsets (seconds from the step's start) of a Poisson process
/// of `rate` per second over `duration` seconds.
pub fn poisson_arrivals(rng: &mut SmallRng, rate: f64, duration: f64) -> Vec<f64> {
    let mut arrivals = Vec::with_capacity((rate * duration) as usize + 16);
    let mut at = 0.0;
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        at += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if at >= duration {
            return arrivals;
        }
        arrivals.push(at);
    }
}

/// The generator's view of time; the tests substitute a simulated clock.
pub trait Clock {
    /// Seconds since the step started.
    fn now(&mut self) -> f64;
    /// Block until `now() >= t` (returns at once if already past).
    fn wait_until(&mut self, t: f64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn wait_until(&mut self, t: f64) {
        loop {
            let left = t - self.now();
            if left <= 0.0 {
                return;
            }
            // Sleep through long gaps (a spinning generator would take a
            // core from the server under test); yield through short ones.
            if left > 100e-6 {
                std::thread::sleep(Duration::from_secs_f64(left - 50e-6));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One request as the generator issued it.
#[derive(Debug, PartialEq)]
pub struct Issued<R> {
    pub index: usize,
    /// When the request was due, seconds from the step's start.
    pub due_s: f64,
    /// How late the generator started submitting it.
    pub lag_s: f64,
    /// How long the submit call itself took.
    pub submit_s: f64,
    pub receipt: R,
}

/// Latency as a user who arrived at the due time saw it: the wait for the
/// generator ([`Issued::lag_s`]) plus the server's own sojourn.
pub fn latency_from_due_s(lag_s: f64, sojourn_s: f64) -> f64 {
    lag_s + sojourn_s
}

/// Submit request `i` at `arrivals[i]`, in order, never early; hand each
/// issued request to `sink`. A late generator submits immediately and
/// reports the lag instead of skipping or re-spacing the schedule.
pub fn drive<C: Clock, R>(
    clock: &mut C,
    arrivals: &[f64],
    mut submit: impl FnMut(usize, &mut C) -> R,
    mut sink: impl FnMut(Issued<R>),
) {
    for (index, &due_s) in arrivals.iter().enumerate() {
        clock.wait_until(due_s);
        let started = clock.now();
        let receipt = submit(index, clock);
        let submit_s = clock.now() - started;
        sink(Issued {
            index,
            due_s,
            lag_s: (started - due_s).max(0.0),
            submit_s,
            receipt,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rng, stream};

    /// Simulated time: waiting jumps the clock, submitting costs what the
    /// test says.
    struct SimClock(f64);

    impl Clock for SimClock {
        fn now(&mut self) -> f64 {
            self.0
        }

        fn wait_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn arrivals_are_seeded_ordered_and_near_the_rate() {
        let a = poisson_arrivals(&mut rng(1, stream::ARRIVALS), 1000.0, 10.0);
        let b = poisson_arrivals(&mut rng(1, stream::ARRIVALS), 1000.0, 10.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // 10k expected, standard deviation 100.
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert_ne!(
            a,
            poisson_arrivals(&mut rng(2, stream::ARRIVALS), 1000.0, 10.0)
        );
    }

    #[test]
    fn a_stalled_submit_delays_the_requests_behind_it() {
        // Due at 1, 2, 3, 10. Submitting request 0 stalls for 2.5 s; the
        // others take 0.1 s.
        let mut clock = SimClock(0.0);
        let mut issued = Vec::new();
        drive(
            &mut clock,
            &[1.0, 2.0, 3.0, 10.0],
            |i, clock: &mut SimClock| {
                clock.0 += if i == 0 { 2.5 } else { 0.1 };
                i * 10
            },
            |r| issued.push(r),
        );
        let lags: Vec<f64> = issued
            .iter()
            .map(|r| (r.lag_s * 10.0).round() / 10.0)
            .collect();
        // Request 1 was due at 2.0 but the generator was stuck until 3.5;
        // request 2 (due 3.0) went out at 3.6; request 3 was on time.
        assert_eq!(lags, vec![0.0, 1.5, 0.6, 0.0]);
        assert_eq!(issued[1].receipt, 10);
        assert!((issued[0].submit_s - 2.5).abs() < 1e-9);
        // Latency counts from the due time: lag plus the server's sojourn.
        assert!((latency_from_due_s(issued[1].lag_s, 0.25) - 1.75).abs() < 1e-9);
        assert!((latency_from_due_s(issued[3].lag_s, 0.25) - 0.25).abs() < 1e-9);
        assert_eq!(issued[3].due_s, 10.0);
    }

    #[test]
    fn the_generator_never_submits_early() {
        let mut clock = SimClock(0.0);
        let mut starts = Vec::new();
        drive(
            &mut clock,
            &[0.5, 0.6],
            |_, clock: &mut SimClock| starts.push(clock.0),
            |_| {},
        );
        assert_eq!(starts, vec![0.5, 0.6]);
    }
}
