//! Open-loop load generation.
//!
//! Requests fall due on a fixed, evenly spaced schedule whatever the
//! server does. A sender thread claims the next due request, sleeps
//! until it is due and sends it; when every sender is busy the request
//! goes out late. Latency is counted from the due time, so a stall also
//! charges the wait it imposes on the requests behind it, and the
//! senders' own lateness is reported so a run whose generator could not
//! keep its schedule can be recognised.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Due offsets of `rate` requests per second over `span`.
pub fn schedule(rate: f64, span: Duration) -> Vec<Duration> {
    let count = (rate * span.as_secs_f64()).floor() as usize;
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// One request's timeline, as offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// Index into the schedule.
    pub index: usize,
    /// When the request was due.
    pub due: Duration,
    /// When a sender actually sent it.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
    /// What the send returned.
    pub result: R,
}

impl<R> Timed<R> {
    /// Milliseconds from due to reply.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Milliseconds the generator sent the request after it was due.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Send every request of `due` from `senders` threads, starting the
/// schedule at `start`; returns the timelines in schedule order.
pub fn run<R: Send>(
    start: Instant,
    due: &[Duration],
    senders: usize,
    send: impl Fn(usize) -> R + Sync,
) -> Vec<Timed<R>> {
    let next = AtomicUsize::new(0);
    let mut all: Vec<Timed<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = due.get(index) else {
                            break out;
                        };
                        let wake = start + offset;
                        let now = Instant::now();
                        if wake > now {
                            std::thread::sleep(wake - now);
                        }
                        let sent = start.elapsed();
                        let result = send(index);
                        out.push(Timed {
                            index,
                            due: offset,
                            sent,
                            done: start.elapsed(),
                            result,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect()
    });
    all.sort_by_key(|t| t.index);
    all
}

/// Send requests back to back from `senders` threads for about `span`:
/// each sender takes the next index as soon as its last request is
/// answered. Returns every request's index and result.
pub fn closed_loop<R: Send>(
    span: Duration,
    senders: usize,
    send: impl Fn(usize) -> R + Sync,
) -> Vec<(usize, R)> {
    let next = AtomicUsize::new(0);
    let end = Instant::now() + span;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        out.push((index, send(index)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(due_ms: u64, sent_ms: u64, done_ms: u64) -> Timed<()> {
        Timed {
            index: 0,
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(sent_ms),
            done: Duration::from_millis(done_ms),
            result: (),
        }
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let s = schedule(100.0, Duration::from_millis(50));
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], Duration::ZERO);
        assert_eq!(s[4], Duration::from_millis(40));
    }

    #[test]
    fn latency_counts_from_due_not_from_send() {
        // Sent 30 ms late, served in 5 ms: the user waited 35 ms.
        let t = timed(100, 130, 135);
        assert_eq!(t.latency_ms(), 35.0);
        assert_eq!(t.lateness_ms(), 30.0);
        // A sender that is early (clock granularity) is never negative.
        assert_eq!(timed(100, 99, 104).lateness_ms(), 0.0);
    }

    #[test]
    fn a_stalled_sender_makes_later_requests_late() {
        // One sender, a request due every 2 ms, each taking 6 ms: the
        // backlog grows, and the due-time latency shows it.
        let due = schedule(500.0, Duration::from_millis(20));
        let out = run(Instant::now(), &due, 1, |_| {
            std::thread::sleep(Duration::from_millis(6))
        });
        assert_eq!(out.len(), due.len());
        assert!(out.windows(2).all(|w| w[0].index + 1 == w[1].index));
        let last = out.last().expect("ten requests");
        assert!(
            last.lateness_ms() >= 30.0,
            "lateness {}",
            last.lateness_ms()
        );
        assert!(last.latency_ms() >= last.lateness_ms() + 6.0);
        assert!(out[0].lateness_ms() < 5.0);
    }

    #[test]
    fn senders_keep_a_light_schedule() {
        let due = schedule(200.0, Duration::from_millis(100));
        let out = run(Instant::now(), &due, 2, |i| i * 2);
        assert!(out.iter().all(|t| t.result == t.index * 2));
        // Nothing is sent before it is due.
        assert!(out.iter().all(|t| t.sent >= t.due));
    }

    #[test]
    fn closed_loop_senders_wait_for_each_reply() {
        // Two senders, 2 ms per request, 60 ms: about 60 requests, each
        // index sent once.
        let out = closed_loop(Duration::from_millis(60), 2, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i
        });
        assert!((20..=62).contains(&out.len()), "{} requests", out.len());
        let mut seen: Vec<usize> = out
            .iter()
            .map(|&(i, r)| {
                assert_eq!(i, r);
                i
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..out.len()).collect::<Vec<_>>());
    }
}
