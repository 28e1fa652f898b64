//! The open-loop query generator.
//!
//! One thread sends queries on a fixed-rate schedule whether or not
//! earlier ones were answered, as independent users would. The query mix
//! and the pairs it names are drawn from the benchmark seed, and only from
//! the long-term mesh's own pairs, so no query can be refused for naming
//! an unknown pair. Each query is timed from when it was *due*, so a stall
//! in the service also counts against the queries that queued behind it.

use s2s_types::ClusterId;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Queries per second the generator sends: over a thousand queries in
/// each `serve` iteration, so each has at least ten beyond its p99.
pub const RATE_HZ: f64 = 1000.0;

/// One scheduled query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// When it is due, seconds after the run starts.
    pub due_s: f64,
    /// The query line, in the service's line protocol.
    pub line: String,
}

/// The seeded, endless query schedule: query `k` is due at `k / rate`.
pub struct Schedule {
    state: u64,
    pairs: Vec<(ClusterId, ClusterId)>,
    rate_hz: f64,
    k: u64,
}

impl Schedule {
    /// A schedule over `pairs` (the mesh's directed pairs), from `seed`.
    pub fn new(seed: u64, pairs: Vec<(ClusterId, ClusterId)>, rate_hz: f64) -> Schedule {
        assert!(
            !pairs.is_empty(),
            "a query schedule needs pairs to ask about"
        );
        Schedule {
            state: seed ^ 0x10AD_6E4E_2A70_0001,
            pairs,
            rate_hz,
            k: 0,
        }
    }

    fn draw(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Iterator for Schedule {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let due_s = self.k as f64 / self.rate_hz;
        self.k += 1;
        let r = self.draw();
        let (src, dst) = self.pairs[(r >> 8) as usize % self.pairs.len()];
        let proto = if r & 0x80 == 0 { "v4" } else { "v6" };
        // Mix, in percent: pair 35, diurnal 20, changes 20, advice 15,
        // stats 10.
        let line = match r % 100 {
            0..=34 => format!("pair {} {} {proto}", src.0, dst.0),
            35..=54 => format!("diurnal {} {} {proto}", src.0, dst.0),
            55..=74 => format!("changes {} {} {proto}", src.0, dst.0),
            75..=89 => format!("advice {} {}", src.0, dst.0),
            _ => "stats".to_string(),
        };
        Some(Query { due_s, line })
    }
}

/// What the generator sent.
#[derive(Debug, Default)]
pub struct Sent {
    /// Due time of every query sent, seconds after the run start, in
    /// send order.
    pub due_s: Vec<f64>,
    /// Longest delay between a query's due time and its send, ms.
    pub late_ms_max: f64,
}

/// Sends `schedule` on `tx` at its due times until `done` is set, the
/// receiver hangs up, or `cap_s` seconds of schedule have passed. Drops
/// `tx` on return, which closes the service's input.
pub fn drive(
    schedule: Schedule,
    start: Instant,
    tx: Sender<String>,
    done: &AtomicBool,
    cap_s: f64,
) -> Sent {
    let mut sent = Sent::default();
    for q in schedule {
        if q.due_s > cap_s {
            break;
        }
        let due = start + Duration::from_secs_f64(q.due_s);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if done.load(Ordering::SeqCst) {
            break;
        }
        let late = Instant::now().saturating_duration_since(due);
        sent.late_ms_max = sent.late_ms_max.max(late.as_secs_f64() * 1e3);
        if tx.send(q.line).is_err() {
            break;
        }
        sent.due_s.push(q.due_s);
    }
    sent
}

/// A `Read` over a channel of lines: each received line reads back with a
/// trailing newline; a hung-up sender reads as end of input.
pub struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl ChannelReader {
    /// Reads the lines sent on `rx`'s channel.
    pub fn new(rx: Receiver<String>) -> ChannelReader {
        ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A `Write` that time-stamps every reply line (`ok …` / `err …`) as it
/// completes, and sets `done` once a `stats` reply shows the schedule's
/// last epoch folded, which is how the generator learns ingest is over.
pub struct ReplyLog<'a> {
    start: Instant,
    n_epochs: usize,
    done: &'a AtomicBool,
    pending: Vec<u8>,
    /// (seconds after start, reply was `ok`) per reply line, in order.
    pub replies: Vec<(f64, bool)>,
}

impl<'a> ReplyLog<'a> {
    /// A log for a service run started at `start` over `n_epochs` epochs.
    pub fn new(start: Instant, n_epochs: usize, done: &'a AtomicBool) -> ReplyLog<'a> {
        ReplyLog {
            start,
            n_epochs,
            done,
            pending: Vec::new(),
            replies: Vec::new(),
        }
    }

    /// Records one reply as sent now.
    pub fn reply(&mut self, line: &str) {
        let t = self.start.elapsed().as_secs_f64();
        self.replies.push((t, line.starts_with("ok ")));
        if stats_epochs(line).is_some_and(|e| e >= self.n_epochs) {
            self.done.store(true, Ordering::SeqCst);
        }
    }
}

impl Write for ReplyLog<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b != b'\n' {
                self.pending.push(b);
                continue;
            }
            let line = String::from_utf8_lossy(&self.pending).into_owned();
            if line.starts_with("ok ") || line.starts_with("err ") {
                self.reply(&line);
            }
            self.pending.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The epoch count in a `stats` reply.
fn stats_epochs(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("ok {\"cmd\":\"stats\",\"epochs\":")?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Per-query latency, ms, from each due time to its reply, matching the
/// `i`-th reply to the `i`-th query sent (the service answers in arrival
/// order). `Err` when the counts differ.
pub fn latencies_ms(due_s: &[f64], replies: &[(f64, bool)]) -> Result<Vec<f64>, String> {
    if due_s.len() != replies.len() {
        return Err(format!(
            "{} queries sent, {} replies",
            due_s.len(),
            replies.len()
        ));
    }
    Ok(due_s
        .iter()
        .zip(replies)
        .map(|(d, (r, _))| (r - d) * 1e3)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> Vec<(ClusterId, ClusterId)> {
        (0..10)
            .map(|i| (ClusterId::new(i), ClusterId::new(i + 1)))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a: Vec<Query> = Schedule::new(7, pairs(), RATE_HZ).take(500).collect();
        let b: Vec<Query> = Schedule::new(7, pairs(), RATE_HZ).take(500).collect();
        let c: Vec<Query> = Schedule::new(8, pairs(), RATE_HZ).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[1].due_s, 1.0 / RATE_HZ);
        for kind in ["pair ", "diurnal ", "changes ", "advice ", "stats"] {
            assert!(
                a.iter().any(|q| q.line.starts_with(kind)),
                "mix lacks {kind}"
            );
        }
    }

    #[test]
    fn reply_log_stamps_replies_and_spots_the_last_epoch() {
        let done = AtomicBool::new(false);
        let mut log = ReplyLog::new(Instant::now(), 8, &done);
        write!(log, "service: 4 slot(s)\nok {{\"cmd\":\"pair\"}}\nerr bad").unwrap();
        writeln!(log, " query").unwrap();
        writeln!(log, "ok {{\"cmd\":\"stats\",\"epochs\":7,\"records\":1}}").unwrap();
        assert!(!done.load(Ordering::SeqCst));
        writeln!(log, "ok {{\"cmd\":\"stats\",\"epochs\":8,\"records\":1}}").unwrap();
        assert!(done.load(Ordering::SeqCst));
        let oks: Vec<bool> = log.replies.iter().map(|r| r.1).collect();
        assert_eq!(oks, vec![true, false, true, true]);
        assert!(latencies_ms(&[0.0, 0.0, 0.0, 0.0], &log.replies).is_ok());
        assert!(latencies_ms(&[0.0], &log.replies).is_err());
    }

    #[test]
    fn channel_reader_yields_lines_then_eof() {
        use std::io::BufRead;
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send("stats".to_string()).unwrap();
        tx.send("pair 1 2 v4".to_string()).unwrap();
        drop(tx);
        let lines: Vec<String> = io::BufReader::new(ChannelReader::new(rx))
            .lines()
            .map(Result::unwrap)
            .collect();
        assert_eq!(lines, vec!["stats", "pair 1 2 v4"]);
    }
}
