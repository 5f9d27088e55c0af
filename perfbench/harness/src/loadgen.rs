//! Single-threaded load generator for `ldgm serve`.
//!
//! Open loop, requests are due on a fixed schedule (`rate` per second)
//! whatever the server does, and each latency is timed from when its
//! request was due, so a stall shows in every request queued behind it.
//! Closed loop, a fixed number of requests is in flight and each latency
//! is a round trip. Reads alternate over two connections; every update
//! goes on the second connection, so the server commits updates in the
//! order they were generated. The generator sleeps in `ppoll(2)` until
//! the next request is due or a response arrives.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use ldgm_core::UNMATCHED;
use ldgm_dyn::EdgeUpdate;
use ldgm_graph::csr::VertexId;
use ldgm_graph::Xoshiro256;

/// Every `UPDATE_EVERY`-th request is an update: a 90/10 read/update mix.
const UPDATE_EVERY: usize = 10;
/// How long requests are awaited after the last response before they
/// count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

mod sys {
    use std::ffi::{c_int, c_long, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(fds: *mut PollFd, n: c_ulong, t: *const Timespec, mask: *const c_void) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// Wait until a descriptor is ready or `timeout` passes.
    pub fn wait(fds: &mut [PollFd], timeout: std::time::Duration) {
        let t = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
        // pollfd records and its length is passed alongside; `t` outlives
        // the call; a null signal mask leaves the mask unchanged.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &t, std::ptr::null()) };
    }

    /// Wake this thread's timed sleeps within 1 us of their deadline
    /// instead of the default 50 us slack.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (nanoseconds)
        // and only changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1000 as c_ulong) };
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Read(VertexId),
    Update(usize),
}

struct Sent {
    due: Instant,
    kind: Kind,
}

/// One client connection with its unsent bytes, unparsed response bytes
/// and requests awaiting their response, in send order.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<Sent>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        Ok(Conn { stream, out: Vec::new(), inbuf: Vec::new(), inflight: VecDeque::new() })
    }

    /// One blocking request/response exchange (control ops).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        let framed = format!("{}\n", line.trim_end());
        self.stream.write_all(framed.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut buf = [0u8; 65536];
        loop {
            if let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
                return String::from_utf8(line).map_err(|e| e.to_string());
            }
            let n = self.stream.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.inbuf.extend_from_slice(&buf[..n]);
        }
    }

    fn flush_out(&mut self) -> Result<(), String> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Move every available byte into `inbuf`; `Ok(true)` if any arrived.
    fn fill(&mut self) -> Result<bool, String> {
        let mut buf = [0u8; 65536];
        let mut any = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct Phase {
    pub read_us: Vec<f64>,
    pub update_us: Vec<f64>,
    /// How late each request was sent after it was due.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    /// Non-`ok` responses, unanswered requests, and epoch-0 reads that
    /// disagree with the reference.
    pub failed: u64,
    /// Indices into the update list of the updates the server admitted.
    pub admitted: Vec<usize>,
    pub first_error: Option<String>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// The request stream: uniformly random read vertices from a seeded RNG
/// and updates taken in order from a pre-generated `UpdateStream` list.
pub struct Traffic<'a> {
    pub rng: Xoshiro256,
    pub n: u64,
    pub updates: &'a [EdgeUpdate],
    pub next_update: usize,
}

impl Traffic<'_> {
    /// The `i`-th request of the mix: its connection, kind and wire line.
    fn request(&mut self, i: usize) -> (usize, Kind, String) {
        if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
            let k = self.next_update % self.updates.len();
            self.next_update += 1;
            (1, Kind::Update(k), update_line(&self.updates[k]))
        } else {
            let v = self.rng.below(self.n) as VertexId;
            (i % 2, Kind::Read(v), format!("{{\"op\":\"mate\",\"v\":{v}}}\n"))
        }
    }
}

fn update_line(u: &EdgeUpdate) -> String {
    match *u {
        EdgeUpdate::Insert { u, v, w } => {
            format!("{{\"op\":\"update\",\"kind\":\"insert\",\"u\":{u},\"v\":{v},\"w\":{w}}}\n")
        }
        EdgeUpdate::Delete { u, v } => {
            format!("{{\"op\":\"update\",\"kind\":\"delete\",\"u\":{u},\"v\":{v}}}\n")
        }
    }
}

/// Value of the unsigned integer field `key` in a compact JSON line, or
/// `None` for `null`/absent.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits: &str = &line[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Check one response against the request it answers.
fn record(p: &mut Phase, sent: Sent, line: &str, now: Instant, reference: &[VertexId]) {
    let us = now.duration_since(sent.due).as_secs_f64() * 1e6;
    if !line.starts_with("{\"ok\":true") {
        p.fail(format!("non-ok response: {}", line.trim_end()));
        return;
    }
    match sent.kind {
        Kind::Read(v) => {
            p.read_us.push(us);
            let mate = field_u64(line, "\"mate\":").map(|m| m as VertexId).unwrap_or(UNMATCHED);
            let epoch = field_u64(line, "\"epoch\":");
            let wrong = field_u64(line, "\"v\":") != Some(v as u64)
                || (epoch == Some(0) && reference.get(v as usize) != Some(&mate));
            if wrong {
                p.fail(format!("read of {v} answered {}", line.trim_end()));
            }
        }
        Kind::Update(i) => {
            p.update_us.push(us);
            p.admitted.push(i);
        }
    }
}

/// Parse every complete response line buffered on `c`.
fn drain_lines(c: &mut Conn, p: &mut Phase, now: Instant, reference: &[VertexId]) {
    let mut start = 0;
    while let Some(len) = c.inbuf[start..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&c.inbuf[start..start + len + 1]).into_owned();
        start += len + 1;
        match c.inflight.pop_front() {
            Some(sent) => record(p, sent, &line, now, reference),
            None => p.fail(format!("unsolicited line: {}", line.trim_end())),
        }
    }
    c.inbuf.drain(..start);
}

/// How the generator paces its requests.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Open loop: `rate` requests per second for `seconds`, whatever the
    /// server does; each request is timed from when it was due.
    Open { rate: f64, seconds: f64 },
    /// Closed loop: `count` requests with at most `window` in flight; each
    /// response frees a slot, and each request is timed from its send.
    Closed { count: usize, window: usize },
}

/// Send the mix on `conns` as `pace` says and wait for every response.
/// Requests still unanswered once no response has arrived for
/// `DRAIN_TIMEOUT` count as failed.
pub fn run(
    conns: &mut [Conn; 2],
    pace: Pace,
    traffic: &mut Traffic,
    reference: &[VertexId],
) -> Result<Phase, String> {
    sys::tight_timer_slack();
    for c in conns.iter_mut() {
        c.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let (total, window) = match pace {
        Pace::Open { rate, seconds } => ((rate * seconds).round() as usize, usize::MAX),
        Pace::Closed { count, window } => (count, window),
    };
    let start = Instant::now();
    // When request `i` is due; a closed loop sends as soon as a slot is free.
    let due_at = |i: usize, now: Instant| match pace {
        Pace::Open { rate, .. } => start + Duration::from_secs_f64(i as f64 / rate),
        Pace::Closed { .. } => now,
    };
    let mut p = Phase::default();
    let mut i = 0;
    let mut last_answer = start;
    loop {
        let now = Instant::now();
        let mut pending: usize = conns.iter().map(|c| c.inflight.len()).sum();
        while i < total && pending < window {
            let due = due_at(i, now);
            if due > now {
                break;
            }
            let (ci, kind, line) = traffic.request(i);
            let c = &mut conns[ci];
            c.out.extend_from_slice(line.as_bytes());
            c.inflight.push_back(Sent { due, kind });
            p.late_us.push(now.duration_since(due).as_secs_f64() * 1e6);
            p.attempted += 1;
            pending += 1;
            i += 1;
        }
        for c in conns.iter_mut() {
            c.flush_out()?;
            if c.fill()? {
                drain_lines(c, &mut p, Instant::now(), reference);
            }
        }
        let left: usize = conns.iter().map(|c| c.inflight.len()).sum();
        if left < pending {
            last_answer = Instant::now();
        }
        if i == total && left == 0 {
            break;
        }
        if left > 0 && last_answer.elapsed() >= DRAIN_TIMEOUT {
            for c in conns.iter_mut() {
                c.inflight.clear();
            }
            p.failed += left as u64;
            p.first_error.get_or_insert(format!("{left} requests unanswered"));
            break;
        }
        let wake = if i < total && left < window {
            due_at(i, Instant::now())
        } else {
            last_answer + DRAIN_TIMEOUT
        };
        let mut fds = conns.each_ref().map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN | if c.out.is_empty() { 0 } else { sys::POLLOUT },
            revents: 0,
        });
        sys::wait(&mut fds, wake.saturating_duration_since(Instant::now()));
    }
    Ok(p)
}
