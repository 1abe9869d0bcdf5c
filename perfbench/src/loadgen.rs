//! The open-loop generator: one thread, a handful of keep-alive
//! connections driven through `fp_edge::sys::Epoll`, requests pipelined
//! on a fixed schedule.
//!
//! Request `i` of a phase is *due* at `i / rate` seconds after the phase
//! starts. It is written when due whether or not earlier answers have
//! arrived, and its latency runs from the due time to the moment the
//! last byte of its response was read — so a stall in the server (or in
//! the generator) is charged to every request that fell due during it
//! (no coordinated omission). How late the generator itself wrote each
//! request is kept separately as its *lag*.

use crate::digest::RowDigest;
use crate::sys::Timer;
use fp_edge::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, MAX_EVENTS};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const TOKEN_TIMER: u64 = u64::MAX;

/// How the proxy answered, from the `X-Cache-Outcome` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTag {
    /// No header (non-200 answers, unanswered requests).
    #[default]
    None,
    Exact,
    Contained,
    Region,
    Overlap,
    Forwarded,
}

impl CacheTag {
    fn parse(v: &[u8]) -> CacheTag {
        match v {
            b"exact" => CacheTag::Exact,
            b"contained" => CacheTag::Contained,
            b"region-containment" => CacheTag::Region,
            b"overlap" => CacheTag::Overlap,
            b"forwarded" => CacheTag::Forwarded,
            _ => CacheTag::None,
        }
    }

    /// Served wholly from cache.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheTag::Exact | CacheTag::Contained)
    }

    /// Served partly from cache, partly from the origin.
    pub fn is_partial(self) -> bool {
        matches!(self, CacheTag::Region | CacheTag::Overlap)
    }

    /// Needed the origin: partly or wholly.
    pub fn is_miss(self) -> bool {
        self.is_partial() || self == CacheTag::Forwarded
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Due time, ns after the phase start.
    pub due_ns: u64,
    /// How late the generator wrote it, ns.
    pub lag_ns: u64,
    /// When its last response byte was read, ns after the phase start;
    /// `None` when it was never answered.
    pub done_ns: Option<u64>,
    /// HTTP status (0 = transport error or unanswered).
    pub status: u16,
    pub cache: CacheTag,
    pub digest: RowDigest,
}

impl Sample {
    /// Latency from due time to last byte, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ns
            .map(|d| d.saturating_sub(self.due_ns) as f64 / 1e6)
    }

    pub fn ok(&self) -> bool {
        self.status == 200 && self.done_ns.is_some()
    }
}

/// One phase's schedule.
pub struct Plan<'a> {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Ready-to-write request bytes, sent in order.
    pub requests: &'a [Vec<u8>],
    /// How long to wait for outstanding answers after the last send.
    pub drain: Duration,
    /// Fault injection for the generator's self-test: stall the
    /// generator thread for the given time just before it sends
    /// request `i`.
    pub pause: Option<(usize, Duration)>,
}

/// A phase's outcome.
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// Requests sent but not yet answered when the last one fell due.
    pub backlog_at_end: usize,
    /// Generator thread CPU over the phase, ns.
    pub gen_cpu_ns: u64,
    /// Phase start: sample times are offsets from it.
    pub started: Instant,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    pending: VecDeque<usize>,
    want_write: bool,
    broken: bool,
}

/// Open keep-alive connections to the server under test.
pub struct Generator {
    epoll: Epoll,
    timer: Timer,
    conns: Vec<Conn>,
}

impl Generator {
    pub fn connect(addr: SocketAddr, conns: usize) -> io::Result<Generator> {
        let epoll = Epoll::new()?;
        let timer = Timer::new()?;
        epoll.add(timer.raw_fd(), EPOLLIN, TOKEN_TIMER)?;
        let mut out = Vec::with_capacity(conns);
        for i in 0..conns.max(1) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            epoll.add(stream.as_raw_fd(), EPOLLIN, i as u64)?;
            out.push(Conn {
                stream,
                wbuf: Vec::new(),
                wpos: 0,
                rbuf: Vec::with_capacity(1 << 16),
                pending: VecDeque::new(),
                want_write: false,
                broken: false,
            });
        }
        Ok(Generator {
            epoll,
            timer,
            conns: out,
        })
    }

    /// Runs one phase to completion: every request is sent on schedule,
    /// then answers are awaited until `plan.drain` after the last due
    /// time. Requests still unanswered then keep `done_ns: None`.
    pub fn run(&mut self, plan: &Plan<'_>) -> io::Result<PhaseResult> {
        let n = plan.requests.len();
        let interval_ns = 1e9 / plan.rate;
        let due = |i: usize| (i as f64 * interval_ns) as u64;
        let mut samples: Vec<Sample> = (0..n)
            .map(|i| Sample {
                due_ns: due(i),
                ..Sample::default()
            })
            .collect();
        let last_due = if n == 0 { 0 } else { due(n - 1) };
        let deadline = last_due + plan.drain.as_nanos() as u64;
        let mut events = [EpollEvent {
            events: 0,
            token: 0,
        }; MAX_EVENTS];
        let mut next = 0usize;
        let mut answered = 0usize;
        let mut backlog_at_end = None;
        let cpu0 = crate::sys::thread_cpu_ns();
        let started = Instant::now();
        let conns = self.conns.len();
        loop {
            let now = started.elapsed().as_nanos() as u64;
            while next < n && due(next) <= now {
                if let Some((_, stall)) = plan.pause.filter(|&(at, _)| at == next) {
                    std::thread::sleep(stall);
                }
                let now = started.elapsed().as_nanos() as u64;
                let c = next % conns;
                let conn = &mut self.conns[c];
                samples[next].lag_ns = now - due(next);
                if conn.broken {
                    answered += 1;
                } else {
                    conn.wbuf.extend_from_slice(&plan.requests[next]);
                    conn.pending.push_back(next);
                }
                next += 1;
            }
            if next == n && backlog_at_end.is_none() {
                backlog_at_end = Some(n - answered);
            }
            for c in 0..conns {
                self.flush(c)?;
            }
            if next == n && (answered == n || now >= deadline) {
                break;
            }
            let wake_at = if next < n { due(next) } else { deadline };
            self.timer
                .arm(Duration::from_nanos(wake_at.saturating_sub(now)))?;
            let ready = self.epoll.wait(&mut events, -1)?;
            for ev in &events[..ready] {
                let (token, bits) = (ev.token, ev.events);
                if token == TOKEN_TIMER {
                    self.timer.clear();
                    continue;
                }
                let c = token as usize;
                if bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0 {
                    answered += self.read(c, started, &mut samples);
                }
                if bits & EPOLLOUT != 0 {
                    self.flush(c)?;
                }
            }
        }
        Ok(PhaseResult {
            samples,
            backlog_at_end: backlog_at_end.unwrap_or(0),
            gen_cpu_ns: crate::sys::thread_cpu_ns() - cpu0,
            started,
        })
    }

    /// Writes what the kernel takes; registers for writability when it
    /// takes less than everything.
    fn flush(&mut self, c: usize) -> io::Result<()> {
        let conn = &mut self.conns[c];
        if conn.broken {
            return Ok(());
        }
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => break,
                Ok(k) => conn.wpos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    return Ok(());
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        let want = conn.wpos < conn.wbuf.len();
        if want != conn.want_write {
            conn.want_write = want;
            let bits = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
            self.epoll.modify(conn.stream.as_raw_fd(), bits, c as u64)?;
        }
        Ok(())
    }

    /// Reads everything available on connection `c` and completes the
    /// responses it holds. Returns how many requests were settled
    /// (answered, or failed by a broken connection).
    fn read(&mut self, c: usize, started: Instant, samples: &mut [Sample]) -> usize {
        let conn = &mut self.conns[c];
        if conn.broken {
            return 0;
        }
        let mut settled = 0;
        let mut chunk = [0u8; 1 << 16];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.broken = true;
                    break;
                }
                Ok(k) => {
                    conn.rbuf.extend_from_slice(&chunk[..k]);
                    let at = started.elapsed().as_nanos() as u64;
                    settled += complete_responses(conn, at, samples);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
        if conn.broken {
            // Everything still pending on a dead connection is lost.
            settled += conn.pending.len();
            conn.pending.clear();
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
        settled
    }
}

/// Parses every complete response at the front of `conn.rbuf`, stamping
/// each with `at`. Returns how many completed.
fn complete_responses(conn: &mut Conn, at: u64, samples: &mut [Sample]) -> usize {
    let mut consumed = 0;
    let mut done = 0;
    while let Some((head_len, body_len, status, cache)) = parse_head(&conn.rbuf[consumed..]) {
        let end = consumed + head_len + body_len;
        if conn.rbuf.len() < end {
            break;
        }
        let Some(idx) = conn.pending.pop_front() else {
            // An answer nobody asked for: the stream is out of sync.
            conn.broken = true;
            break;
        };
        let body = &conn.rbuf[consumed + head_len..end];
        let s = &mut samples[idx];
        s.done_ns = Some(at);
        s.status = status;
        s.cache = cache;
        if status == 200 {
            s.digest = RowDigest::of_xml(body);
        }
        consumed = end;
        done += 1;
    }
    conn.rbuf.drain(..consumed);
    done
}

/// `(head length, body length, status, cache tag)` of the response at
/// the start of `buf`, once its head is complete.
fn parse_head(buf: &[u8]) -> Option<(usize, usize, u16, CacheTag)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = &buf[..head_end];
    let mut lines = head.split(|&b| b == b'\n');
    let status_line = lines.next()?;
    let status = std::str::from_utf8(status_line.get(9..12)?)
        .ok()?
        .parse()
        .ok()?;
    let mut body_len = 0;
    let mut cache = CacheTag::None;
    for line in lines {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"content-length") {
            body_len = std::str::from_utf8(value).ok()?.parse().ok()?;
        } else if name.eq_ignore_ascii_case(b"x-cache-outcome") {
            cache = CacheTag::parse(value);
        }
    }
    Some((head_end, body_len, status, cache))
}

/// The wire form of `GET target`, tagged with the benchmark request id.
pub fn request_bytes(target: &str, req_id: u64) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\nX-Bench-Req: {req_id}\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_heads_with_any_header_case() {
        let resp = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\nX-Cache-Outcome: contained\r\n\r\nabc";
        let (head, body, status, cache) = parse_head(resp).expect("complete head");
        assert_eq!(
            (head + body, status, cache),
            (resp.len(), 200, CacheTag::Contained)
        );
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le").is_none());
    }
}
