//! The event-driven connection layer: one thread multiplexing every
//! connection over `poll(2)`.
//!
//! The first daemon spent a thread per connection parked in a blocking
//! `read_frame`; a build farm holding hundreds of mostly-idle compiler
//! wrapper connections wasted a stack apiece, and a slow client could
//! wedge its thread mid-write. This reactor replaces all of that with a
//! single event loop:
//!
//! * **Readiness, not threads** — the listener, a wake pipe, and every
//!   connection sit in one `poll(2)` set (direct FFI; std already links
//!   libc and the workspace builds offline, so no polling crate).
//! * **Per-connection buffers** — length-prefixed frames are assembled
//!   from whatever bytes arrive; partial writes park in a write buffer
//!   and drain on `POLLOUT`. The loop never blocks on a socket.
//! * **Pipelining** — a client may send many frames without waiting.
//!   Each gets a per-connection sequence number at read time; responses
//!   complete out of order on the shard pool and are re-sequenced in a
//!   reorder buffer so the wire order always matches the request order.
//! * **Deadlines in the transport** — dispatched requests carry a
//!   [`Ticket`]; when one expires the reactor claims the response slot
//!   ([`Engine::expire`]) and synthesizes the timeout error itself, so a
//!   stuck pass cannot block the connection.
//! * **Idle timeouts** — connections quiet past the configured limit
//!   (with nothing queued or in flight) are closed.
//! * **Graceful drain** — SIGTERM or a `shutdown` request stops accepts;
//!   in-flight work finishes, response buffers flush, then the loop
//!   exits.
//!
//! Compute never runs on the reactor thread: [`Engine::handle_async`]
//! answers cache hits and admission rejections inline and ships real work
//! to the shard pool, whose completions return through a wake pipe.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::{Engine, Ticket};
use crate::protocol::{ErrorKind, Request, Response};
use crate::server::sig;

mod ffi {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    pub type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    pub type Nfds = u32;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }
}

/// Wait for readiness on `fds` for at most `timeout`. Returns the number
/// of ready descriptors (0 = timeout); `EINTR` reads as a zero-ready wake.
fn poll(fds: &mut [ffi::PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
    let rc = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as ffi::Nfds, millis) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// An accepting socket (already nonblocking).
pub(crate) enum Acceptor {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Acceptor {
    fn fd(&self) -> RawFd {
        match self {
            Acceptor::Unix(l) => l.as_raw_fd(),
            Acceptor::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Acceptor::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Stream::Unix(stream))
            }
            Acceptor::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true).ok();
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

/// A nonblocking connection socket.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

/// A completed response on its way back to a connection.
struct Completion {
    conn: u64,
    seq: u64,
    response: Response,
}

/// Worker→reactor channel: a locked queue plus a wake pipe so a poll()
/// sleeping the reactor wakes the moment a shard finishes.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl Shared {
    fn push(&self, completion: Completion) {
        self.completions.lock().unwrap().push(completion);
        // A full pipe already guarantees a pending wake; drop the error.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// One connection's state: framing buffers, the pipelining reorder
/// window, and in-flight deadlines.
struct ConnState {
    stream: Stream,
    /// Bytes read but not yet framed.
    rbuf: Vec<u8>,
    /// Encoded response bytes not yet written (from `wpos`).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Remaining payload bytes of an oversized frame being discarded.
    skip: usize,
    /// Sequence number for the next frame read off the wire.
    next_seq: u64,
    /// Sequence number the wire is waiting for (in-order responses).
    next_write_seq: u64,
    /// Responses completed out of order, keyed by sequence number.
    reorder: BTreeMap<u64, Response>,
    /// Dispatched requests awaiting a shard, with their deadlines.
    inflight: HashMap<u64, Ticket>,
    last_activity: Instant,
    /// Peer closed its write side; finish pending work, then close.
    eof: bool,
    /// Unrecoverable socket error; close immediately.
    dead: bool,
}

impl ConnState {
    fn new(stream: Stream) -> ConnState {
        ConnState {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            skip: 0,
            next_seq: 0,
            next_write_seq: 0,
            reorder: BTreeMap::new(),
            inflight: HashMap::new(),
            last_activity: Instant::now(),
            eof: false,
            dead: false,
        }
    }

    fn has_pending_output(&self) -> bool {
        self.wpos < self.wbuf.len() || !self.reorder.is_empty()
    }

    fn is_settled(&self) -> bool {
        self.inflight.is_empty() && !self.has_pending_output()
    }

    /// Queue `response` for `seq` and move every now-in-order response
    /// into the write buffer.
    fn complete(&mut self, seq: u64, response: Response) {
        self.inflight.remove(&seq);
        self.reorder.insert(seq, response);
        while let Some(response) = self.reorder.remove(&self.next_write_seq) {
            let payload = response.to_json_text();
            let payload = payload.as_bytes();
            self.wbuf
                .extend_from_slice(&(payload.len() as u32).to_be_bytes());
            self.wbuf.extend_from_slice(payload);
            self.next_write_seq += 1;
        }
    }

    /// Write as much buffered output as the socket takes right now.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
    }
}

/// Run the event loop until the engine drains. Consumes the (nonblocking)
/// listener; returns once every accepted request has been answered and
/// flushed (or the drain grace period expires).
pub(crate) fn run(engine: Engine, listener: Acceptor) -> io::Result<()> {
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let mut wake_rx = wake_rx;
    let shared = Arc::new(Shared {
        completions: Mutex::new(Vec::new()),
        wake_tx,
    });

    let idle_timeout = match engine.config().idle_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let max_frame = engine.config().max_request_bytes;
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_conn_id: u64 = 1;
    let mut accepting = true;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if sig::termed() {
            engine.begin_shutdown();
        }
        if engine.is_shutting_down() && accepting {
            accepting = false;
            drain_deadline = Some(Instant::now() + Duration::from_secs(60));
            eprintln!(
                "[maod] draining ({} connections, {} pending)...",
                conns.len(),
                engine.pending()
            );
        }

        // Reap connections that are done (or broken): fatal errors first,
        // then clean EOFs and idle timeouts once nothing is owed to them.
        let now = Instant::now();
        conns.retain(|_, c| {
            if c.dead {
                return false;
            }
            if c.eof && c.is_settled() {
                return false;
            }
            if !accepting && c.is_settled() {
                return false; // draining: close idle connections
            }
            if let Some(idle) = idle_timeout {
                if c.is_settled() && now.duration_since(c.last_activity) >= idle {
                    return false;
                }
            }
            true
        });

        if !accepting {
            let settled = conns.values().all(|c| c.is_settled());
            let expired = drain_deadline.is_some_and(|d| now >= d);
            if (settled && conns.values().all(|c| c.inflight.is_empty())) || expired {
                break;
            }
        }

        // Assemble the poll set: wake pipe, listener (while accepting),
        // then every connection — read interest always, write interest
        // only while output is buffered.
        let mut fds: Vec<ffi::PollFd> = Vec::with_capacity(conns.len() + 2);
        fds.push(ffi::PollFd {
            fd: wake_rx.as_raw_fd(),
            events: ffi::POLLIN,
            revents: 0,
        });
        if accepting {
            fds.push(ffi::PollFd {
                fd: listener.fd(),
                events: ffi::POLLIN,
                revents: 0,
            });
        }
        let mut fd_conn: Vec<u64> = Vec::with_capacity(conns.len());
        for (&id, conn) in conns.iter() {
            let mut events = ffi::POLLIN;
            if conn.wpos < conn.wbuf.len() {
                events |= ffi::POLLOUT;
            }
            fds.push(ffi::PollFd {
                fd: conn.stream.fd(),
                events,
                revents: 0,
            });
            fd_conn.push(id);
        }

        // Sleep until the nearest deadline: an in-flight request's budget,
        // the idle sweep, or a coarse signal-check tick.
        let mut timeout = if accepting {
            Duration::from_millis(250)
        } else {
            Duration::from_millis(25)
        };
        for conn in conns.values() {
            for ticket in conn.inflight.values() {
                if let Some(deadline) = ticket.deadline() {
                    timeout = timeout.min(deadline.saturating_duration_since(now));
                }
            }
        }
        poll(&mut fds, timeout)?;

        // Wake pipe: drain the bytes; the payload is the queue itself.
        if fds[0].revents & ffi::POLLIN != 0 {
            let mut sink = [0u8; 256];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }

        // New connections.
        if accepting && fds[1].revents & ffi::POLLIN != 0 {
            loop {
                match listener.accept() {
                    Ok(stream) => {
                        conns.insert(next_conn_id, ConnState::new(stream));
                        next_conn_id += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("[maod] accept failed: {e}");
                        break;
                    }
                }
            }
        }

        // Connection I/O.
        let conn_fds_start = if accepting { 2 } else { 1 };
        for (slot, &id) in fd_conn.iter().enumerate() {
            let revents = fds[conn_fds_start + slot].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if revents & (ffi::POLLERR | ffi::POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            if revents & (ffi::POLLIN | ffi::POLLHUP) != 0 {
                read_and_dispatch(&engine, &shared, id, conn, max_frame);
            }
            if revents & ffi::POLLOUT != 0 {
                conn.flush();
            }
        }

        // Deadlines: synthesize timeout errors for expired dispatches. The
        // answered-once ticket makes this race-free against a shard
        // finishing at the same instant — exactly one side wins.
        let now = Instant::now();
        for conn in conns.values_mut() {
            let expired: Vec<u64> = conn
                .inflight
                .iter()
                .filter(|(_, t)| t.deadline().is_some_and(|d| d <= now))
                .map(|(&seq, _)| seq)
                .collect();
            for seq in expired {
                let ticket = &conn.inflight[&seq];
                if let Some(response) = engine.expire(ticket) {
                    conn.complete(seq, response);
                }
                // expire() returning None means the shard answered first;
                // its completion is in (or on its way to) the queue.
            }
        }

        // Shard completions (and inline responses pushed during dispatch).
        let completed: Vec<Completion> = std::mem::take(&mut *shared.completions.lock().unwrap());
        for completion in completed {
            // The connection may have died while the shard worked; the
            // result is simply dropped (its cache side effects remain).
            if let Some(conn) = conns.get_mut(&completion.conn) {
                conn.complete(completion.seq, completion.response);
            }
        }

        // Opportunistic flush: most responses fit the socket buffer, so
        // they leave in the same iteration they completed.
        for conn in conns.values_mut() {
            conn.flush();
        }
    }

    engine.join_workers();
    Ok(())
}

/// Pull everything the socket has, carve frames, and dispatch each one.
fn read_and_dispatch(
    engine: &Engine,
    shared: &Arc<Shared>,
    conn_id: u64,
    conn: &mut ConnState,
    max_frame: usize,
) {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.rbuf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }

    // Frames are decoded straight out of `rbuf`; the consumed prefix is
    // dropped once at the end, so a burst of pipelined frames costs one
    // shift of the unread tail rather than one per frame.
    let rbuf = std::mem::take(&mut conn.rbuf);
    let mut at = 0;
    loop {
        // Finish discarding an oversized frame's payload first.
        if conn.skip > 0 {
            let n = conn.skip.min(rbuf.len() - at);
            at += n;
            conn.skip -= n;
            if conn.skip > 0 {
                break;
            }
            continue;
        }
        let Some(header) = rbuf.get(at..at + 4) else {
            break;
        };
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > max_frame {
            // Refuse the frame but keep the connection: skip the payload
            // and answer in sequence like any other request.
            let seq = conn.next_seq;
            conn.next_seq += 1;
            at += 4;
            conn.skip = len;
            conn.complete(
                seq,
                Response::error(
                    ErrorKind::TooLarge,
                    format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
                ),
            );
            continue;
        }
        let Some(payload) = rbuf.get(at + 4..at + 4 + len) else {
            break;
        };
        at += 4 + len;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        dispatch(engine, shared, conn_id, conn, seq, payload);
    }
    conn.rbuf = rbuf;
    conn.rbuf.drain(..at);
}

/// Decode one frame and hand it to the engine. Responses — inline or from
/// a shard — funnel through the completion queue; dispatched requests
/// leave a deadline ticket with the connection.
fn dispatch(
    engine: &Engine,
    shared: &Arc<Shared>,
    conn_id: u64,
    conn: &mut ConnState,
    seq: u64,
    payload: &[u8],
) {
    let request = match std::str::from_utf8(payload) {
        Err(_) => Err("request is not utf-8".to_string()),
        Ok(text) => Request::from_json_text(text),
    };
    match request {
        Err(message) => conn.complete(seq, Response::error(ErrorKind::BadRequest, message)),
        Ok(request) => {
            let shared = shared.clone();
            let ticket = engine.handle_async(request, move |response| {
                shared.push(Completion {
                    conn: conn_id,
                    seq,
                    response,
                });
            });
            if let Some(ticket) = ticket {
                conn.inflight.insert(seq, ticket);
            }
        }
    }
}
