//! TCP front end: newline-delimited JSON over a socket.
//!
//! One reader thread per connection parses request lines and dispatches
//! to the shared [`Server`]; one writer thread serializes replies and
//! subscription pushes from a *bounded* outbound queue, so streamed
//! updates interleave safely with request/reply traffic on the same
//! socket and a stalled client cannot pin unbounded memory.
//!
//! Overload hardening:
//!
//! * Request lines are length-capped ([`NetConfig::max_line_bytes`],
//!   1 MiB by default). An oversized or non-UTF-8 line is discarded up
//!   to its terminating newline and answered with a typed
//!   `protocol_error`; the connection itself survives.
//! * Every outbound push has a write deadline. A subscriber that stops
//!   draining its socket gets its backlog dropped, a final
//!   `{"update":"closed","reason":"slow_consumer"}` best-effort notice,
//!   and a hard disconnect — without stalling any other connection.
//!
//! Try it with `nc` (see the README quick-start):
//!
//! ```text
//! $ echo '{"cmd":"open","program":"counter"}' | nc localhost 7878
//! {"ok":true,"session":0,"program":"counter","inputs":["Mouse.clicks"],"initial":{"Int":0}}
//! ```

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::protocol::{self, EnqueueOutcome, Request, Update};
use crate::registry::ProgramSpec;
use crate::server::Server;
use crate::session::TracePop;

/// Tuning knobs for the TCP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Longest accepted request line in bytes (excluding the newline).
    /// Longer lines are discarded and answered with `protocol_error`.
    pub max_line_bytes: usize,
    /// Outbound queue capacity in lines. When full, pushes wait up to
    /// `write_deadline` for the writer to drain before declaring the
    /// client a slow consumer.
    pub outbound_queue: usize,
    /// How long a reply or subscription push may wait on a full
    /// outbound queue (and how long a blocked socket write may take)
    /// before the connection is cut.
    pub write_deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_line_bytes: 1024 * 1024,
            outbound_queue: 1024,
            write_deadline: Duration::from_secs(2),
        }
    }
}

/// Monotonic counters for the whole TCP front end (all connections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Request frames rejected for oversize or invalid UTF-8.
    pub frames_rejected: u64,
    /// Connections cut because they stopped draining their queue.
    pub slow_disconnects: u64,
}

static FRAMES_REJECTED: AtomicU64 = AtomicU64::new(0);
static SLOW_DISCONNECTS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the front-end counters, for `/metrics`.
pub fn counters() -> NetCounters {
    NetCounters {
        frames_rejected: FRAMES_REJECTED.load(Ordering::Relaxed),
        slow_disconnects: SLOW_DISCONNECTS.load(Ordering::Relaxed),
    }
}

/// Accepts connections forever, one handler thread per client.
pub fn serve(server: Arc<Server>, listener: TcpListener) {
    serve_with(server, listener, NetConfig::default());
}

/// [`serve`] with explicit front-end tuning.
pub fn serve_with(server: Arc<Server>, listener: TcpListener, config: NetConfig) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let server = Arc::clone(&server);
                thread::spawn(move || handle_client_with(server, stream, config));
            }
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded outbound queue
// ---------------------------------------------------------------------------

/// What happened to an outbound line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendOutcome {
    /// Queued for the writer.
    Sent,
    /// The queue stayed full past the deadline: the client is not
    /// draining its socket.
    TimedOut,
    /// The connection is already closing; the line was dropped.
    Closed,
}

struct OutboundState {
    lines: VecDeque<String>,
    /// No further sends are accepted; the writer drains what is queued
    /// (usually nothing, or one final notice) and shuts the socket down.
    closed: bool,
}

/// Bounded MPSC line queue between request/forwarder threads and the
/// one writer thread. Producers block (with a deadline) when it fills;
/// the slow-consumer path clears it so the cut is never delayed behind
/// a backlog the client will never read.
struct OutboundQueue {
    inner: Mutex<OutboundState>,
    /// Signalled when space frees up (producers wait here).
    space: Condvar,
    /// Signalled when lines arrive or the queue closes (writer waits here).
    ready: Condvar,
    cap: usize,
}

impl OutboundQueue {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(OutboundQueue {
            inner: Mutex::new(OutboundState {
                lines: VecDeque::new(),
                closed: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            cap: cap.max(1),
        })
    }

    fn send_with_deadline(&self, line: String, deadline: Instant) -> SendOutcome {
        let mut st = self.inner.lock().unwrap();
        loop {
            if st.closed {
                return SendOutcome::Closed;
            }
            if st.lines.len() < self.cap {
                st.lines.push_back(line);
                self.ready.notify_one();
                return SendOutcome::Sent;
            }
            let now = Instant::now();
            if now >= deadline {
                return SendOutcome::TimedOut;
            }
            let (guard, _) = self.space.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Blocks until a line is available; `None` once closed and drained.
    fn pop(&self) -> Option<String> {
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some(line) = st.lines.pop_front() {
                self.space.notify_all();
                return Some(line);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Normal shutdown: stop accepting sends, let the writer drain.
    fn close(&self) {
        let mut st = self.inner.lock().unwrap();
        st.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Slow-consumer cut: drop the backlog the client will never read,
    /// queue one final notice, and close.
    fn poison_slow(&self, final_line: String) {
        let mut st = self.inner.lock().unwrap();
        if !st.closed {
            st.lines.clear();
            st.lines.push_back(final_line);
            st.closed = true;
        }
        self.ready.notify_all();
        self.space.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

// ---------------------------------------------------------------------------
// Capped frame reader
// ---------------------------------------------------------------------------

enum Frame {
    /// A complete line within the cap (newline stripped).
    Line(String),
    /// The line was discarded; `0` is a typed error detail.
    Rejected(String),
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-terminated frame without ever buffering more than
/// `max` payload bytes: once a line exceeds the cap, the remainder is
/// consumed and thrown away up to the newline, so a 100 MiB line costs
/// streaming reads but no proportional memory.
fn read_frame(reader: &mut BufReader<TcpStream>, max: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (newline_at, chunk_len, overflow) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF. A partial unterminated line is treated as final.
                if buf.is_empty() {
                    return Ok(Frame::Eof);
                }
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => (Some(pos), chunk.len(), buf.len() + pos > max),
                None => (None, chunk.len(), buf.len() + chunk.len() > max),
            }
        };
        match (newline_at, overflow) {
            (Some(pos), false) => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                break;
            }
            (Some(pos), true) => {
                let dropped = buf.len() + pos;
                reader.consume(pos + 1);
                return Ok(Frame::Rejected(format!(
                    "line of {dropped} bytes exceeds the {max} byte limit"
                )));
            }
            (None, false) => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(chunk);
                reader.consume(chunk_len);
            }
            (None, true) => {
                // Discard mode: swallow the rest of this line without
                // accumulating it, then reject.
                let mut dropped = buf.len() + chunk_len;
                buf.clear();
                reader.consume(chunk_len);
                loop {
                    let (pos, len) = {
                        let chunk = reader.fill_buf()?;
                        if chunk.is_empty() {
                            // EOF inside an oversized line.
                            return Ok(Frame::Eof);
                        }
                        (chunk.iter().position(|&b| b == b'\n'), chunk.len())
                    };
                    match pos {
                        Some(p) => {
                            dropped += p;
                            reader.consume(p + 1);
                            return Ok(Frame::Rejected(format!(
                                "line of {dropped} bytes exceeds the {max} byte limit"
                            )));
                        }
                        None => {
                            dropped += len;
                            reader.consume(len);
                        }
                    }
                }
            }
        }
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Frame::Line(s)),
        Err(_) => Ok(Frame::Rejected("request line is not valid UTF-8".into())),
    }
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

/// Runs one client connection to completion (EOF or socket error) with
/// default tuning.
pub fn handle_client(server: Arc<Server>, stream: TcpStream) {
    handle_client_with(server, stream, NetConfig::default());
}

/// [`handle_client`] with explicit front-end tuning.
pub fn handle_client_with(server: Arc<Server>, stream: TcpStream, config: NetConfig) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Request/reply ping-pong must not pay Nagle latency.
    let _ = stream.set_nodelay(true);
    // A blocked socket write is bounded by the same deadline as queue
    // waits, so a stuffed kernel buffer cannot wedge the writer thread.
    let _ = stream.set_write_timeout(Some(config.write_deadline.max(Duration::from_millis(1))));
    let out = OutboundQueue::new(config.outbound_queue);

    let writer_out = Arc::clone(&out);
    let mut write_half = stream;
    let writer = thread::spawn(move || {
        while let Some(line) = writer_out.pop() {
            if write_half
                .write_all(line.as_bytes())
                .and_then(|()| write_half.write_all(b"\n"))
                .and_then(|()| write_half.flush())
                .is_err()
            {
                writer_out.close();
                break;
            }
        }
        // Unblocks a reader parked in fill_buf and tells the peer the
        // stream is over even if it never reads another byte.
        let _ = write_half.shutdown(Shutdown::Both);
    });

    let mut reader = BufReader::new(read_half);
    while let Ok(frame) = read_frame(&mut reader, config.max_line_bytes) {
        let reply = match frame {
            Frame::Eof => break,
            Frame::Rejected(detail) => {
                FRAMES_REJECTED.fetch_add(1, Ordering::Relaxed);
                protocol::protocol_error_line(&detail)
            }
            Frame::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // HTTP-ish escape hatch: a Prometheus scraper (or curl)
                // speaking plain HTTP gets one response and a closed
                // connection.
                if let Some(rest) = line.strip_prefix("GET ") {
                    let deadline = Instant::now() + config.write_deadline;
                    let _ = out.send_with_deadline(http_response(&server, rest), deadline);
                    break;
                }
                dispatch(&server, line, &out, config)
            }
        };
        if reply.is_empty() {
            // Silent cluster verbs (journal-append, snapshot-ship,
            // heartbeat) produce no reply line.
            continue;
        }
        let deadline = Instant::now() + config.write_deadline;
        match out.send_with_deadline(reply, deadline) {
            SendOutcome::Sent => {}
            SendOutcome::TimedOut => {
                // The client keeps sending requests but never reads the
                // replies: same pathology as a slow subscriber.
                SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
                out.poison_slow(protocol::err_line("slow_consumer"));
                break;
            }
            SendOutcome::Closed => break,
        }
    }
    out.close();
    let _ = writer.join();
}

/// Builds a minimal HTTP/1.0 response for `GET <path> ...` request lines.
/// Only `/metrics` (this peer) and `/metrics?federate=1` (the whole
/// cluster, `peer`-labelled) exist. The writer thread appends one `\n` to
/// every outbound line, so the advertised `Content-Length` counts it.
fn http_response(server: &Arc<Server>, request_rest: &str) -> String {
    let path = request_rest.split_whitespace().next().unwrap_or("");
    let (status, content_type, body) = if path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            server.metrics_text(),
        )
    } else if path == "/metrics?federate=1" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            server.federated_metrics_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such path {path}\n"),
        )
    };
    let mut response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len() + 1,
    );
    response.reserve_exact(body.len());
    response.push_str(&body);
    response
}

/// Pushes one streamed line, declaring the connection a slow consumer
/// (backlog dropped, final `closed{reason:"slow_consumer"}` notice,
/// counter bumped) if it cannot be queued within the deadline.
/// Returns `false` once the forwarder should stop.
fn forward_or_cut(out: &OutboundQueue, line: String, session: u64, config: NetConfig) -> bool {
    let deadline = Instant::now() + config.write_deadline;
    match out.send_with_deadline(line, deadline) {
        SendOutcome::Sent => true,
        SendOutcome::Closed => false,
        SendOutcome::TimedOut => {
            SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
            out.poison_slow(protocol::update_line(&Update::Closed {
                session,
                reason: "slow_consumer".to_string(),
            }));
            false
        }
    }
}

fn dispatch(
    server: &Arc<Server>,
    line: &str,
    out: &Arc<OutboundQueue>,
    config: NetConfig,
) -> String {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => return protocol::err_line(&e),
    };
    match request {
        Request::Open {
            program,
            source,
            queue,
            policy,
            observe,
            session,
        } => {
            let spec = match (&program, &source) {
                (Some(p), None) => ProgramSpec::Builtin(p),
                (None, Some(s)) => ProgramSpec::Source(s),
                _ => {
                    return protocol::err_line(
                        "open needs exactly one of \"program\" or \"source\"",
                    )
                }
            };
            let opened = match session {
                // Cluster-keyed open: placement chose the id.
                Some(key) => server.open_with_key(key, spec, queue, policy, observe),
                None => server.open(spec, queue, policy, observe),
            };
            match opened {
                Ok(info) => protocol::opened_line(&info),
                Err(e) => protocol::err_line(&e),
            }
        }
        Request::Event {
            session,
            input,
            value,
            trace,
        } => match server.event_traced(session, &input, value, trace) {
            Ok(EnqueueOutcome::Shed { retry_after_ms }) => {
                protocol::overloaded_line(retry_after_ms)
            }
            Ok(outcome) => protocol::event_line(outcome),
            Err(e) => err_or_moved(server, session, e),
        },
        Request::Batch { session, events } => match server.batch(session, &events) {
            // Admission is all-or-nothing per batch: a shed batch had
            // nothing enqueued, so the whole reply is the typed
            // overload signal with its retry hint.
            Ok(outcome) if outcome.shed > 0 => protocol::overloaded_line(outcome.retry_after_ms),
            Ok(outcome) => protocol::batch_line(&outcome),
            Err(e) => err_or_moved(server, session, e),
        },
        Request::Query { session } => match server.query(session) {
            Ok(info) => protocol::query_line(&info),
            Err(e) => err_or_moved(server, session, e),
        },
        Request::Subscribe { session } => match server.subscribe(session) {
            Ok(rx) => {
                // Forward updates until the session closes, the client
                // goes away, or the client stops draining; the writer
                // thread owns actual socket I/O. A `closed` (or `moved`)
                // update is always the stream's final message, so the
                // forwarder ends right after relaying it.
                let out = Arc::clone(out);
                thread::spawn(move || {
                    for update in rx.iter() {
                        let is_final =
                            matches!(update, Update::Closed { .. } | Update::Moved { .. });
                        let line = protocol::update_line(&update);
                        if !forward_or_cut(&out, line, session, config) || is_final {
                            break;
                        }
                    }
                });
                protocol::subscribed_line(session)
            }
            Err(e) => err_or_moved(server, session, e),
        },
        Request::Stats { session } => match session {
            Some(id) => match server.session_stats(id) {
                Ok(stats) => protocol::session_stats_line(&stats),
                Err(e) => protocol::err_line(&e),
            },
            None => {
                let (global, sessions) = server.stats();
                protocol::stats_line(&global, &sessions)
            }
        },
        Request::Metrics { cluster } => {
            if cluster {
                protocol::metrics_line(&server.federated_metrics_text())
            } else {
                protocol::metrics_line(&server.metrics_text())
            }
        }
        Request::Blackbox => {
            let bb = crate::blackbox::blackbox();
            protocol::blackbox_line(&crate::blackbox::Blackbox::render_ndjson(&bb.snapshot()))
        }
        Request::Trace { session } => match server.trace_subscribe(session) {
            Ok(mailbox) => {
                // Forward rendered trace lines until the session closes
                // the mailbox or the client goes away. Waits are bounded
                // so a dead connection is noticed within a second.
                let out = Arc::clone(out);
                thread::spawn(move || loop {
                    match mailbox.recv_timeout(Duration::from_secs(1)) {
                        TracePop::Line(line) => {
                            if !forward_or_cut(&out, line, session, config) {
                                mailbox.close();
                                break;
                            }
                        }
                        TracePop::Empty => {
                            // Keepalive probe; also notices a closed
                            // connection so the mailbox gets released.
                            if out.is_closed() {
                                mailbox.close();
                                break;
                            }
                        }
                        TracePop::Closed => break,
                    }
                });
                protocol::trace_subscribed_line(session)
            }
            Err(e) => protocol::err_line(&e),
        },
        Request::Describe { session } => match server.describe(session) {
            Ok(info) => protocol::describe_line(&info),
            Err(e) => err_or_moved(server, session, e),
        },
        Request::Close { session } => match server.close(session) {
            Ok(()) => protocol::closed_line(session),
            Err(e) => err_or_moved(server, session, e),
        },
        // --- cluster peer verbs -------------------------------------
        Request::Hello { from, addr } => match server.cluster() {
            Some(cluster) => cluster.handle_hello(from, &addr),
            None => protocol::err_line("not in cluster mode"),
        },
        Request::Place { key } => match server.cluster() {
            Some(cluster) => cluster.handle_place(key),
            None => protocol::err_line("not in cluster mode"),
        },
        Request::Takeover {
            from,
            addr,
            sessions,
            traces,
            epochs,
        } => match server.cluster() {
            Some(cluster) => cluster.handle_takeover(from, &addr, &sessions, &traces, &epochs),
            None => protocol::err_line("not in cluster mode"),
        },
        // Streamed verbs are silent even outside cluster mode: they are
        // fire-and-forget, so an error reply would desynchronize the
        // sender's framing. The empty string is skipped by the caller.
        Request::JournalAppend {
            from,
            session,
            entry,
            epoch,
        } => {
            if let Some(cluster) = server.cluster() {
                cluster.handle_journal_append(from, session, entry, epoch);
            }
            String::new()
        }
        Request::SnapshotShip {
            from,
            session,
            meta,
            snapshot,
            through,
            dropped,
            trace,
            epoch,
        } => {
            if let Some(cluster) = server.cluster() {
                cluster.handle_snapshot_ship(
                    from, session, meta, snapshot, through, dropped, trace, epoch,
                );
            }
            String::new()
        }
        Request::Heartbeat { from } => {
            if let Some(cluster) = server.cluster() {
                cluster.handle_heartbeat(from);
            }
            String::new()
        }
    }
}

/// An `unknown session` error becomes a typed `moved` redirect when the
/// cluster knows (or can compute) where the session lives now.
fn err_or_moved(server: &Arc<Server>, session: u64, e: String) -> String {
    if e.starts_with("unknown session") {
        if let Some((peer, trace, epoch)) = server.cluster().and_then(|c| c.redirect_for(session)) {
            return protocol::moved_line(session, &peer, trace, epoch);
        }
    }
    protocol::err_line(&e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use std::io::Read;

    fn start(config: NetConfig) -> (Arc<Server>, std::net::SocketAddr) {
        let server = Arc::new(Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = Arc::clone(&server);
        thread::spawn(move || serve_with(srv, listener, config));
        (server, addr)
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() && !line.is_empty() {
                continue; // trace keepalive blank line
            }
            return line.trim().to_string();
        }
    }

    #[test]
    fn oversized_line_is_rejected_but_the_connection_survives() {
        let before = counters().frames_rejected;
        let (_server, addr) = start(NetConfig {
            max_line_bytes: 64 * 1024,
            ..NetConfig::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // A 100 MiB line, streamed in 1 MiB chunks so the test itself
        // stays cheap; the server must discard it without buffering.
        let chunk = vec![b'a'; 1024 * 1024];
        for _ in 0..100 {
            writer.write_all(&chunk).unwrap();
        }
        writer.write_all(b"\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(
            reply.contains("\"error\":\"protocol_error\""),
            "expected typed protocol_error, got: {reply}"
        );
        assert!(reply.contains("exceeds the 65536 byte limit"), "{reply}");

        // The same connection still serves requests afterwards.
        writer
            .write_all(b"{\"cmd\":\"open\",\"program\":\"counter\"}\n")
            .unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(counters().frames_rejected > before);
    }

    #[test]
    fn describe_round_trips_source_and_fingerprint() {
        let (server, addr) = start(NetConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Ad-hoc source: describe must echo it back verbatim.
        let src = "main = foldp (\\\\e n -> n + 1) 0 Mouse.clicks";
        writer
            .write_all(format!("{{\"cmd\":\"open\",\"source\":\"{src}\"}}\n").as_bytes())
            .unwrap();
        let opened = read_line(&mut reader);
        assert!(opened.contains("\"ok\":true"), "{opened}");
        let parsed: serde_json::Value = serde_json::from_str(&opened).unwrap();
        let sid = match parsed.get("session") {
            Some(serde_json::Value::I64(n)) => *n as u64,
            other => panic!("bad session field: {other:?}"),
        };

        writer
            .write_all(format!("{{\"cmd\":\"describe\",\"session\":{sid}}}\n").as_bytes())
            .unwrap();
        let described = read_line(&mut reader);
        assert!(described.contains("\"ok\":true"), "{described}");
        let parsed: serde_json::Value = serde_json::from_str(&described).unwrap();
        assert_eq!(
            parsed.get("source").and_then(serde_json::Value::as_str),
            Some("main = foldp (\\e n -> n + 1) 0 Mouse.clicks")
        );
        assert_eq!(
            parsed.get("program").and_then(serde_json::Value::as_str),
            Some("<source>")
        );
        let fingerprint = parsed.get("fingerprint").cloned();
        assert!(
            matches!(
                fingerprint,
                Some(serde_json::Value::I64(_) | serde_json::Value::U64(_))
            ),
            "{described}"
        );
        // The in-process API agrees with the wire reply.
        let info = server.describe(sid).unwrap();
        assert_eq!(info.inputs, vec!["Mouse.clicks".to_string()]);

        // A native-graph builtin has no source, served as null.
        let native = server
            .open(ProgramSpec::Builtin("crashy"), None, None, false)
            .unwrap();
        let desc = server.describe(native.session).unwrap();
        assert_eq!(desc.source, None);
        writer
            .write_all(
                format!("{{\"cmd\":\"describe\",\"session\":{}}}\n", native.session).as_bytes(),
            )
            .unwrap();
        let described = read_line(&mut reader);
        assert!(described.contains("\"source\":null"), "{described}");

        // Unknown sessions get a plain error.
        writer
            .write_all(b"{\"cmd\":\"describe\",\"session\":999}\n")
            .unwrap();
        assert!(read_line(&mut reader).contains("\"ok\":false"));
    }

    #[test]
    fn invalid_utf8_line_is_rejected_with_a_typed_error() {
        let (_server, addr) = start(NetConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"\xff\xfe{\"cmd\":\"stats\"}\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(
            reply.contains("\"error\":\"protocol_error\"") && reply.contains("UTF-8"),
            "{reply}"
        );
        writer.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    #[test]
    fn slow_subscriber_is_cut_without_stalling_its_peers() {
        let before = counters().slow_disconnects;
        let (server, addr) = start(NetConfig {
            outbound_queue: 8,
            write_deadline: Duration::from_millis(100),
            ..NetConfig::default()
        });

        // Open a session whose output echoes big strings so each push
        // is fat enough to fill kernel socket buffers quickly.
        let info = server
            .open(ProgramSpec::Builtin("latest-word"), None, None, false)
            .unwrap();
        let sid = info.session;

        // The slow client subscribes and then never reads again.
        let slow = TcpStream::connect(addr).unwrap();
        let mut slow_writer = slow.try_clone().unwrap();
        let mut slow_reader = BufReader::new(slow);
        slow_writer
            .write_all(format!("{{\"cmd\":\"subscribe\",\"session\":{sid}}}\n").as_bytes())
            .unwrap();
        assert!(read_line(&mut slow_reader).contains("\"ok\":true"));

        // The healthy client subscribes too and keeps draining.
        let healthy = TcpStream::connect(addr).unwrap();
        let mut healthy_writer = healthy.try_clone().unwrap();
        let mut healthy_reader = BufReader::new(healthy);
        healthy_writer
            .write_all(format!("{{\"cmd\":\"subscribe\",\"session\":{sid}}}\n").as_bytes())
            .unwrap();
        assert!(read_line(&mut healthy_reader).contains("\"ok\":true"));

        let healthy_updates = Arc::new(AtomicU64::new(0));
        let drained = Arc::clone(&healthy_updates);
        thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match healthy_reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if line.contains("\"update\":\"changed\"") {
                            drained.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        });

        // Pump fat updates until the slow connection is cut.
        let word = "w".repeat(64 * 1024);
        let start_time = Instant::now();
        while counters().slow_disconnects == before {
            assert!(
                start_time.elapsed() < Duration::from_secs(30),
                "slow subscriber was never disconnected"
            );
            let _ = server.event(
                sid,
                "Words.input",
                elm_runtime::PlainValue::Str(word.clone()),
            );
            let _ = server.query(sid);
        }

        // The slow socket is actually torn down: reads drain whatever
        // was in flight and then hit EOF (or a reset).
        let mut sink = [0u8; 64 * 1024];
        let inner = slow_reader.get_mut();
        inner
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loop {
            match inner.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
                        ),
                        "unexpected read error on cut socket: {e:?}"
                    );
                    break;
                }
            }
        }

        // Peers kept receiving throughout.
        let seen = healthy_updates.load(Ordering::Relaxed);
        let _ = server.event(
            sid,
            "Words.input",
            elm_runtime::PlainValue::Str("tail".to_string()),
        );
        let _ = server.query(sid);
        let start_time = Instant::now();
        while healthy_updates.load(Ordering::Relaxed) <= seen {
            assert!(
                start_time.elapsed() < Duration::from_secs(10),
                "healthy subscriber stalled after the slow one was cut"
            );
            thread::sleep(Duration::from_millis(10));
        }
        assert!(counters().slow_disconnects > before);
    }
}
