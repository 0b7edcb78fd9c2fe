//! The client side of the NDJSON/TCP wire: spawning the server child,
//! line-oriented connections with byte accounting, request rendering, and
//! reply parsing.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use elm_runtime::PlainValue;
use serde_json::Value as Json;

/// How long a server may take to start accepting connections.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `elm-server` child process. Dropping it kills the process
/// and waits for it to exit.
pub struct ServerChild {
    child: Child,
}

/// A process's peak resident set (`VmHWM`) in MB, read from procfs.
fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A process's user and system CPU time in seconds, each summed over its
/// threads, read from procfs (`utime` and `stime`, in the fixed 100 Hz
/// clock ticks procfs reports).
fn cpu_seconds(stat_path: &str) -> Option<[f64; 2]> {
    let stat = std::fs::read_to_string(stat_path).ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some([utime / 100.0, stime / 100.0])
}

/// A process's time on the CPU in seconds, summed over its live
/// threads' `schedstat` (nanoseconds). On a guest with paravirtual steal
/// accounting, time the hypervisor gave to other guests is not counted.
fn run_seconds(task_dir: &str) -> Option<f64> {
    let mut ns = 0u64;
    for entry in std::fs::read_dir(task_dir).ok()? {
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(entry.ok()?.path().join("schedstat")) {
            ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(ns as f64 / 1e9)
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Where the benchmark's server comes from: a freshly spawned release
/// binary, or (in self-tests) an in-process server on a local port.
#[derive(Clone)]
pub enum Launcher {
    /// Spawn this `elm-server` binary with `--shards`.
    Binary {
        /// Path to the release binary.
        path: PathBuf,
        /// The `--shards` flag passed explicitly.
        shards: usize,
    },
    /// Start an in-process server (self-tests; RSS is this process's).
    InProcess {
        /// Shard count for the in-process server.
        shards: usize,
    },
}

/// A started server: its address, plus the child process when spawned.
pub struct Launched {
    /// Where it listens.
    pub addr: SocketAddr,
    /// The child process, killed on drop (`None` in-process).
    pub child: Option<ServerChild>,
    /// [`Launched::run_seconds`] when the launch began: 0 for a child,
    /// this process's time so far for an in-process server.
    run_s_at_launch: f64,
}

impl Launched {
    /// Peak RSS of the server in MB: the child's, or this process's for
    /// an in-process server.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.child {
            Some(c) => peak_rss_mb(&format!("/proc/{}/status", c.child.id())),
            None => peak_rss_mb("/proc/self/status"),
        }
    }

    /// Time the server has spent on the CPU since its launch began, in
    /// seconds (live threads, nanosecond `schedstat`): the child's, or
    /// this process's for an in-process server.
    pub fn run_seconds(&self) -> Option<f64> {
        let now = match &self.child {
            Some(c) => run_seconds(&format!("/proc/{}/task", c.child.id()))?,
            None => run_seconds("/proc/self/task")?,
        };
        Some(now - self.run_s_at_launch)
    }

    /// User and system CPU time the server has used so far, in seconds:
    /// the child's, or this process's for an in-process server.
    pub fn cpu_seconds(&self) -> Option<[f64; 2]> {
        match &self.child {
            Some(c) => cpu_seconds(&format!("/proc/{}/stat", c.child.id())),
            None => cpu_seconds("/proc/self/stat"),
        }
    }
}

impl Launcher {
    /// The server flags a run used, for the report.
    pub fn flags(&self) -> String {
        match self {
            Launcher::Binary { shards, .. } => {
                format!("--addr 127.0.0.1:<free port> --shards {shards}")
            }
            Launcher::InProcess { shards } => format!("in-process, {shards} shards"),
        }
    }

    /// Starts a server and returns a connection on which it answered.
    ///
    /// # Errors
    ///
    /// Fails when the binary cannot be spawned or never accepts.
    pub fn launch(&self) -> Result<(Launched, Conn), String> {
        match self {
            Launcher::Binary { path, shards } => {
                let addr = SocketAddr::from(([127, 0, 0, 1], free_port()?));
                let child = spawn_binary(path, &addr, *shards)?;
                let conn = connect_ready(addr)?;
                Ok((
                    Launched {
                        addr,
                        child: Some(child),
                        run_s_at_launch: 0.0,
                    },
                    conn,
                ))
            }
            Launcher::InProcess { shards } => {
                let run_s_at_launch =
                    run_seconds("/proc/self/task").ok_or("cannot read this process's schedstat")?;
                let listener =
                    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                let server = Arc::new(elm_server::Server::start(elm_server::ServerConfig {
                    shards: *shards,
                    ..elm_server::ServerConfig::default()
                }));
                thread::spawn(move || elm_server::net::serve(server, listener));
                let conn = connect_ready(addr)?;
                Ok((
                    Launched {
                        addr,
                        child: None,
                        run_s_at_launch,
                    },
                    conn,
                ))
            }
        }
    }
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

fn spawn_binary(path: &Path, addr: &SocketAddr, shards: usize) -> Result<ServerChild, String> {
    let child = Command::new(path)
        .args(["--addr", &addr.to_string(), "--shards", &shards.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
    Ok(ServerChild { child })
}

fn connect_ready(addr: SocketAddr) -> Result<Conn, String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Conn::new(stream).map_err(|e| e.to_string()),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("server at {addr} never accepted: {e}"))
            }
            Err(_) => thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// One NDJSON connection with byte accounting in both directions.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes written.
    pub bytes_out: u64,
    /// Bytes read.
    pub bytes_in: u64,
    line: String,
    // A read timed out mid-line: keep what arrived and resume it.
    partial: bool,
    // The first bytes of the line `skim_line` is reading.
    skim_head: Vec<u8>,
}

impl Conn {
    /// Wraps a connected stream (Nagle off: requests are small and
    /// latency-sensitive).
    ///
    /// # Errors
    ///
    /// Fails when the stream cannot be cloned.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            bytes_out: 0,
            bytes_in: 0,
            line: String::new(),
            partial: false,
            skim_head: Vec::new(),
        })
    }

    /// Opens a second connection to `addr`.
    ///
    /// # Errors
    ///
    /// Fails when the server does not accept.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Conn::new(TcpStream::connect(addr)?)
    }

    /// Writes one request line (which must end in `\n`).
    ///
    /// # Errors
    ///
    /// Fails when the socket is closed.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.bytes_out += line.len() as u64;
        Ok(())
    }

    /// Reads one reply line, without its newline. A read that times out
    /// mid-line keeps the bytes that arrived; the next call resumes the
    /// same line.
    ///
    /// # Errors
    ///
    /// Fails on EOF, a read timeout, or a socket error.
    pub fn recv(&mut self) -> io::Result<&str> {
        if !self.partial {
            self.line.clear();
        }
        self.partial = true;
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 || !self.line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.partial = false;
        self.bytes_in += self.line.len() as u64;
        Ok(self.line.trim_end())
    }

    /// Consumes what one socket read delivers of the current line,
    /// keeping only its first bytes, so a caller with a schedule to keep
    /// can take a multi-megabyte reply in slices. Returns the line's
    /// head once its newline has arrived.
    ///
    /// # Errors
    ///
    /// Fails on EOF, a read timeout, or a socket error.
    pub fn skim_line(&mut self) -> io::Result<Option<String>> {
        const HEAD: usize = 64;
        let buf = self.reader.fill_buf()?;
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        let keep = HEAD.saturating_sub(self.skim_head.len()).min(take);
        self.skim_head.extend_from_slice(&buf[..keep]);
        self.reader.consume(take);
        self.bytes_in += take as u64;
        Ok(
            done.then(|| {
                String::from_utf8_lossy(&std::mem::take(&mut self.skim_head)).into_owned()
            }),
        )
    }

    /// Sends a request and reads its reply.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`] and [`Conn::recv`].
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.send(line)?;
        self.recv()
    }

    /// Bounds every later read (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Fails on a socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// The raw stream, for a second thread that only writes.
    ///
    /// # Errors
    ///
    /// Fails when the stream cannot be cloned.
    pub fn writer_clone(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn js(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings always encode")
}

fn jv(v: &PlainValue) -> String {
    serde_json::to_string(v).expect("plain values always encode")
}

/// `open` of a registry builtin.
pub fn open_builtin(name: &str, observe: bool) -> String {
    format!(
        "{{\"cmd\":\"open\",\"program\":{},\"observe\":{observe}}}\n",
        js(name)
    )
}

/// `open` of ad-hoc FElm source.
pub fn open_source(source: &str) -> String {
    format!("{{\"cmd\":\"open\",\"source\":{}}}\n", js(source))
}

/// `event`.
pub fn event(session: u64, input: &str, value: &PlainValue) -> String {
    format!(
        "{{\"cmd\":\"event\",\"session\":{session},\"input\":{},\"value\":{}}}\n",
        js(input),
        jv(value)
    )
}

/// `batch`.
pub fn batch(session: u64, events: &[(String, PlainValue)]) -> String {
    let mut out = format!("{{\"cmd\":\"batch\",\"session\":{session},\"events\":[");
    for (i, (input, value)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"input\":{},\"value\":{}}}",
            js(input),
            jv(value)
        ));
    }
    out.push_str("]}\n");
    out
}

/// A request naming only a session: `query`, `subscribe`, `close`.
pub fn session_cmd(cmd: &str, session: u64) -> String {
    format!("{{\"cmd\":\"{cmd}\",\"session\":{session}}}\n")
}

/// Global `stats`.
pub const STATS: &str = "{\"cmd\":\"stats\"}\n";
/// The Prometheus scrape verb.
pub const METRICS: &str = "{\"cmd\":\"metrics\"}\n";

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Parses a reply line.
///
/// # Errors
///
/// Fails on malformed JSON.
pub fn parse(line: &str) -> Result<Json, String> {
    serde_json::from_str::<Json>(line).map_err(|e| format!("bad reply {line:.120}: {e}"))
}

/// A reply's `"ok":true`, or its error text.
///
/// # Errors
///
/// Returns the server's error (or the line) when the reply is not ok.
pub fn ok(reply: &Json) -> Result<(), String> {
    match reply.get("ok") {
        Some(Json::Bool(true)) => Ok(()),
        _ => Err(format!(
            "error reply: {}",
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("<no error field>")
        )),
    }
}

/// An unsigned integer field.
pub fn u64_at(v: &Json, key: &str) -> Option<u64> {
    match v.get(key)? {
        Json::U64(n) => Some(*n),
        Json::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// A nested unsigned integer field (`path` of keys).
pub fn u64_path(v: &Json, path: &[&str]) -> Option<u64> {
    let (last, init) = path.split_last()?;
    let mut cur = v;
    for k in init {
        cur = cur.get(k)?;
    }
    u64_at(cur, last)
}

/// A plain-value field.
pub fn value_at(v: &Json, key: &str) -> Option<PlainValue> {
    serde_json::from_value::<PlainValue>(v.get(key)?.clone()).ok()
}

/// The value of an unlabelled (or `session="all"`) sample of a family in
/// a Prometheus exposition.
pub fn prom_sample(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l[series.len()..].trim().parse().ok())
}
