//! TCP / Unix-domain-socket transport for the frame protocol.
//!
//! Everything above the byte stream — framing, [`Hello`] handshake,
//! [`Request`]/[`ServerFrame`] ordering, [`FaultPlan`] semantics —
//! lives in [`wire`](super); this module only supplies the streams:
//!
//! * [`WorkerAddr`] — a parsed worker address, `host:port` TCP or
//!   `uds:/path` Unix-domain, as written in `OSP_WORKER_ADDRS` and on the
//!   `osp-worker --listen` command line;
//! * [`Stream`] — one connected byte stream over either transport, with
//!   connect/read deadlines;
//! * the one accept loop, shared by the worker and the service front door
//!   ([`serve`](crate::serve)): a thread per connection, at most
//!   [`MAX_CONNECTIONS`] at once (an over-cap connection gets a
//!   [`Refusal`] frame where the [`Hello`] would go, then is closed); an
//!   accept error (out of file descriptors, say) is retried, and only a
//!   stop or a fault kill ends the loop;
//! * [`SocketServer`] — an in-process worker fleet member: that loop
//!   serving [`serve_session`] per connection, used by tests and examples
//!   (the `osp-worker --listen` binary wraps the same loop around a real
//!   process);
//! * [`read_hello`] and [`ping`] — the client half of the handshake, and
//!   one full handshake + heartbeat round trip, the readiness probe
//!   behind `osp-worker --ping` and CI fleet bring-up.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::{
    read_frame, read_message, send, serve_session, write_message, FaultPlan, Hello, Refusal,
    Request, ServerFrame, SessionEnd, MIN_WIRE_VERSION, WIRE_VERSION,
};
use crate::error::{Error, WorkerError};
use crate::spec::SpecResolver;

/// The nonce [`ping`] sends; any fixed value works because a session's
/// requests are answered strictly in order.
const PING_NONCE: u64 = 0x6F73_7050; // "ospP"

/// One worker's address, as written in `OSP_WORKER_ADDRS` and accepted by
/// `osp-worker --listen`:
///
/// * `host:port` — TCP (e.g. `127.0.0.1:7401`; port `0` asks the OS for
///   an ephemeral port, resolved by [`SocketServer::local_addr`]);
/// * `[ipv6]:port` — TCP with a bracketed IPv6 host (e.g. `[::1]:7401`).
///   The brackets are required: a bare-colon form like `::1:7401` cannot
///   be split into host and port unambiguously and is rejected;
/// * `uds:/path` (or `unix:/path`) — a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerAddr {
    /// A TCP `host:port` endpoint.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl WorkerAddr {
    /// Parses one address; see the type docs for the accepted forms.
    ///
    /// # Errors
    ///
    /// A description of why the text is not an address.
    pub fn parse(text: &str) -> Result<WorkerAddr, String> {
        let text = text.trim();
        if let Some(path) = text
            .strip_prefix("uds:")
            .or_else(|| text.strip_prefix("unix:"))
        {
            if path.is_empty() {
                return Err(format!("`{text}`: empty socket path"));
            }
            return Ok(WorkerAddr::Uds(PathBuf::from(path)));
        }
        if let Some(bracketed) = text.strip_prefix('[') {
            // Bracketed IPv6: `[host]:port`, the form `to_socket_addrs`
            // resolves directly.
            let Some((host, port)) = bracketed.split_once("]:") else {
                return Err(format!(
                    "`{text}`: want [ipv6]:port (e.g. [::1]:7401) — missing `]:`"
                ));
            };
            if host.is_empty() {
                return Err(format!("`{text}`: empty IPv6 host inside the brackets"));
            }
            if port.parse::<u16>().is_err() {
                return Err(format!("`{text}`: `{port}` is not a port number"));
            }
            return Ok(WorkerAddr::Tcp(text.to_string()));
        }
        match text.matches(':').count() {
            0 => Err(format!(
                "`{text}`: want host:port (TCP) or uds:/path (Unix-domain)"
            )),
            1 => {
                let (host, port) = text.split_once(':').expect("exactly one colon");
                if host.is_empty() {
                    return Err(format!(
                        "`{text}`: want host:port (TCP) or uds:/path (Unix-domain)"
                    ));
                }
                if port.parse::<u16>().is_err() {
                    return Err(format!("`{text}`: `{port}` is not a port number"));
                }
                Ok(WorkerAddr::Tcp(text.to_string()))
            }
            // More than one colon without brackets: a bare IPv6 address
            // like `::1:7401`, where "host `::1`, port `7401`" and
            // "host `::1:7401`, no port" are both readable. Guessing one
            // (the old rsplit behavior) produced an address that parsed
            // but failed at connect time with a resolver error.
            _ => Err(format!(
                "`{text}`: ambiguous bare-colon IPv6 address — bracket the host, e.g. `[::1]:7401`"
            )),
        }
    }

    /// Parses a comma-separated fleet list (`OSP_WORKER_ADDRS` syntax);
    /// empty entries are skipped.
    ///
    /// # Errors
    ///
    /// The first unparseable entry's description.
    pub fn parse_list(text: &str) -> Result<Vec<WorkerAddr>, String> {
        text.split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(WorkerAddr::parse)
            .collect()
    }
}

impl std::fmt::Display for WorkerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerAddr::Tcp(hostport) => write!(f, "{hostport}"),
            WorkerAddr::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// One connected byte stream to a worker, over either transport. Created
/// by [`Stream::connect`]; both halves of the frame conversation run over
/// the one object (`&Stream` implements `Read` and `Write`, like the
/// underlying `std` streams).
///
/// Every connected and accepted TCP stream has `TCP_NODELAY` set: the
/// protocol is request/response with one write per frame, so Nagle's
/// algorithm could only delay a frame until the peer's delayed ACK.
#[derive(Debug)]
pub enum Stream {
    /// A connected TCP stream.
    Tcp(TcpStream),
    /// A connected Unix-domain stream.
    Uds(UnixStream),
}

impl Stream {
    /// Connects to `addr` within `timeout` (TCP; Unix-domain connects are
    /// local rendezvous and use the plain blocking connect).
    ///
    /// # Errors
    ///
    /// The underlying I/O error — resolution failure, refusal, or the
    /// deadline expiring.
    pub fn connect(addr: &WorkerAddr, timeout: Duration) -> std::io::Result<Stream> {
        match addr {
            WorkerAddr::Tcp(hostport) => {
                let resolved = hostport.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::AddrNotAvailable,
                        format!("{hostport} resolved to no address"),
                    )
                })?;
                Stream::tcp(TcpStream::connect_timeout(&resolved, timeout)?)
            }
            WorkerAddr::Uds(path) => UnixStream::connect(path).map(Stream::Uds),
        }
    }

    /// Wraps a connected TCP stream, switching Nagle's algorithm off.
    fn tcp(stream: TcpStream) -> std::io::Result<Stream> {
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// Sets the read deadline for subsequent frame reads (`None` blocks
    /// forever).
    ///
    /// # Errors
    ///
    /// The underlying `setsockopt` failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Uds(s) => s.set_read_timeout(timeout),
        }
    }

    /// Half-closes the write side, signalling clean end-of-stream to the
    /// worker (its [`serve_session`] returns [`SessionEnd::Eof`]).
    pub fn shutdown_write(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).read(buf),
            Stream::Uds(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Uds(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => (&*s).flush(),
            Stream::Uds(s) => (&*s).flush(),
        }
    }
}

/// Client side of the handshake: reads the server's [`Hello`] and checks
/// the protocol version.
///
/// # Errors
///
/// [`WorkerError::Handshake`] if the stream closes or garbles before a
/// hello arrives, the server sent a [`Refusal`] instead (its cause names
/// the connection limit), or the server speaks a version outside the
/// compatible range [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] (older
/// versions whose session frames are unchanged stay dialable after a
/// bump).
pub fn read_hello<R: Read + ?Sized>(reader: &mut R, addr: &str) -> Result<Hello, WorkerError> {
    let failed = |cause: String| WorkerError::Handshake {
        addr: addr.to_string(),
        cause,
    };
    let payload = match read_frame(reader) {
        Ok(Some(payload)) => payload,
        Ok(None) => return Err(failed("stream closed before the hello frame".to_string())),
        Err(e) => return Err(failed(e.to_string())),
    };
    let hello: Hello = match serde_json::from_slice(&payload) {
        Ok(hello) => hello,
        Err(e) => {
            return Err(failed(match serde_json::from_slice::<Refusal>(&payload) {
                Ok(Refusal { refused }) => refused,
                Err(_) => Error::Protocol(format!("decoding frame: {e}")).to_string(),
            }))
        }
    };
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&hello.version) {
        return Err(failed(format!(
            "protocol version mismatch: worker speaks {}, this build speaks \
             {MIN_WIRE_VERSION}..={WIRE_VERSION}",
            hello.version
        )));
    }
    Ok(hello)
}

/// The client half of every handshake, on a freshly connected `stream`:
/// sets the read deadline for all later reads, then reads the server's
/// [`Hello`] through the returned reader, which the caller keeps reading
/// replies from.
pub(crate) fn handshake<'a>(
    stream: &'a Stream,
    addr: &str,
    read_timeout: Duration,
) -> Result<(BufReader<&'a Stream>, Hello), WorkerError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| WorkerError::Connect {
            addr: addr.to_string(),
            attempts: 1,
            cause: format!("setting read deadline: {e}"),
        })?;
    let mut reader = BufReader::new(stream);
    let hello = read_hello(&mut reader, addr)?;
    Ok((reader, hello))
}

/// Connects to `addr` once within `timeout` and completes the handshake,
/// with `timeout` as the read deadline. The server sends nothing after
/// its [`Hello`] until it is asked, so the caller may read later replies
/// through a fresh reader.
pub(crate) fn dial(addr: &WorkerAddr, timeout: Duration) -> Result<(Stream, Hello), WorkerError> {
    let stream = Stream::connect(addr, timeout).map_err(|e| WorkerError::Connect {
        addr: addr.to_string(),
        attempts: 1,
        cause: e.to_string(),
    })?;
    let (_, hello) = handshake(&stream, &addr.to_string(), timeout)?;
    Ok((stream, hello))
}

/// One full liveness probe: connect, handshake, one ping/pong. Returns
/// the worker's [`Hello`] — what `osp-worker --ping` prints and what CI
/// polls during fleet bring-up.
///
/// # Errors
///
/// [`Error::Worker`] with the typed connect/handshake/disconnect cause.
pub fn ping(addr: &WorkerAddr, timeout: Duration) -> Result<Hello, Error> {
    let (stream, hello) = dial(addr, timeout)?;
    write_message(&mut &stream, &Request::Ping(PING_NONCE))?;
    let cause = match read_message::<_, ServerFrame>(&mut BufReader::new(&stream)) {
        Ok(Some(ServerFrame::Pong(pong))) if pong == PING_NONCE => return Ok(hello),
        Ok(Some(ServerFrame::Pong(pong))) => {
            return Err(WorkerError::Handshake {
                addr: addr.to_string(),
                cause: format!("pong nonce mismatch: sent {PING_NONCE}, got {pong}"),
            }
            .into())
        }
        Ok(Some(frame)) => format!("expected a pong, got a {}", frame.kind()),
        Ok(None) => "stream closed before the pong".to_string(),
        Err(e) => e.to_string(),
    };
    Err(WorkerError::Disconnect {
        addr: addr.to_string(),
        cause,
    }
    .into())
}

/// Either flavor of listener behind one accept call.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Binds `addr` and returns the listener plus the actually-bound
    /// address (the OS-resolved port, for TCP `:0`).
    pub(crate) fn bind(addr: &WorkerAddr) -> Result<(Listener, WorkerAddr), Error> {
        match addr {
            WorkerAddr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport)
                    .map_err(|e| WorkerError::Spawn(format!("binding {hostport}: {e}")))?;
                let local = listener.local_addr().map_err(|e| {
                    WorkerError::Spawn(format!("resolving bound address of {hostport}: {e}"))
                })?;
                Ok((Listener::Tcp(listener), WorkerAddr::Tcp(local.to_string())))
            }
            WorkerAddr::Uds(path) => {
                // A crashed server (SIGKILL, fault-kill) leaves its
                // socket file behind, and a Unix bind on an existing
                // path fails — so a crash-restart cycle on the same
                // address would wedge. If the path holds a *dead* socket
                // (nothing accepts a probe connect), clear it; a live
                // listener still refuses the double-bind.
                if path.exists() && UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path).map_err(|e| {
                    WorkerError::Spawn(format!("binding uds:{}: {e}", path.display()))
                })?;
                Ok((Listener::Uds(listener), WorkerAddr::Uds(path.clone())))
            }
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Stream::tcp(s)),
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
        }
    }
}

/// The most connections one server serves at once, worker or service
/// front door. A fleet holds one connection per worker per batch and a
/// service a few clients, so the cap only bites on a flood: each served
/// connection holds a thread and its buffers.
pub const MAX_CONNECTIONS: usize = 64;

/// How long the accept loop waits before accepting again after an accept
/// error (out of file descriptors, say): connections that end meanwhile
/// free what the next accept needs.
const ACCEPT_RETRY: Duration = Duration::from_millis(20);

/// The socket-server scaffolding both protocols share: a bound
/// [`Listener`], one accept thread that serves each connection on a
/// thread of its own through the protocol's handler, at most
/// [`MAX_CONNECTIONS`] at once, and a [`stop`](FrameServer::stop) that
/// wakes, joins and cleans up.
///
/// An over-cap connection is accepted, sent a [`Refusal`] where its
/// [`Hello`] would go, and closed. An accept error does not end the
/// server; only a [`Halt`] does.
pub(crate) struct FrameServer {
    halt: Halt,
    accept_thread: JoinHandle<()>,
}

/// Lets a connection's handler stop the server it runs under: the accept
/// loop ends, the listener drops, and later connects are refused.
/// Connections already being served run on.
#[derive(Clone)]
pub(crate) struct Halt {
    stop: Arc<AtomicBool>,
    addr: WorkerAddr,
}

impl Halt {
    pub(crate) fn halt(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // A blocked accept only wakes on a connection: poke it.
            let _ = Stream::connect(&self.addr, Duration::from_millis(200));
        }
    }
}

impl FrameServer {
    /// Binds `addr` and serves every accepted connection through
    /// `handler`.
    pub(crate) fn bind<H>(addr: &WorkerAddr, handler: H) -> Result<FrameServer, Error>
    where
        H: Fn(&Stream, &Halt) + Send + Sync + 'static,
    {
        let (listener, local) = Listener::bind(addr)?;
        let halt = Halt {
            stop: Arc::new(AtomicBool::new(false)),
            addr: local,
        };
        let accept_thread = {
            let halt = halt.clone();
            let handler = Arc::new(handler);
            // Each served connection's thread holds a clone, dropped when
            // the thread ends (a panic included): the count past this
            // thread's own is the number of connections being served.
            let slots = Arc::new(());
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if halt.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = accepted else {
                    std::thread::sleep(ACCEPT_RETRY);
                    continue;
                };
                // Only this thread takes slots, so the check cannot race.
                if Arc::strong_count(&slots) > MAX_CONNECTIONS {
                    let refusal = Refusal {
                        refused: format!("connection limit of {MAX_CONNECTIONS} reached"),
                    };
                    let _ = send(&mut &stream, &refusal);
                    stream.shutdown_write();
                    continue;
                }
                let (slot, handler, halt) =
                    (Arc::clone(&slots), Arc::clone(&handler), halt.clone());
                // A failed spawn drops the closure: the slot is released
                // and the connection closed.
                let _ = std::thread::Builder::new().spawn(move || {
                    let _slot = slot;
                    handler(&stream, &halt);
                });
            })
        };
        Ok(FrameServer {
            halt,
            accept_thread,
        })
    }

    pub(crate) fn local_addr(&self) -> &WorkerAddr {
        &self.halt.addr
    }

    /// Halts the accept loop, joins it, and unlinks a Unix socket's file.
    pub(crate) fn stop(self) {
        self.halt.halt();
        let _ = self.accept_thread.join();
        if let WorkerAddr::Uds(path) = &self.halt.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// An in-process socket worker: the shared accept loop serving
/// [`serve_session`] on every connection, sharing one worker-lifetime job
/// counter (so a [`FaultPlan`] kill is a pure function of the plan even
/// across reconnects).
///
/// This is the same worker loop `osp-worker --listen` runs in a real
/// process; the in-process form lets tests and examples stand up a whole
/// fleet without spawning binaries. After a fault kill the server stops
/// accepting — from the dispatcher's point of view the worker is dead,
/// exactly like the process exiting with code 86.
///
/// Call [`stop`](SocketServer::stop) to shut the listener down; dropping
/// without `stop` leaks the accept thread until process exit (harmless,
/// but noisy under thread-leak tooling).
pub struct SocketServer {
    server: FrameServer,
    fault_killed: Arc<AtomicBool>,
    jobs_answered: Arc<AtomicU64>,
}

impl SocketServer {
    /// Binds `addr` and starts accepting. TCP port `0` binds an ephemeral
    /// port; the resolved address is [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// [`WorkerError::Spawn`] if the address cannot be bound.
    pub fn bind<R>(addr: &WorkerAddr, resolver: R, fault: FaultPlan) -> Result<SocketServer, Error>
    where
        R: SpecResolver + Send + Sync + 'static,
    {
        let fault_killed = Arc::new(AtomicBool::new(false));
        let jobs_answered = Arc::new(AtomicU64::new(0));
        let server = {
            let fault_killed = Arc::clone(&fault_killed);
            let jobs_answered = Arc::clone(&jobs_answered);
            FrameServer::bind(addr, move |stream, halt| {
                // A malformed frame ends the session and closes the
                // connection: a worker reply carries no job index, so an
                // error reply would misalign the dispatcher's in-order
                // count of answers. Unbuffered writes: a frame is one write.
                let (mut reader, mut writer) = (BufReader::new(stream), stream);
                let end = serve_session(&resolver, &mut reader, &mut writer, fault, &jobs_answered);
                if matches!(end, Ok(SessionEnd::FaultKill)) {
                    fault_killed.store(true, Ordering::SeqCst);
                    halt.halt();
                }
                // Dropping the stream closes the connection; a client
                // mid-read sees EOF where a reply was expected.
            })?
        };
        Ok(SocketServer {
            server,
            fault_killed,
            jobs_answered,
        })
    }

    /// The actually-bound address (the resolved port, for TCP `:0`) —
    /// what clients dial.
    pub fn local_addr(&self) -> &WorkerAddr {
        self.server.local_addr()
    }

    /// Whether this worker's [`FaultPlan`] has killed it (it no longer
    /// accepts connections).
    pub fn fault_killed(&self) -> bool {
        self.fault_killed.load(Ordering::SeqCst)
    }

    /// Jobs this worker has answered across all its connections.
    pub fn jobs_answered(&self) -> u64 {
        self.jobs_answered.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// being served run to their client-driven end.
    pub fn stop(self) {
        self.server.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CoreResolver;

    #[test]
    fn addresses_parse_and_display() {
        assert_eq!(
            WorkerAddr::parse("127.0.0.1:7401").unwrap(),
            WorkerAddr::Tcp("127.0.0.1:7401".into())
        );
        assert_eq!(
            WorkerAddr::parse(" uds:/tmp/w.sock ").unwrap(),
            WorkerAddr::Uds(PathBuf::from("/tmp/w.sock"))
        );
        assert_eq!(
            WorkerAddr::parse("unix:/tmp/w.sock").unwrap(),
            WorkerAddr::Uds(PathBuf::from("/tmp/w.sock"))
        );
        assert!(WorkerAddr::parse("no-port").is_err());
        assert!(WorkerAddr::parse(":7401").is_err());
        assert!(WorkerAddr::parse("host:notaport").is_err());
        assert!(WorkerAddr::parse("uds:").is_err());
        let fleet =
            WorkerAddr::parse_list("127.0.0.1:7401, 127.0.0.1:7402 ,, uds:/tmp/w.sock").unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[0].to_string(), "127.0.0.1:7401");
        assert_eq!(fleet[2].to_string(), "uds:/tmp/w.sock");
        assert!(WorkerAddr::parse_list("127.0.0.1:7401,garbage").is_err());
        assert!(WorkerAddr::parse_list("").unwrap().is_empty());
    }

    #[test]
    fn ipv6_addresses_need_brackets() {
        assert_eq!(
            WorkerAddr::parse("[::1]:7401").unwrap(),
            WorkerAddr::Tcp("[::1]:7401".into())
        );
        assert_eq!(
            WorkerAddr::parse("[2001:db8::7]:80").unwrap(),
            WorkerAddr::Tcp("[2001:db8::7]:80".into())
        );
        // The bare-colon form used to parse (host `::1`) and then fail at
        // connect time with a resolver error; now it is rejected up front
        // with the fix in the message.
        let err = WorkerAddr::parse("::1:7401").unwrap_err();
        assert!(err.contains("[::1]:7401"), "got: {err}");
        assert!(err.contains("ambiguous"), "got: {err}");
        assert!(WorkerAddr::parse("2001:db8::7:80").is_err());
        // Bracketed but still malformed.
        assert!(WorkerAddr::parse("[::1]").is_err());
        assert!(WorkerAddr::parse("[::1]:notaport").is_err());
        assert!(WorkerAddr::parse("[]:7401").is_err());
        // Fleet lists accept bracketed entries and reject bare-colon ones.
        let fleet = WorkerAddr::parse_list("[::1]:7401, 127.0.0.1:7402").unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].to_string(), "[::1]:7401");
        assert!(WorkerAddr::parse_list("[::1]:7401, ::1:7402").is_err());
    }

    #[test]
    fn server_answers_ping_and_stops_cleanly() {
        let server = SocketServer::bind(
            &WorkerAddr::Tcp("127.0.0.1:0".into()),
            CoreResolver,
            FaultPlan::NONE,
        )
        .unwrap();
        let addr = server.local_addr().clone();
        let hello = ping(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!(hello.version, WIRE_VERSION);
        assert!(hello.roster.contains(&"rand_pr".to_string()));
        assert!(!server.fault_killed());
        assert_eq!(server.jobs_answered(), 0);
        server.stop();
        assert!(ping(&addr, Duration::from_millis(500)).is_err());
    }

    #[test]
    fn tcp_streams_disable_nagle_on_both_ends() {
        let (listener, addr) = Listener::bind(&WorkerAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let nodelay = |stream: Stream| match stream {
            Stream::Tcp(s) => s.nodelay().unwrap(),
            Stream::Uds(_) => panic!("a TCP address gave a Unix stream"),
        };
        let client = Stream::connect(&addr, Duration::from_secs(5)).unwrap();
        let server = listener.accept().unwrap();
        assert!(nodelay(client), "connected end");
        assert!(nodelay(server), "accepted end");
    }

    #[test]
    fn uds_server_round_trips() {
        let dir = std::env::temp_dir().join(format!("osp-uds-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("worker.sock");
        let _ = std::fs::remove_file(&path);
        let addr = WorkerAddr::Uds(path.clone());
        let server = SocketServer::bind(&addr, CoreResolver, FaultPlan::NONE).unwrap();
        assert!(ping(&addr, Duration::from_secs(5)).is_ok());
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_uds_path_left_by_a_crash_is_cleared_on_rebind() {
        let dir = std::env::temp_dir().join(format!("osp-uds-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("worker.sock");
        let _ = std::fs::remove_file(&path);
        // A listener that "crashes": dropped without unlinking its path,
        // exactly what SIGKILL leaves behind.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "the stale socket file survives the crash");
        // The restart must bind over it instead of failing.
        let addr = WorkerAddr::Uds(path.clone());
        let server = SocketServer::bind(&addr, CoreResolver, FaultPlan::NONE)
            .expect("rebinding over a stale socket path");
        assert!(ping(&addr, Duration::from_secs(5)).is_ok());
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ping_against_nothing_is_a_connect_error() {
        // A host:port that is not listening (port 1 on loopback).
        let err = ping(
            &WorkerAddr::Tcp("127.0.0.1:1".into()),
            Duration::from_millis(500),
        )
        .unwrap_err();
        assert!(
            matches!(err, Error::Worker(WorkerError::Connect { .. })),
            "got {err:?}"
        );
    }
}
