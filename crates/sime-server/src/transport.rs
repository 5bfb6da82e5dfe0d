//! Byte-stream transports for the protocol: stdio and TCP.
//!
//! Both transports speak the identical line framing — a request per line in,
//! an event per line out. Each connection gets one [`Session`]: a reader
//! loop on the connection's thread and a writer thread that owns the
//! session's event stream. The writer exits when its channel closes, which
//! happens exactly when the session *and* every job it submitted have
//! finished producing events — so draining is structural, not timed.
//!
//! A client that disconnects mid-job makes the writer hit a write error and
//! stop; the job itself keeps running to its terminal state on the server
//! (its remaining events go nowhere) and the shared pool is never wedged.

use crate::protocol::Request;
use crate::server::{Server, Session};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// Serves one already-open connection until EOF or a `shutdown` request.
/// Returns `true` when the connection requested shutdown (the server is
/// drained by the time this returns).
pub fn serve_connection<R, W>(server: Arc<Server>, reader: R, writer: W) -> bool
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let mut session = Session::new(server);
    let rx = session.take_receiver();
    let writer_thread = std::thread::spawn(move || {
        let mut writer = writer;
        let mut connected = true;
        while let Ok(event) = rx.recv() {
            if !connected {
                continue; // disconnected client: drain and discard
            }
            let write = writeln!(writer, "{}", event.render()).and_then(|()| writer.flush());
            if write.is_err() {
                // The client vanished mid-job. Keep draining so the
                // connection still closes structurally — when the session
                // and its jobs have produced their last event — but write
                // nothing further.
                connected = false;
            }
        }
    });
    let mut saw_shutdown = false;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let is_shutdown = matches!(
            Request::parse_line(&line, usize::MAX),
            Ok(Request::Shutdown)
        );
        session.handle_line(&line);
        if is_shutdown {
            saw_shutdown = true;
            break;
        }
    }
    // Closing the session drops its sender; once the session's in-flight
    // jobs finish and drop theirs, the writer's channel closes and it exits
    // having written every event.
    drop(session);
    let _ = writer_thread.join();
    saw_shutdown
}

/// Serves stdin/stdout until EOF or a `shutdown` request — the daemon's
/// default transport.
pub fn serve_stdio(server: Arc<Server>) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_connection(server, BufReader::new(stdin.lock()), stdout);
}

/// Binds `addr` and serves TCP connections, one thread per client, until a
/// client issues `shutdown`. `on_bound` receives the bound local address
/// before the first accept (so callers and tests learn the ephemeral port).
pub fn serve_tcp<A: ToSocketAddrs>(
    server: Arc<Server>,
    addr: A,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    on_bound(local);
    loop {
        let (stream, _) = listener.accept()?;
        if server.is_draining() {
            // A previous connection shut the server down; this accept only
            // happened to unblock the loop (or is a late client).
            return Ok(());
        }
        // Events are small lines written as they happen; without NODELAY,
        // Nagle's algorithm holds each one back until the client's delayed
        // ACK (~40 ms) for the previous write arrives.
        let _ = stream.set_nodelay(true);
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            // A stream that cannot be split into reader and writer is
            // dropped, which closes the connection; the server carries on.
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            if serve_connection(server, BufReader::new(read_half), stream) {
                // Unblock the accept loop so it can observe the drain.
                let _ = TcpStream::connect(local);
            }
        });
    }
}
