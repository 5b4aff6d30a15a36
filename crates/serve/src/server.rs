//! The std-only TCP front end.
//!
//! One line-delimited JSON op per request ([`crate::wire`]), one JSON
//! line back. Connections are handled thread-per-connection; every
//! handler shares the one [`Service`] behind a mutex, so the cache and
//! counters are global across connections. A `{"op":"shutdown"}` line
//! (or [`ServerHandle::shutdown`]) stops the accept loop *and* fires the
//! service's [`CancelToken`], so a solve in flight on another connection
//! returns its best feasible answer (`degraded`) instead of holding the
//! drain hostage.

use crate::request::Reply;
use crate::service::Service;
use crate::wire::{batch_json, parse_line, reply_json, stats_json, Op};
use qmldb_anneal::CancelToken;
use qmldb_math::json::{Json, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running server: its bound address and the accept-loop handle.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cancel: CancelToken,
    accept_loop: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and waits for it to exit. In-flight solves
    /// are cancelled cooperatively (their clients get a `degraded`
    /// reply); connection handlers finish their current line first.
    pub fn shutdown(mut self) {
        self.cancel.cancel();
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept_loop.take() {
            self.cancel.cancel();
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

/// Binds `addr` and serves `service` until shutdown. Returns once the
/// listener is accepting, so clients may connect immediately.
pub fn spawn(addr: impl ToSocketAddrs, service: Service) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let cancel = service.cancel_token();
    let service = Arc::new(Mutex::new(service));

    let loop_stop = Arc::clone(&stop);
    let loop_cancel = cancel.clone();
    let accept_loop = std::thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if loop_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let service = Arc::clone(&service);
            let stop = Arc::clone(&loop_stop);
            let cancel = loop_cancel.clone();
            let addr = addr;
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &service, &stop, &cancel, addr);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
    });

    Ok(ServerHandle {
        addr,
        stop,
        cancel,
        accept_loop: Some(accept_loop),
    })
}

fn handle_connection(
    stream: TcpStream,
    service: &Mutex<Service>,
    stop: &AtomicBool,
    cancel: &CancelToken,
    addr: SocketAddr,
) {
    // Poll with a short read timeout so the handler observes the stop
    // flag even while its client holds the connection open but idle —
    // otherwise shutdown would deadlock: the accept loop joins handlers,
    // and a handler blocked in `read` waits for a client that may itself
    // be waiting on the shutdown to complete.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let Ok(peer) = stream.try_clone() else { return };
    let mut writer = peer;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Read at most one byte past the limit, counting what earlier
        // timed-out reads left in `line`: a line that reaches it is over
        // long.
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) => break, // client closed the connection
            Ok(_) => {
                if line.len() > MAX_LINE_BYTES {
                    let e = format!("request line longer than {MAX_LINE_BYTES} bytes");
                    let _ = writeln!(writer, "{}", reply_json(&Reply::Error(e)).compact());
                    break;
                }
                let keep_open = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => true,
                    Ok(text) => dispatch(text, &mut writer, service, stop, cancel, addr),
                    Err(_) => {
                        let e = Reply::Error("request line is not valid UTF-8".into());
                        writeln!(writer, "{}", reply_json(&e).compact()).is_ok()
                    }
                };
                if !keep_open {
                    break;
                }
                line.clear();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Timeout: keep any partial line accumulated so far and retry.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Handles one complete request line; returns false when the connection
/// should close (shutdown op or a dead peer).
fn dispatch(
    line: &str,
    writer: &mut TcpStream,
    service: &Mutex<Service>,
    stop: &AtomicBool,
    cancel: &CancelToken,
    addr: SocketAddr,
) -> bool {
    let response = match parse_line(line) {
        Ok(Op::Solve(req)) => {
            let reply = service.lock().expect("service lock").submit(&req);
            reply_json(&reply)
        }
        Ok(Op::Batch(reqs)) => {
            let replies = service.lock().expect("service lock").submit_batch(&reqs);
            batch_json(&replies)
        }
        Ok(Op::Stats) => stats_json(&service.lock().expect("service lock").stats()),
        Ok(Op::Shutdown) => {
            // Cancel first: a solve blocked on the service mutex in
            // another handler returns degraded instead of running its
            // full schedule during the drain.
            cancel.cancel();
            stop.store(true, Ordering::SeqCst);
            // Poke the accept loop so it re-checks the flag.
            let _ = TcpStream::connect(addr);
            let ack = Json::Obj(vec![("status".into(), Json::Str("shutting-down".into()))]);
            let _ = writeln!(writer, "{}", ack.compact());
            return false;
        }
        Err(e) => reply_json(&Reply::Error(e)),
    };
    writeln!(writer, "{}", response.compact()).is_ok()
}
