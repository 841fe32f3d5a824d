//! TCP front end: one connection = one session, line in, JSON line out.

use crate::manager::SessionManager;
use crate::proto::{
    parse_request, render, CancelResponse, ConnectResponse, EditResponse, ErrorResponse,
    GoResponse, Request, StatsResponse,
};
use crate::{GovernorConfig, SessionId};
use specdb_core::SpeculatorConfig;
use specdb_exec::Database;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the default —
    /// `127.0.0.1:0`).
    pub addr: String,
    /// Speculator configuration handed to every session.
    pub speculator: SpeculatorConfig,
    /// Fleet-governor policy.
    pub governor: GovernorConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            speculator: SpeculatorConfig::default(),
            governor: GovernorConfig::default(),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session manager behind the wire protocol.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Stop accepting connections and join the accept thread. Open
    /// connections finish when their client disconnects (each handler
    /// thread owns only its stream).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Serve `db` over TCP. Binds immediately and returns a handle with the
/// chosen port; sessions run until their client quits.
pub fn serve(db: Database, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let manager = Arc::new(SessionManager::new(db, config.speculator, config.governor));
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let manager = Arc::clone(&manager);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let manager = Arc::clone(&manager);
                        std::thread::spawn(move || handle_connection(stream, &manager));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })
    };
    Ok(ServerHandle { addr, manager, stop, accept: Some(accept) })
}

/// The longest request the server reads, its newline included. A longer
/// one gets an error reply and the connection closes, so no client can
/// grow a connection's buffer without bound.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

fn handle_connection(stream: TcpStream, manager: &SessionManager) {
    // Each reply is one small line the client waits on: with Nagle's
    // algorithm on, it would sit out the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut session_id: Option<SessionId> = None;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_BYTES as u64;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() == MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            let reply = ErrorResponse::line(format!("request over {MAX_REQUEST_BYTES} bytes"));
            let _ = writer.write_all(format!("{reply}\n").as_bytes());
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        if line.trim().is_empty() {
            continue;
        }
        let request = parse_request(line);
        let quit = matches!(request, Ok(Request::Quit));
        let mut reply = dispatch(request, manager, &mut session_id);
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() || quit {
            break;
        }
    }
    if let Some(id) = session_id {
        manager.disconnect(id);
    }
}

fn dispatch(
    request: Result<Request, String>,
    manager: &SessionManager,
    session_id: &mut Option<SessionId>,
) -> String {
    let request = match request {
        Ok(r) => r,
        Err(e) => return ErrorResponse::line(e),
    };
    match request {
        Request::Connect { name } => {
            if session_id.is_some() {
                return ErrorResponse::line("already connected");
            }
            let name = name.unwrap_or_else(|| "anon".into());
            let (id, _) = manager.connect(&name);
            *session_id = Some(id);
            render(&ConnectResponse { ok: true, session: id, name })
        }
        Request::Quit => render(&CancelResponse { ok: true, cancelled: false }),
        other => {
            let Some(id) = *session_id else {
                return ErrorResponse::line("not connected (send CONNECT first)");
            };
            let Some(session) = manager.session(id) else {
                return ErrorResponse::line("session closed");
            };
            let mut session = session.lock();
            match other {
                Request::Edit(op) => {
                    session.edit(op);
                    let g = session.partial();
                    render(&EditResponse {
                        ok: true,
                        relations: g.relations().count() as u64,
                        selections: g.selections().count() as u64,
                        joins: g.join_count() as u64,
                        outstanding: session.building(),
                    })
                }
                Request::Go => match session.go_counted() {
                    Ok(out) => render(&GoResponse {
                        ok: true,
                        rows: out.output.row_count,
                        elapsed_secs: out.output.elapsed.as_secs_f64(),
                        used_views: out.output.used_views.clone(),
                        shared_hit: out.shared_hit,
                    }),
                    Err(e) => ErrorResponse::line(format!("execution failed: {e}")),
                },
                Request::Cancel => {
                    let cancelled = session.cancel();
                    render(&CancelResponse { ok: true, cancelled })
                }
                Request::Stats => {
                    // The session settles a finished build first, so the
                    // fleet counters below include it.
                    let stats = session.stats();
                    let fleet = manager.fleet_stats();
                    render(&StatsResponse {
                        ok: true,
                        session: stats,
                        sessions: fleet.sessions,
                        governor: fleet.governor,
                        cache: fleet.cache.into(),
                    })
                }
                Request::Connect { .. } | Request::Quit => unreachable!("handled above"),
            }
        }
    }
}
