//! The JSON-over-Unix-socket frontend.
//!
//! Wire protocol: line-delimited JSON, one request object per line, one
//! response object per line, over a `SOCK_STREAM` Unix socket. A
//! connection may issue any number of requests. Requests name an `op`:
//!
//! ```text
//! {"op":"submit","key":"hic1;app=FFT;...","priority":0}
//!     -> {"ok":true,"id":7,"cached":false}
//! {"op":"status","id":7}
//!     -> {"ok":true,"id":7,"state":"running","priority":0}
//! {"op":"result","id":7}              (blocks until done)
//!     -> {"ok":true,"id":7,"result":{...outcome...}}
//! {"op":"cancel","id":7}
//!     -> {"ok":true,"cancelled":true}
//! {"op":"stats"}
//!     -> {"ok":true,"submitted":N,"completed":N,...}
//! {"op":"shutdown"}
//!     -> {"ok":true}        (server stops accepting connections)
//! ```
//!
//! Errors are per-request, never connection-fatal:
//! `{"ok":false,"error":"..."}`. The request payload is a
//! [`RunRequest::cache_key`] string — the canonical serialized form —
//! so the wire format and the cache key cannot drift apart.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hic_runtime::RunRequest;
use hic_sim::Json;

use crate::server::Server;

/// Serve `server` on a Unix socket at `path` until a client sends
/// `{"op":"shutdown"}`. Replaces any stale socket file at `path`.
pub fn serve(server: Server, path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    // Nonblocking accept so the loop can observe the shutdown flag a
    // connection handler sets (a blocking accept would park forever
    // waiting for a client that already said shutdown).
    listener.set_nonblocking(true)?;
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns = Vec::new();

    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    let _ = handle_connection(&server, stream, &stop);
                }));
                // Reap finished connection threads so a long-lived
                // server does not accumulate handles.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(_) => continue,
        }
    }
    for h in conns {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn handle_connection(
    server: &Server,
    stream: UnixStream,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(server, &line, stop);
        writer.write_all(response.to_string().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

fn err(msg: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(msg.into()))])
}

/// Dispatch one request line. Public so the batch CLI and tests can
/// drive the protocol without a socket.
pub fn handle_line(server: &Server, line: &str, stop: &AtomicBool) -> Json {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return err(format!("malformed JSON: {e}")),
    };
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return err("missing \"op\""),
    };
    let id_of = |req: &Json| req.get("id").and_then(Json::as_u64);
    match op {
        "submit" => {
            let Some(key) = req.get("key").and_then(Json::as_str) else {
                return err("submit needs a \"key\" (RunRequest cache key)");
            };
            let run_req = match RunRequest::parse_key(key) {
                Ok(r) => r,
                Err(e) => return err(format!("{e}")),
            };
            let priority = req.get("priority").and_then(Json::as_i64).unwrap_or(0);
            match server.submit(run_req, priority) {
                Ok((id, cached)) => Json::obj([
                    ("ok", Json::Bool(true)),
                    ("id", Json::uint(id)),
                    ("cached", Json::Bool(cached)),
                ]),
                Err(e) => err(e),
            }
        }
        "status" => match id_of(&req).and_then(|id| server.status(id)) {
            Some(job) => Json::obj([
                ("ok", Json::Bool(true)),
                ("id", Json::uint(job.id)),
                ("state", Json::str(job.state.name())),
                ("priority", Json::Num(job.priority as f64)),
                ("cached", Json::Bool(job.cached)),
            ]),
            None => err("unknown job id"),
        },
        "result" => match id_of(&req) {
            Some(id) => match server.wait(id) {
                Some((outcome, cached)) => Json::obj([
                    ("ok", Json::Bool(true)),
                    ("id", Json::uint(id)),
                    ("result", outcome.to_json(cached)),
                ]),
                None => err("unknown or cancelled job id"),
            },
            None => err("result needs an \"id\""),
        },
        "cancel" => match id_of(&req) {
            Some(id) => Json::obj([
                ("ok", Json::Bool(true)),
                ("cancelled", Json::Bool(server.cancel(id))),
            ]),
            None => err("cancel needs an \"id\""),
        },
        "stats" => {
            let s = server.stats();
            Json::obj([
                ("ok", Json::Bool(true)),
                ("submitted", Json::uint(s.submitted)),
                ("completed", Json::uint(s.completed)),
                ("failed", Json::uint(s.failed)),
                ("cancelled", Json::uint(s.cancelled)),
                ("cache_hits", Json::uint(s.cache_hits)),
                ("queued", Json::uint(s.queued)),
                ("running", Json::uint(s.running)),
            ])
        }
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            Json::obj([("ok", Json::Bool(true))])
        }
        other => err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_apps::Scale;
    use hic_runtime::{Config, IntraConfig};

    #[test]
    fn protocol_round_trip_without_a_socket() {
        let server = Server::start(1, None);
        let stop = AtomicBool::new(false);
        let key = RunRequest::new("FFT", Config::Intra(IntraConfig::Base), Scale::Test).cache_key();

        let sub = handle_line(
            &server,
            &Json::obj([("op", Json::str("submit")), ("key", Json::str(&*key))]).to_string(),
            &stop,
        );
        assert_eq!(sub.get("ok"), Some(&Json::Bool(true)), "{sub:?}");
        let id = sub.get("id").and_then(Json::as_u64).unwrap();

        let res = handle_line(
            &server,
            &format!("{{\"op\":\"result\",\"id\":{id}}}"),
            &stop,
        );
        let outcome = res.get("result").unwrap();
        assert_eq!(outcome.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(outcome.get("error"), Some(&Json::Null));
        assert_eq!(outcome.get("key").and_then(Json::as_str), Some(&*key));

        let bad = handle_line(&server, "{\"op\":\"submit\",\"key\":\"nope\"}", &stop);
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(!stop.load(Ordering::SeqCst));
        server.shutdown();
    }
}
