//! A dependency-free HTTP scrape endpoint over `std::net`.
//!
//! One listener thread accepts connections; each request is answered from
//! a [`MetricsHub`] snapshot and the connection closed (`Connection:
//! close` keeps the loop trivially correct — Prometheus and `fuxitop`
//! both reconnect per poll). Routes:
//!
//! * `GET /metrics` — Prometheus text exposition of the cluster view;
//! * `GET /json` — the full [`fuxi_obs::ClusterView`] as JSON (agents,
//!   jobs, active alerts);
//! * anything else — `404`.
//!
//! The server holds no locks while writing to sockets: it snapshots the
//! view, renders, then writes, so a slow scraper cannot stall the master's
//! rollup path.

use fuxi_obs::MetricsHub;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawns the
/// listener thread, and returns the bound address. The thread serves until
/// the process exits; connections are per-request.
pub fn serve(hub: MetricsHub, addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("fuxi-scrape".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let hub = hub.clone();
                // One short-lived thread per request keeps a stalled
                // scraper from blocking the accept loop.
                let _ = std::thread::Builder::new()
                    .name("fuxi-scrape-conn".into())
                    .spawn(move || handle(hub, stream));
            }
        })
        .expect("spawn scrape listener thread");
    Ok(bound)
}

fn handle(hub: MetricsHub, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut line = String::new();
    {
        let mut reader = BufReader::new(&stream);
        if reader.read_line(&mut line).is_err() {
            return;
        }
        // Drain the header block so well-behaved clients see a clean close.
        let mut hdr = String::new();
        while reader.read_line(&mut hdr).is_ok() {
            if hdr == "\r\n" || hdr == "\n" || hdr.is_empty() {
                break;
            }
            hdr.clear();
        }
    }
    let path = line.split_whitespace().nth(1).unwrap_or("/");
    let view = hub.snapshot();
    let (status, ctype, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            view.to_prometheus(),
        ),
        "/json" => ("200 OK", "application/json", view.to_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found: try /metrics or /json\n".to_owned(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").unwrap();
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn serves_prometheus_and_json() {
        let hub = MetricsHub::default();
        hub.update(|v| {
            v.rollup.jobs_per_sec = 2.0;
            v.rollup.jobs_finished_total = 4;
        });
        let addr = serve(hub, "127.0.0.1:0").unwrap();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("fuxi_jobs_per_sec 2.000000"), "{body}");
        assert!(body.contains("# TYPE fuxi_jobs_per_sec gauge"), "{body}");

        let (head, body) = get(addr, "/json");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"jobs_finished_total\":4"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }
}
