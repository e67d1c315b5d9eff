//! A minimal blocking HTTP/1.1 client for tests, benches, and
//! examples.
//!
//! Deliberately tiny: one request per connection (matching the
//! server's `Connection: close` contract), reads to EOF, and exposes
//! a [`raw`] escape hatch that sends arbitrary bytes — the chaos
//! harness uses it to deliver precisely malformed requests.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{self, Json};

/// How long a client waits for a reply.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code from the status line.
    pub status: u16,
    /// Header pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    /// The parser's description of the first syntax violation.
    pub fn json(&self) -> Result<Json, String> {
        json::parse(&self.text())
    }
}

/// `GET path`.
///
/// # Errors
/// Connection, write, or parse failures, rendered.
pub fn get(addr: SocketAddr, path: &str) -> Result<HttpReply, String> {
    raw(addr, &request_bytes("GET", path, b""))
}

/// `POST path` with a JSON body.
///
/// # Errors
/// Connection, write, or parse failures, rendered.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<HttpReply, String> {
    raw(addr, &request_bytes("POST", path, body.as_bytes()))
}

/// `POST path` after holding the connection idle for `hold`: the
/// server worker that picks it up blocks in its bounded read meanwhile,
/// so load tests can occupy workers without a server-side knob. A
/// connection the server sheds on accept is answered during the hold
/// and never writes.
///
/// # Errors
/// Connection, write, or parse failures, rendered.
pub fn post_after(
    addr: SocketAddr,
    hold: Duration,
    path: &str,
    body: &str,
) -> Result<HttpReply, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(hold))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let answered = stream.peek(&mut [0u8]).is_ok();
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    if !answered {
        stream
            .write_all(&request_bytes("POST", path, body.as_bytes()))
            .map_err(|e| format!("write: {e}"))?;
        let _ = stream.shutdown(Shutdown::Write);
    }
    read_reply(&mut stream)
}

fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nhost: sgl\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Sends `bytes` verbatim and parses whatever comes back. The chaos
/// harness's door into the building: nothing here validates that the
/// payload resembles HTTP.
///
/// # Errors
/// Connection, write, or parse failures, rendered.
pub fn raw(addr: SocketAddr, bytes: &[u8]) -> Result<HttpReply, String> {
    let mut stream = connect(addr)?;
    stream.write_all(bytes).map_err(|e| format!("write: {e}"))?;
    let _ = stream.shutdown(Shutdown::Write);
    read_reply(&mut stream)
}

/// Connects with sane test timeouts.
///
/// # Errors
/// Connection failures, rendered.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("set_write_timeout: {e}"))?;
    Ok(stream)
}

/// Reads a full `Connection: close` response off `stream`.
///
/// # Errors
/// Read or parse failures, rendered.
pub fn read_reply(stream: &mut TcpStream) -> Result<HttpReply, String> {
    let mut buf = Vec::new();
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    parse_reply(&buf)
}

fn parse_reply(buf: &[u8]) -> Result<HttpReply, String> {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in {} response bytes", buf.len()))?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(HttpReply {
        status,
        headers,
        body: buf[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_close_delimited_reply() {
        let reply = parse_reply(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\ncontent-length: 2\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.text(), "{}");
        assert!(parse_reply(b"garbage").is_err());
    }
}
