//! A minimal HTTP/1.1 client. The daemon closes every connection after
//! its response, so each call is one connection: connect, write the whole
//! request, read to end of stream.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout for connect, write and read; a request that runs past
/// it counts as a timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Media type of JSON bodies.
pub const JSON: &str = "application/json";

/// A response: status code and body bytes.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Sends one request and reads the whole response.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    accept: Option<&str>,
    body: &[u8],
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    // One write for head and body: no small trailing segment for Nagle
    // and delayed ACKs to hold back.
    let mut msg = Vec::with_capacity(192 + body.len());
    write!(msg, "{method} {path} HTTP/1.1\r\nhost: perfbench\r\n")?;
    if let Some(ct) = content_type {
        write!(msg, "content-type: {ct}\r\n")?;
    }
    if let Some(a) = accept {
        write!(msg, "accept: {a}\r\n")?;
    }
    write!(msg, "content-length: {}\r\n\r\n", body.len())?;
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    stream.shutdown(Shutdown::Write)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(raw)
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str, accept: Option<&str>) -> io::Result<Reply> {
    call(addr, "GET", path, None, accept, &[])
}

/// `POST path` with a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Reply> {
    call(addr, "POST", path, Some(JSON), None, body)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Splits a raw response into status and body, rejecting a body that
/// does not match its `Content-Length`.
fn parse(mut raw: Vec<u8>) -> io::Result<Reply> {
    let head_end =
        raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| invalid("no header end"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let length = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim().parse::<usize>())
    });
    let body = raw.split_off(head_end + 4);
    match length {
        Some(Ok(len)) if len != body.len() => Err(invalid("body does not match its length")),
        Some(Err(_)) => Err(invalid("bad content-length")),
        _ => Ok(Reply { status, body }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_framed_body() {
        let raw = b"HTTP/1.1 409 Conflict\r\ncontent-type: application/json\r\n\
                    content-length: 2\r\nconnection: close\r\n\r\n{}"
            .to_vec();
        let reply = parse(raw).expect("well-formed");
        assert_eq!(reply.status, 409);
        assert_eq!(reply.body, b"{}");
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n{}".to_vec();
        assert!(parse(short).is_err(), "a truncated body is an error");
    }
}
