//! A lean keep-alive HTTP/1.1 client for the load generator.
//!
//! One buffer per connection, reused for every response; only the
//! headers the checker needs are kept. The server closing the
//! connection (`Connection: close`, its per-connection request cap) is
//! followed by a reconnect before the next request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Headers of the last response, parsed.
#[derive(Debug, Default)]
pub struct Head {
    pub status: u16,
    pub etag: Option<String>,
    pub set_cookie: Option<String>,
    pub close: bool,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    req: Vec<u8>,
    buf: Vec<u8>,
    body: std::ops::Range<usize>,
    /// Response bytes received on the wire (head + body), all requests.
    pub wire_bytes: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            req: Vec::with_capacity(512),
            buf: Vec::with_capacity(1 << 17),
            body: 0..0,
            wire_bytes: 0,
        }
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }

    /// Send one request (`form` makes it a urlencoded POST) and read the
    /// whole response. On error the connection is dropped; the next call
    /// reconnects.
    pub fn send(
        &mut self,
        target: &str,
        headers: &[(&str, &str)],
        form: Option<&str>,
    ) -> io::Result<Head> {
        let r = self.exchange(target, headers, form);
        match &r {
            Ok(h) if h.close => self.stream = None,
            Err(_) => self.stream = None,
            _ => {}
        }
        r
    }

    fn exchange(
        &mut self,
        target: &str,
        headers: &[(&str, &str)],
        form: Option<&str>,
    ) -> io::Result<Head> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.req.clear();
        let method = if form.is_some() { "POST" } else { "GET" };
        write!(self.req, "{method} {target} HTTP/1.1\r\nHost: bench\r\n")?;
        for (n, v) in headers {
            write!(self.req, "{n}: {v}\r\n")?;
        }
        if let Some(f) = form {
            write!(
                self.req,
                "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{f}",
                f.len()
            )?;
        } else {
            self.req.extend_from_slice(b"\r\n");
        }
        stream.write_all(&self.req)?;

        // read until the end of the head
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            fill(stream, &mut self.buf)?;
        };
        let (head, len) = parse_head(&self.buf[..head_end])?;
        while self.buf.len() < head_end + len {
            fill(stream, &mut self.buf)?;
        }
        if self.buf.len() > head_end + len {
            return Err(bad("bytes beyond the response (unsolicited data)"));
        }
        self.body = head_end..head_end + len;
        self.wire_bytes += (head_end + len) as u64;
        Ok(head)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Append whatever the socket has (at least one byte) to `buf`.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let old = buf.len();
    buf.resize(old + 64 * 1024, 0);
    let n = stream.read(&mut buf[old..]);
    buf.truncate(old + *n.as_ref().unwrap_or(&0));
    match n? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        _ => Ok(()),
    }
}

/// Parse a response head; returns it and the body length.
fn parse_head(raw: &[u8]) -> io::Result<(Head, usize)> {
    let text = std::str::from_utf8(raw).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut head = Head {
        status,
        ..Head::default()
    };
    let mut len = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value.parse().ok();
        } else if name.eq_ignore_ascii_case("etag") {
            head.etag = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("set-cookie") {
            head.set_cookie = value.split(';').next().map(str::to_string);
        } else if name.eq_ignore_ascii_case("connection") {
            head.close = value.eq_ignore_ascii_case("close");
        }
    }
    let len = match (len, status) {
        (Some(n), _) => n,
        (None, 304) => 0,
        _ => return Err(bad("response without Content-Length")),
    };
    Ok((head, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_headers_the_checker_needs() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nETag: \"ab\"\r\n\
                    Set-Cookie: WEBMLSESSION=s1; Path=/\r\nConnection: close\r\n\r\n";
        let (h, len) = parse_head(raw).unwrap();
        assert_eq!((h.status, len, h.close), (200, 12, true));
        assert_eq!(h.etag.as_deref(), Some("\"ab\""));
        assert_eq!(h.set_cookie.as_deref(), Some("WEBMLSESSION=s1"));
        let (h, len) = parse_head(b"HTTP/1.1 304 Not Modified\r\n\r\n").unwrap();
        assert_eq!((h.status, len), (304, 0));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }
}
