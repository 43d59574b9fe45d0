//! The benchmark's JSON-lines TCP client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Whether a response line is a streamed `part` (more lines follow for
/// the same request). `status` is the second field of every response.
pub fn is_part(line: &str) -> bool {
    line.get(..48)
        .unwrap_or(line)
        .contains("\"status\":\"part\"")
}

/// One persistent connection, used closed-loop: send a line, read the
/// response line(s).
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// A line read in part when a read timed out; completed by the next
    /// read.
    partial: Vec<u8>,
}

impl Conn {
    /// Connects with a read timeout: no reply can hang the caller past
    /// `read_timeout`.
    pub fn connect(addr: &str, read_timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            partial: Vec::new(),
        })
    }

    /// Writes `line` plus newline without waiting for the answer.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let stream = self.reader.get_mut();
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        stream.write_all(&buf)
    }

    /// Reads one response line (without its newline). A read that times
    /// out keeps what it got for the next call.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        self.reader.read_until(b'\n', &mut self.partial)?;
        if self.partial.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let mut line = std::mem::take(&mut self.partial);
        line.pop();
        String::from_utf8(line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends one request and returns every line of its answer: the `part`
    /// lines of a streamed reply, then the closing line.
    pub fn call(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.send(line)?;
        let mut lines = Vec::with_capacity(1);
        loop {
            let response = self.recv_line()?;
            let done = !is_part(&response);
            lines.push(response);
            if done {
                return Ok(lines);
            }
        }
    }

    /// A second handle on the same socket, for a writer thread beside a
    /// reader thread (open loop).
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }
}
