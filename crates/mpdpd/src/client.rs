//! A small blocking client for the daemon's NDJSON protocol, shared by
//! `mpdp-load`, the `exp_serve_load` bench, and the integration tests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// A connected protocol client. One request line in, one response line out;
/// [`Client::call`] pairs them, [`Client::send`]/[`Client::recv`] pipeline.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    /// The request line being framed, reused by every [`Client::send`].
    frame: Vec<u8>,
}

impl Client {
    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            frame: Vec::new(),
        })
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
            frame: Vec::new(),
        })
    }

    /// Sends one request line without waiting for the response.
    ///
    /// # Errors
    ///
    /// Propagates write failures (e.g. the daemon closed the connection).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        // One write per line: the daemon never sees a line without its
        // newline, and the request costs one `send(2)`.
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.writer.write_all(&self.frame)?;
        self.writer.flush()
    }

    /// Reads one response line (without its trailing newline).
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the daemon closed the connection; otherwise
    /// read failures (including the 30 s safety timeout).
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// One synchronous request/response round trip.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] and [`Client::recv`] failures.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}
