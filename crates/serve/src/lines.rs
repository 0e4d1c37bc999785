//! Line input for every socket the crate reads: the job server's request
//! loop, the client, and both ends of a coordinator↔worker connection.
//!
//! [`BoundedLines`] reads raw bytes up to a newline and checks UTF-8 only
//! once the line is complete, so no read boundary — a timeout, a slow link —
//! can tear a multi-byte character. A line longer than [`MAX_LINE_BYTES`] is
//! refused instead of buffered without end.
//!
//! A [`Connection`] pairs a socket with its *pump*: one thread that blocks in
//! plain, timeout-free line reads and forwards each line, then the
//! connection's end, to the owner, which keeps the socket for writing.
//! Dropping the connection shuts the socket down — the peer sees EOF at once
//! and the pump's blocked read returns — and joins the pump.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread::JoinHandle;

use crate::json::Json;

/// The longest line, in bytes before its `\n`, that any network input of
/// the crate accepts, and so the most one connection can make a reader
/// buffer. An inline netlist travels in one line: the generated 10^6-gate
/// tile is 43 MB as `.bench` and 49 MB as BLIF, so million-gate jobs fit.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// A line reader that never tears a line and never buffers past
/// [`MAX_LINE_BYTES`]. The bytes of a partial line survive a read error such
/// as a timeout, so the next call carries on where the last one stopped.
pub(crate) struct BoundedLines<R> {
    reader: BufReader<R>,
    pending: Vec<u8>,
}

impl<R: Read> BoundedLines<R> {
    pub(crate) fn new(inner: R) -> BoundedLines<R> {
        BoundedLines {
            reader: BufReader::new(inner),
            pending: Vec::new(),
        }
    }

    /// The next line without its `\n` or `\r\n`, or `None` at EOF. An
    /// unterminated last line is returned as a line.
    ///
    /// # Errors
    ///
    /// Propagates read errors (timeouts included, with the partial line kept),
    /// and returns [`io::ErrorKind::InvalidData`] for a line longer than
    /// [`MAX_LINE_BYTES`] or not valid UTF-8.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<String>> {
        // Room for the longest line plus its newline.
        let room = MAX_LINE_BYTES + 1 - self.pending.len();
        (&mut self.reader)
            .take(room as u64)
            .read_until(b'\n', &mut self.pending)?;
        let mut line = match self.pending.last() {
            None => return Ok(None),
            Some(b'\n') => std::mem::take(&mut self.pending),
            Some(_) if self.pending.len() > MAX_LINE_BYTES => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line longer than {MAX_LINE_BYTES} bytes"),
                ));
            }
            // EOF in mid-line.
            Some(_) => std::mem::take(&mut self.pending),
        };
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not UTF-8"))
    }
}

/// What a pump forwards: every non-blank line, then exactly one end.
pub(crate) enum Pumped {
    /// A complete line, without its terminator.
    Line(String),
    /// The peer closed the connection.
    Closed,
    /// The read failed, or a line was over-long or not UTF-8.
    Failed(String),
}

/// One NDJSON connection: the socket its owner writes to, and the pump
/// reading it. Dropping it shuts the socket down and joins the pump.
pub(crate) struct Connection {
    socket: TcpStream,
    pump: Option<JoinHandle<()>>,
}

impl Connection {
    /// Starts the pump of `socket`. `forward` receives every [`Pumped`] item
    /// and returns whether the pump should keep reading.
    ///
    /// # Errors
    ///
    /// Fails when the socket cannot be cloned or the thread cannot start.
    pub(crate) fn open(
        socket: TcpStream,
        mut forward: impl FnMut(Pumped) -> bool + Send + 'static,
    ) -> io::Result<Connection> {
        let mut lines = BoundedLines::new(socket.try_clone()?);
        let pump = std::thread::Builder::new()
            .name("dipe-serve-pump".to_string())
            .spawn(move || loop {
                let item = match lines.next_line() {
                    Ok(Some(line)) if line.trim().is_empty() => continue,
                    Ok(Some(line)) => Pumped::Line(line),
                    Ok(None) => Pumped::Closed,
                    Err(error) => Pumped::Failed(error.to_string()),
                };
                let more = matches!(item, Pumped::Line(_));
                if !forward(item) || !more {
                    return;
                }
            })?;
        Ok(Connection {
            socket,
            pump: Some(pump),
        })
    }

    /// Writes `value` as one line.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub(crate) fn send(&mut self, value: &Json) -> io::Result<()> {
        let mut line = value.to_line();
        line.push('\n');
        self.socket.write_all(line.as_bytes())?;
        self.socket.flush()
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Both);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(bytes: &[u8]) -> Vec<io::Result<Option<String>>> {
        let mut lines = BoundedLines::new(bytes);
        let mut out = Vec::new();
        loop {
            let next = lines.next_line();
            let end = !matches!(next, Ok(Some(_)));
            out.push(next);
            if end {
                return out;
            }
        }
    }

    #[test]
    fn lines_lose_their_terminators_and_keep_an_unterminated_tail() {
        let got: Vec<Option<String>> = lines_of(b"a\r\nb\n\ncaf\xC3\xA9")
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let want = ["a", "b", "", "café"].map(|s| Some(s.to_string()));
        assert_eq!(got[..4], want);
        assert_eq!(got[4], None);
    }

    #[test]
    fn an_over_long_or_non_utf8_line_is_invalid_data() {
        let line_of = |len: usize| io::repeat(b'x').take(len as u64).chain(&b"\n"[..]);
        let mut longest = BoundedLines::new(line_of(MAX_LINE_BYTES));
        assert_eq!(longest.next_line().unwrap().unwrap().len(), MAX_LINE_BYTES);

        let mut too_long = BoundedLines::new(line_of(MAX_LINE_BYTES + 1));
        let err = too_long.next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = lines_of(b"\xC3\n").pop().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Hands out one chunk per read; an empty chunk is a read timeout, like
    /// a socket's under a read timeout.
    struct Stuttering(Vec<&'static [u8]>);

    impl Read for Stuttering {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            if chunk.is_empty() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn a_partial_line_survives_a_timeout_inside_a_character() {
        let mut lines = BoundedLines::new(Stuttering(vec![b"caf\xC3", b"", b"\xA9\n"]));
        let err = lines.next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(lines.next_line().unwrap().as_deref(), Some("café"));
        assert_eq!(lines.next_line().unwrap(), None);
    }
}
