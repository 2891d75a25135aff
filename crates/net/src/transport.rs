//! The one socket type of the daemon and the client: a connected TCP or
//! unix-domain stream behind `Read` + `Write`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// A connected TCP or unix-domain stream.
pub(crate) enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Transport {
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.set_nonblocking(nonblocking),
            Transport::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl AsRawFd for Transport {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Transport::Tcp(s) => s.as_raw_fd(),
            Transport::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Unix(s) => s.flush(),
        }
    }
}
