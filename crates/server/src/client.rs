//! A small blocking client for the wire protocol, used by the loopback
//! tests and the `repro_serve` load generator.
//!
//! [`Client::request`] is the simple call-response path;
//! [`Client::send`] + [`Client::recv`] expose pipelining — queue many
//! requests before reading any reply, and the server answers them in order.
//! Every reply comes back as JSON: a binary `SCAN` frame is decoded into a
//! JSON object by [`crate::protocol::decode_scan_reply`].

use crate::protocol::{decode_scan_reply, frame_into, FrameCursor, FrameError, SCAN_REPLY_TAG};
use leco_bench::report::Json;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    cursor: FrameCursor,
    chunk: Vec<u8>,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            cursor: FrameCursor::new(),
            chunk: vec![0u8; 16 * 1024],
        })
    }

    /// Queue one command without waiting for its reply (pipelining).
    pub fn send(&mut self, command: &str) -> std::io::Result<()> {
        self.send_payload(command.as_bytes())
    }

    /// Queue a raw payload frame — lets tests send malformed bytes.
    pub fn send_payload(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(4 + payload.len());
        frame_into(&mut wire, payload);
        self.stream.write_all(&wire)
    }

    /// Send raw bytes with no framing — for corrupt-stream tests.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read the next reply frame: a JSON reply is parsed, a binary `SCAN`
    /// reply decoded into the same JSON object.  A reply that is neither —
    /// a corrupt scan frame, text that is not UTF-8 or not JSON — is an
    /// `InvalidData` error.
    pub fn recv(&mut self) -> std::io::Result<Json> {
        loop {
            match self.cursor.next_frame() {
                Ok(Some(payload)) => return decode_reply(&payload),
                Ok(None) => {}
                Err(FrameError::Oversized(len)) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("oversized reply frame ({len} bytes)"),
                    ))
                }
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            let (chunk, cursor) = (&self.chunk[..n], &mut self.cursor);
            cursor.push(chunk);
        }
    }

    /// Send one command and wait for its reply.
    pub fn request(&mut self, command: &str) -> std::io::Result<Json> {
        self.send(command)?;
        self.recv()
    }
}

fn decode_reply(payload: &[u8]) -> std::io::Result<Json> {
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    if payload.first() == Some(&SCAN_REPLY_TAG) {
        return decode_scan_reply(payload).map_err(|e| invalid(format!("bad scan reply: {e}")));
    }
    let text =
        std::str::from_utf8(payload).map_err(|e| invalid(format!("reply is not UTF-8: {e}")))?;
    Json::parse(text).map_err(|e| invalid(format!("bad reply JSON: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot server: accepts one connection, writes `wire`, then
    /// holds the socket open until the client hangs up.
    fn serve_once(wire: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&wire).unwrap();
            let _ = stream.read(&mut [0u8; 1]);
        });
        (addr, handle)
    }

    #[test]
    fn invalid_utf8_reply_is_invalid_data() {
        let mut wire = Vec::new();
        frame_into(
            &mut wire,
            b"{\"code\":200,\"status\":\"ok\",\"value\":\"\xff\"}",
        );
        let (addr, server) = serve_once(wire);
        let mut client = Client::connect(addr).unwrap();
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not UTF-8"), "{err}");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn corrupt_scan_frame_is_invalid_data() {
        let mut wire = Vec::new();
        frame_into(&mut wire, &[SCAN_REPLY_TAG, 1, 1, 1, 1, 0, 0, 9]);
        let (addr, server) = serve_once(wire);
        let mut client = Client::connect(addr).unwrap();
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad scan reply"), "{err}");
        drop(client);
        server.join().unwrap();
    }
}
