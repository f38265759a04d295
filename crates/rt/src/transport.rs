//! The deployment transport: versioned, framed, supervised links between
//! `fuxi-node` processes.
//!
//! Every frame carries the [`fuxi_proto::wire`] header — magic `"FUXI"`,
//! `u16` protocol version, `u16` frame type, `u32` payload length — and
//! connections open with a HELLO handshake: the dialing side sends a
//! [`Hello`] (its node identity, actor-id base and session epoch), the
//! accepting side answers [`HelloAck`] (its replicated name/store
//! snapshot) or a `HelloReject` frame with a raw UTF-8 reason. A version
//! mismatch is a typed [`WireError::VersionMismatch`] /
//! [`WireError::Rejected`] on the two sides — never a decode panic.
//!
//! The [`Transport`] trait abstracts the byte pipe so the in-process
//! channel pair ([`ChannelTransport::pair`]) and real TCP
//! ([`TcpTransport`]) run the *same* framing and handshake code: what the
//! unit tests exercise in-proc is byte-for-byte what crosses machines.
//!
//! Failure semantics (what supervision keys on):
//! * EOF exactly at a frame boundary, or a `Bye` frame → orderly close
//!   (`Ok(None)` from [`Transport::recv`]);
//! * EOF mid-header or mid-payload, resets, I/O errors →
//!   [`WireError::ConnectionLost`];
//! * an unknown frame type is *skipped* (counted, payload consumed) so a
//!   newer peer can add frame kinds without breaking us.

use fuxi_proto::wire::{
    self, FrameType, Hello, HelloAck, WireError, HEADER_LEN, MAX_FRAME, PROTO_VERSION,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// One decoded frame as delivered by [`Transport::recv`].
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload is.
    pub frame_type: FrameType,
    /// Raw payload bytes (decode with [`fuxi_proto::wire::decode_payload`]).
    pub payload: Vec<u8>,
}

/// A connected, handshaken, framed byte pipe. Object-safe so supervisors
/// hold `Box<dyn Transport>` regardless of the medium.
pub trait Transport: Send {
    /// Sends one frame (header + payload).
    fn send(&mut self, frame_type: FrameType, payload: &[u8]) -> Result<(), WireError>;

    /// Sends `frames` in order. Over TCP they leave in one write, so a
    /// writer that drains its queue pays one system call per burst rather
    /// than one per frame. On an error, how many of them went is unknown.
    fn send_batch(&mut self, frames: &[(FrameType, Vec<u8>)]) -> Result<(), WireError> {
        for (frame_type, payload) in frames {
            self.send(*frame_type, payload)?;
        }
        Ok(())
    }

    /// Blocks for the next frame. `Ok(None)` on orderly close (clean EOF
    /// or `Bye`); unknown frame types are skipped and counted.
    fn recv(&mut self) -> Result<Option<Frame>, WireError>;

    /// Frames skipped because their type was unknown to this build.
    fn skipped_frames(&self) -> u64;

    /// Human-readable peer description for diagnostics.
    fn peer(&self) -> String;

    /// An independent handle onto the same link (so one thread can block
    /// in `recv` while others `send`).
    fn try_clone_box(&self) -> Result<Box<dyn Transport>, WireError>;
}

fn lost(e: impl std::fmt::Display) -> WireError {
    WireError::ConnectionLost(e.to_string())
}

// ---------------------------------------------------------------------
// Shared framing over any Read/Write
// ---------------------------------------------------------------------

fn write_frame(w: &mut impl Write, version: u16, frame_type: u16, payload: &[u8]) -> Result<(), WireError> {
    check_size(payload)?;
    let frame = wire::encode_frame(version, frame_type, payload);
    w.write_all(&frame).map_err(lost)?;
    w.flush().map_err(lost)
}

fn check_size(payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(WireError::FrameTooLarge(payload.len() as u32));
    }
    Ok(())
}

/// Reads one frame. `Ok(None)` on EOF at a frame boundary; EOF anywhere
/// *inside* a frame is [`WireError::ConnectionLost`] — the length prefix
/// is only trusted as far as the bytes actually arrive.
fn read_frame(r: &mut impl Read, expect_version: u16) -> Result<Option<(u16, Vec<u8>)>, WireError> {
    let mut hdr = [0u8; HEADER_LEN];
    // Hand-rolled read_exact so EOF-at-boundary and EOF-mid-header are
    // distinguishable.
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut hdr[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::ConnectionLost(format!(
                    "EOF after {got} header bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(lost(e)),
        }
    }
    let header = wire::parse_header(&hdr)?;
    if header.version != expect_version {
        return Err(WireError::VersionMismatch { ours: expect_version, theirs: header.version });
    }
    let mut payload = vec![0u8; header.len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(WireError::ConnectionLost(format!(
                    "EOF mid-frame: {got}/{} payload bytes",
                    payload.len()
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(lost(e)),
        }
    }
    Ok(Some((header.frame_type, payload)))
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// [`Transport`] over a real TCP socket, post-handshake.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// The receive side, buffered: one `read` takes in every frame already
    /// on the socket. Made at the first [`Transport::recv`], so the
    /// handshake's exact-length reads leave nothing behind in it.
    reader: Option<BufReader<TcpStream>>,
    peer: String,
    skipped: Arc<AtomicU64>,
}

impl TcpTransport {
    /// Dials `addr`, runs the client half of the HELLO handshake, and
    /// returns the connected transport plus the hub's [`HelloAck`].
    pub fn connect(addr: impl ToSocketAddrs, hello: &Hello) -> Result<(TcpTransport, HelloAck), WireError> {
        Self::connect_with_version(addr, hello, PROTO_VERSION)
    }

    /// [`TcpTransport::connect`] with an explicit version stamped on the
    /// HELLO frame — how tests (and future downgrade logic) exercise the
    /// negotiation path.
    pub fn connect_with_version(
        addr: impl ToSocketAddrs,
        hello: &Hello,
        version: u16,
    ) -> Result<(TcpTransport, HelloAck), WireError> {
        let stream = TcpStream::connect(addr).map_err(lost)?;
        stream.set_nodelay(true).ok();
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        let skipped = Arc::new(AtomicU64::new(0));
        let mut t = TcpTransport { stream, reader: None, peer, skipped };
        // The HELLO payload is always encoded at our build's version; the
        // *frame header* carries the claimed version under negotiation.
        let payload = wire::encode_payload(PROTO_VERSION, hello)?;
        write_frame(&mut t.stream, version, FrameType::Hello as u16, &payload)?;
        // The reply may legitimately arrive stamped with the server's own
        // version (a reject from a different build), so read it leniently.
        let mut hdr = [0u8; HEADER_LEN];
        t.stream.read_exact(&mut hdr).map_err(lost)?;
        let header = wire::parse_header(&hdr)?;
        let mut payload = vec![0u8; header.len as usize];
        t.stream.read_exact(&mut payload).map_err(lost)?;
        match FrameType::from_u16(header.frame_type) {
            Some(FrameType::HelloAck) => {
                let ack = wire::decode_payload::<HelloAck>(header.version, &payload)?;
                Ok((t, ack))
            }
            Some(FrameType::HelloReject) => Err(WireError::Rejected {
                peer_version: header.version,
                reason: String::from_utf8_lossy(&payload).into_owned(),
            }),
            other => Err(WireError::Malformed(format!(
                "expected HelloAck/HelloReject, got {other:?}"
            ))),
        }
    }

    /// Raw stream accessor (the node supervisor sets read timeouts on it).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame_type: FrameType, payload: &[u8]) -> Result<(), WireError> {
        write_frame(&mut self.stream, PROTO_VERSION, frame_type as u16, payload)
    }

    fn send_batch(&mut self, frames: &[(FrameType, Vec<u8>)]) -> Result<(), WireError> {
        let mut out = Vec::with_capacity(frames.iter().map(|(_, p)| HEADER_LEN + p.len()).sum());
        for (frame_type, payload) in frames {
            check_size(payload)?;
            wire::append_frame(PROTO_VERSION, *frame_type as u16, payload, &mut out);
        }
        self.stream.write_all(&out).map_err(lost)
    }

    fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        let reader = match &mut self.reader {
            Some(reader) => reader,
            None => self.reader.insert(BufReader::new(self.stream.try_clone().map_err(lost)?)),
        };
        loop {
            match read_frame(reader, PROTO_VERSION)? {
                None => return Ok(None),
                Some((raw_type, payload)) => match FrameType::from_u16(raw_type) {
                    Some(FrameType::Bye) => return Ok(None),
                    Some(frame_type) => return Ok(Some(Frame { frame_type, payload })),
                    None => {
                        self.skipped.fetch_add(1, Ordering::Relaxed);
                    }
                },
            }
        }
    }

    fn skipped_frames(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn try_clone_box(&self) -> Result<Box<dyn Transport>, WireError> {
        Ok(Box::new(TcpTransport {
            stream: self.stream.try_clone().map_err(lost)?,
            reader: None,
            peer: self.peer.clone(),
            skipped: Arc::clone(&self.skipped),
        }))
    }
}

/// Accepting side of the transport: binds, accepts, handshakes.
pub struct TransportListener {
    listener: TcpListener,
    addr: SocketAddr,
}

/// Decision taken by the accept callback for one incoming [`Hello`].
pub type AcceptDecision = Result<HelloAck, String>;

impl TransportListener {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<TransportListener, WireError> {
        let listener = TcpListener::bind(addr).map_err(lost)?;
        let addr = listener.local_addr().map_err(lost)?;
        Ok(TransportListener { listener, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts one connection and runs the server half of the handshake.
    ///
    /// A peer whose HELLO header claims a version other than
    /// [`PROTO_VERSION`] is answered with a `HelloReject` frame (stamped
    /// with *our* version, raw UTF-8 reason) and surfaces here as
    /// [`WireError::VersionMismatch`]. Otherwise `accept` decides: `Ok`
    /// sends the ack and yields the transport, `Err(reason)` rejects.
    pub fn accept_handshake(
        &self,
        accept: impl FnOnce(&Hello) -> AcceptDecision,
    ) -> Result<(TcpTransport, Hello), WireError> {
        let (mut stream, peer_addr) = self.listener.accept().map_err(lost)?;
        stream.set_nodelay(true).ok();
        let mut hdr = [0u8; HEADER_LEN];
        stream.read_exact(&mut hdr).map_err(lost)?;
        let header = wire::parse_header(&hdr)?;
        let mut payload = vec![0u8; header.len as usize];
        stream.read_exact(&mut payload).map_err(lost)?;
        if header.version != PROTO_VERSION {
            let reason = format!(
                "protocol version mismatch: this node speaks v{PROTO_VERSION}, you sent v{}",
                header.version
            );
            let _ = write_frame(
                &mut stream,
                PROTO_VERSION,
                FrameType::HelloReject as u16,
                reason.as_bytes(),
            );
            return Err(WireError::VersionMismatch { ours: PROTO_VERSION, theirs: header.version });
        }
        if FrameType::from_u16(header.frame_type) != Some(FrameType::Hello) {
            return Err(WireError::Malformed(format!(
                "expected Hello frame, got type {}",
                header.frame_type
            )));
        }
        let hello = wire::decode_payload::<Hello>(header.version, &payload)?;
        match accept(&hello) {
            Ok(ack) => {
                let bytes = wire::encode_payload(PROTO_VERSION, &ack)?;
                write_frame(&mut stream, PROTO_VERSION, FrameType::HelloAck as u16, &bytes)?;
                Ok((
                    TcpTransport {
                        stream,
                        reader: None,
                        peer: format!("{} ({})", hello.node, peer_addr),
                        skipped: Arc::new(AtomicU64::new(0)),
                    },
                    hello,
                ))
            }
            Err(reason) => {
                let _ = write_frame(
                    &mut stream,
                    PROTO_VERSION,
                    FrameType::HelloReject as u16,
                    reason.as_bytes(),
                );
                Err(WireError::Rejected { peer_version: header.version, reason })
            }
        }
    }
}

// ---------------------------------------------------------------------
// In-process channel transport
// ---------------------------------------------------------------------

/// [`Transport`] over in-process channels. Frames still round-trip the
/// full header encode/parse path, so the in-proc and TCP dialects cannot
/// drift: a framing bug fails the cheap unit test before it fails a
/// three-process deployment.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: Arc<Mutex<mpsc::Receiver<Vec<u8>>>>,
    name: String,
    skipped: Arc<AtomicU64>,
}

impl ChannelTransport {
    /// A connected pair of endpoints (no handshake: both halves are this
    /// build by construction).
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, arx) = mpsc::channel();
        let (btx, brx) = mpsc::channel();
        (
            ChannelTransport {
                tx: atx,
                rx: Arc::new(Mutex::new(brx)),
                name: "chan:a".into(),
                skipped: Arc::new(AtomicU64::new(0)),
            },
            ChannelTransport {
                tx: btx,
                rx: Arc::new(Mutex::new(arx)),
                name: "chan:b".into(),
                skipped: Arc::new(AtomicU64::new(0)),
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame_type: FrameType, payload: &[u8]) -> Result<(), WireError> {
        if payload.len() as u64 > MAX_FRAME as u64 {
            return Err(WireError::FrameTooLarge(payload.len() as u32));
        }
        let frame = wire::encode_frame(PROTO_VERSION, frame_type as u16, payload);
        self.tx
            .send(frame)
            .map_err(|_| WireError::ConnectionLost("channel peer dropped".into()))
    }

    fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            let bytes = match self.rx.lock().unwrap().recv() {
                Ok(b) => b,
                Err(_) => return Ok(None), // sender dropped = orderly close
            };
            // Same header path as TCP: parse, version-check, type-dispatch.
            let mut cursor = &bytes[..];
            match read_frame(&mut cursor, PROTO_VERSION)? {
                None => return Ok(None),
                Some((raw_type, payload)) => match FrameType::from_u16(raw_type) {
                    Some(FrameType::Bye) => return Ok(None),
                    Some(frame_type) => return Ok(Some(Frame { frame_type, payload })),
                    None => {
                        self.skipped.fetch_add(1, Ordering::Relaxed);
                    }
                },
            }
        }
    }

    fn skipped_frames(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    fn peer(&self) -> String {
        self.name.clone()
    }

    fn try_clone_box(&self) -> Result<Box<dyn Transport>, WireError> {
        Ok(Box::new(ChannelTransport {
            tx: self.tx.clone(),
            rx: Arc::clone(&self.rx),
            name: self.name.clone(),
            skipped: Arc::clone(&self.skipped),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_proto::wire::RoutedMsg;
    use fuxi_proto::Msg;
    use fuxi_sim::ActorId;

    fn hello(name: &str, index: u32) -> Hello {
        Hello {
            node: name.into(),
            node_index: index,
            actor_base: index << 24,
            session_epoch: 1,
        }
    }

    fn ack() -> HelloAck {
        HelloAck { node: "hub".into(), names: vec![], store: vec![] }
    }

    fn exchange(mut a: Box<dyn Transport>, mut b: Box<dyn Transport>) {
        let msg = RoutedMsg {
            from: ActorId(3),
            to: ActorId(1 << 24 | 7),
            msg: Msg::StopJob { job: fuxi_proto::JobId(9) },
        };
        let bytes = wire::encode_payload(PROTO_VERSION, &msg).unwrap();
        a.send(FrameType::Msg, &bytes).unwrap();
        let frame = b.recv().unwrap().unwrap();
        assert_eq!(frame.frame_type, FrameType::Msg);
        let back: RoutedMsg = wire::decode_payload(PROTO_VERSION, &frame.payload).unwrap();
        assert_eq!(back.to, ActorId(1 << 24 | 7));
        assert!(matches!(back.msg, Msg::StopJob { .. }));
    }

    #[test]
    fn tcp_handshake_and_typed_exchange() {
        let listener = TransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let (t, h) = listener.accept_handshake(|_h| Ok(ack())).unwrap();
            assert_eq!(h.node, "agents");
            assert_eq!(h.actor_base, 2 << 24);
            t
        });
        let (client, got_ack) = TcpTransport::connect(addr, &hello("agents", 2)).unwrap();
        assert_eq!(got_ack.node, "hub");
        let server_t = server.join().unwrap();
        exchange(Box::new(client), Box::new(server_t));
    }

    #[test]
    fn channel_pair_speaks_the_same_dialect() {
        let (a, b) = ChannelTransport::pair();
        exchange(Box::new(a), Box::new(b));
    }

    #[test]
    fn version_mismatch_is_typed_rejection_on_both_sides() {
        let listener = TransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || listener.accept_handshake(|_h| Ok(ack())));
        let err = TcpTransport::connect_with_version(addr, &hello("old-peer", 1), PROTO_VERSION + 1)
            .unwrap_err();
        match err {
            WireError::Rejected { peer_version, reason } => {
                assert_eq!(peer_version, PROTO_VERSION);
                assert!(reason.contains("version mismatch"), "{reason}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        match server.join().unwrap().unwrap_err() {
            WireError::VersionMismatch { ours, theirs } => {
                assert_eq!(ours, PROTO_VERSION);
                assert_eq!(theirs, PROTO_VERSION + 1);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn accept_callback_can_refuse() {
        let listener = TransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server =
            std::thread::spawn(move || listener.accept_handshake(|_h| Err("no capacity".into())));
        let err = TcpTransport::connect(addr, &hello("x", 1)).unwrap_err();
        assert_eq!(
            err,
            WireError::Rejected { peer_version: PROTO_VERSION, reason: "no capacity".into() }
        );
        assert!(matches!(server.join().unwrap(), Err(WireError::Rejected { .. })));
    }

    #[test]
    fn truncated_stream_mid_frame_is_connection_lost() {
        // A header promising 100 bytes followed by only 10: the reader must
        // surface ConnectionLost, not block or return a partial frame.
        let mut bytes = wire::encode_frame(PROTO_VERSION, FrameType::Msg as u16, &[0u8; 100]);
        bytes.truncate(HEADER_LEN + 10);
        let mut r = &bytes[..];
        match read_frame(&mut r, PROTO_VERSION) {
            Err(WireError::ConnectionLost(why)) => assert!(why.contains("mid-frame"), "{why}"),
            other => panic!("expected ConnectionLost, got {other:?}"),
        }
        // EOF mid-header is also a loss, not a clean close…
        let mut r = &bytes[..HEADER_LEN - 5];
        assert!(matches!(
            read_frame(&mut r, PROTO_VERSION),
            Err(WireError::ConnectionLost(_))
        ));
        // …while EOF at an exact frame boundary is.
        let whole = wire::encode_frame(PROTO_VERSION, FrameType::Msg as u16, b"ok");
        let mut r = &whole[..];
        assert!(read_frame(&mut r, PROTO_VERSION).unwrap().is_some());
        assert!(read_frame(&mut r, PROTO_VERSION).unwrap().is_none());
    }

    #[test]
    fn tcp_peer_death_mid_frame_surfaces_connection_lost() {
        let listener = TransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let (mut t, _) = listener.accept_handshake(|_| Ok(ack())).unwrap();
            t.recv()
        });
        let (client, _) = TcpTransport::connect(addr, &hello("dying", 1)).unwrap();
        // Write half a frame, then kill the socket.
        let mut s = client.stream().try_clone().unwrap();
        let partial = wire::encode_frame(PROTO_VERSION, FrameType::Msg as u16, &[7u8; 64]);
        s.write_all(&partial[..HEADER_LEN + 8]).unwrap();
        drop(s);
        drop(client);
        match server.join().unwrap() {
            Err(WireError::ConnectionLost(_)) => {}
            other => panic!("expected ConnectionLost, got {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_types_are_skipped_not_fatal() {
        let (mut a, mut b) = ChannelTransport::pair();
        // A future peer sends two frame kinds we do not know, then a real one.
        let future = wire::encode_frame(PROTO_VERSION, 998, b"from-the-future");
        a.tx.send(future).unwrap();
        let future2 = wire::encode_frame(PROTO_VERSION, 999, b"");
        a.tx.send(future2).unwrap();
        a.send(FrameType::NameUpdate, b"").unwrap();
        let frame = b.recv().unwrap().unwrap();
        assert_eq!(frame.frame_type, FrameType::NameUpdate);
        assert_eq!(b.skipped_frames(), 2);
    }

    #[test]
    fn bye_frame_closes_cleanly() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(FrameType::Bye, &[]).unwrap();
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn oversized_frame_refused_at_send() {
        let (mut a, _b) = ChannelTransport::pair();
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert!(matches!(
            a.send(FrameType::Msg, &huge),
            Err(WireError::FrameTooLarge(_))
        ));
    }
}
