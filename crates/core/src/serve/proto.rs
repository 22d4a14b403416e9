//! Wire protocol v2: keep-alive, multiplexed framing for the TCP tier.
//!
//! Protocol v1 (the original wire format of [`super::net`]) is one
//! EOF-delimited JSON-lines stream per connection: the client half-closes
//! its write side to say "done", so a connection can never be reused and
//! every request burst pays a fresh TCP handshake. Protocol v2 keeps the
//! connection alive and multiplexes any number of logical **streams**
//! over it with length-prefixed frames.
//!
//! # Frame layout
//!
//! Every frame is a 9-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//! 0       1     kind      (1 = REQ, 2 = RESP, 3 = ERR, 4 = BYE)
//! 1       4     stream id (u32, little-endian)
//! 5       4     payload length (u32, little-endian, ≤ 1 MiB)
//! 9       len   payload bytes
//! ```
//!
//! * `REQ` (client → server): one request line for stream `id` — the
//!   same JSON object a v1 line carries, without the trailing newline.
//! * `RESP` (server → client): one response **line** (JSON + `\n`) for
//!   stream `id`. Concatenating a stream's `RESP` payloads in arrival
//!   order reproduces, byte for byte, the v1 response stream for the
//!   same request lines — that is the v2 determinism contract.
//! * `ERR` (server → client): a fatal protocol error (truncated frame,
//!   oversized length, unknown kind, or a `REQ` opening a stream past
//!   [`MAX_STREAMS`]). Emitted **after** the responses to every frame
//!   that preceded the bad one, then the server closes the connection.
//!   Malformed *JSON* is not a protocol error — it gets an in-order
//!   parse-error `RESP` exactly like v1.
//! * `BYE` (client → server): clean end of session; the server flushes
//!   pending responses and closes.
//!
//! # Negotiation
//!
//! A v2 client opens the conversation with the 8-byte preamble
//! [`V2_PREAMBLE`] (`\0CTPv2\r\n`). The leading NUL byte can never
//! begin a v1 stream (v1 lines are JSON text), so the server reads
//! byte-at-a-time while the input matches the preamble: on a full match
//! it answers with [`V2_ACK`] and speaks frames; on the first mismatch
//! it replays the consumed bytes in front of the socket and serves the
//! connection as v1. v1 clients and the entire existing test surface
//! are untouched.
//!
//! # Ordering
//!
//! The server reads frames in bursts (everything already buffered, up
//! to the chunk size), evaluates a burst as one batch — so requests
//! complete internally in any order, on all cores — and then answers
//! **in frame-arrival order**, which preserves per-stream order. A
//! burst is answered before the next blocking read, so a
//! request/response client that sends one frame and waits never
//! deadlocks. A burst is one chunk of the same loop v1 runs
//! ([`super::EvalService::serve_pipelined`]): a blank payload is never
//! answered and is not counted in [`super::PipelineStats::lines`], but
//! it does count toward the line numbers that errors name, and latency
//! stamps carry queue, build and evaluation time alike.
//!
//! # Examples
//!
//! Multiplex two streams over one keep-alive connection and verify each
//! against the offline pipeline:
//!
//! ```
//! use countertrust::grid::WorkloadSpec;
//! use countertrust::methods::MethodOptions;
//! use countertrust::serve::net::{EvalServer, NetOptions};
//! use countertrust::serve::proto::exchange_v2;
//! use countertrust::serve::{EvalService, PipelineOptions};
//! use ct_isa::asm::assemble;
//! use ct_sim::{MachineModel, RunConfig};
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 20000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let run_config = RunConfig::default();
//! let workloads = [WorkloadSpec { name: "demo", program: &program, run_config: &run_config }];
//! let machines = [MachineModel::ivy_bridge()];
//! let service = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast());
//! let line = "{\"machine\":\"Ivy Bridge (Xeon E3-1265L)\",\"workload\":\"demo\",\"method\":\"classic\",\"runs\":1,\"seed\":7}\n";
//! let streams = [line.to_string(), line.to_string()];
//!
//! let server = EvalServer::listen("127.0.0.1:0", NetOptions::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let replies = std::thread::scope(|scope| {
//!     let serving = scope.spawn(|| server.serve(&service));
//!     let replies = exchange_v2(addr, &streams).unwrap();
//!     handle.shutdown();
//!     serving.join().unwrap().unwrap();
//!     replies
//! });
//!
//! let offline = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast());
//! let mut expected = Vec::new();
//! offline
//!     .serve_pipelined(line.as_bytes(), &mut expected, &PipelineOptions::default())
//!     .unwrap();
//! assert_eq!(replies[0].as_bytes(), expected.as_slice());
//! assert_eq!(replies[1].as_bytes(), expected.as_slice());
//! ```

use super::{Chunk, EvalService, PipelineOptions, PipelineStats};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Client hello: the 8 bytes a v2 client writes before anything else.
/// Starts with NUL, which no v1 JSON-lines stream can begin with.
pub const V2_PREAMBLE: [u8; 8] = *b"\0CTPv2\r\n";

/// Server acknowledgement: the 8 bytes a server answers the preamble
/// with before the first frame.
pub const V2_ACK: [u8; 8] = *b"\0CTPv2OK";

/// Hard cap on a single frame's payload. A request line is a small JSON
/// object and a response line is bounded by the measurement shape, so
/// anything near this is a corrupt or hostile length field.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;

/// Bytes in a frame header: kind (1) + stream id (4) + payload len (4).
pub const FRAME_HEADER_LEN: usize = 9;

/// Most distinct stream ids one connection may use. The server keeps a
/// line counter per stream for the life of the connection (a blank `REQ`
/// opens a stream too), so the first `REQ` on a new id past this limit
/// is a protocol error instead of unbounded server memory.
pub const MAX_STREAMS: usize = 1_024;

/// Frame discriminator — the first header byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: one request line for a stream.
    Req = 1,
    /// Server → client: one response line for a stream.
    Resp = 2,
    /// Server → client: fatal protocol error; connection closes after.
    Err = 3,
    /// Client → server: clean end of session.
    Bye = 4,
}

impl FrameKind {
    /// Decodes a header byte; `None` for unknown discriminators.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(Self::Req),
            2 => Some(Self::Resp),
            3 => Some(Self::Err),
            4 => Some(Self::Bye),
            _ => None,
        }
    }
}

/// One decoded v2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Logical stream the frame belongs to (0 for session-level `ERR`).
    pub stream: u32,
    /// Raw payload bytes (request line, response line, or error text).
    pub payload: Vec<u8>,
}

/// Why a frame could not be decoded or accepted.
#[derive(Debug)]
pub enum FrameError {
    /// Transport-level failure (connection reset, timeout, ...).
    Io(io::Error),
    /// The stream ended inside a header or payload.
    Truncated,
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// A `REQ` on this new stream id would exceed [`MAX_STREAMS`].
    TooManyStreams(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Truncated => write!(f, "truncated frame"),
            Self::Oversized(len) => {
                write!(
                    f,
                    "oversized frame payload ({len} > {MAX_FRAME_PAYLOAD} bytes)"
                )
            }
            Self::BadKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            Self::TooManyStreams(id) => write!(
                f,
                "stream {id} exceeds the limit of {MAX_STREAMS} streams per connection"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame into `writer` (header + payload, no flush).
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME_PAYLOAD`];
/// otherwise any transport write error.
pub fn write_frame<W: Write>(
    writer: &mut W,
    kind: FrameKind,
    stream: u32,
    payload: &[u8],
) -> io::Result<()> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload too large: {} bytes", payload.len()),
        ));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = kind as u8;
    header[1..5].copy_from_slice(&stream.to_le_bytes());
    #[allow(clippy::cast_possible_truncation)]
    let len = payload.len() as u32;
    header[5..9].copy_from_slice(&len.to_le_bytes());
    writer.write_all(&header)?;
    writer.write_all(payload)
}

/// Decodes the next frame from `reader`. `Ok(None)` is a clean EOF at a
/// frame boundary; EOF anywhere else is [`FrameError::Truncated`].
///
/// # Errors
///
/// [`FrameError`] for transport failures and malformed frames.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let kind = FrameKind::from_byte(header[0]).ok_or(FrameError::BadKind(header[0]))?;
    let stream = u32::from_le_bytes(header[1..5].try_into().expect("4 header bytes"));
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 header bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    match reader.read_exact(&mut payload) {
        Ok(()) => Ok(Some(Frame {
            kind,
            stream,
            payload,
        })),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// What [`negotiate_server`] decided a fresh connection speaks.
pub(crate) enum Negotiated {
    /// No (complete) preamble: serve as v1, replaying `consumed` in
    /// front of whatever is still in the socket.
    V1 { consumed: Vec<u8> },
    /// Full preamble seen: speak frames (the ack is not yet sent).
    V2,
}

/// Sniffs the first bytes of an accepted connection: reads while they
/// match [`V2_PREAMBLE`], stopping at the first divergence or at EOF.
pub(crate) fn negotiate_server(stream: &TcpStream) -> io::Result<Negotiated> {
    let mut consumed = Vec::with_capacity(V2_PREAMBLE.len());
    let mut reader = stream;
    while consumed.len() < V2_PREAMBLE.len() {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Ok(Negotiated::V1 { consumed }),
            Ok(_) => {
                consumed.push(byte[0]);
                if byte[0] != V2_PREAMBLE[consumed.len() - 1] {
                    return Ok(Negotiated::V1 { consumed });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Negotiated::V2)
}

/// Serves an accepted connection that completed v2 negotiation: acks
/// the preamble, then answers framed request bursts until `BYE`, EOF or
/// a protocol error. Each burst is one chunk of the loop behind
/// [`EvalService::serve_pipelined`]: the same line parser, the same
/// chunk answerer and the same [`PipelineStats`], so
/// [`super::net::NetStats`] aggregates both protocols uniformly.
pub(crate) fn serve_v2(
    service: &EvalService,
    stream: &TcpStream,
    options: &PipelineOptions,
) -> io::Result<PipelineStats> {
    let mut ack_writer = stream;
    ack_writer.write_all(&V2_ACK)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    let mut stats = PipelineStats::default();
    // Reused across bursts: one JSON serialization buffer and one frame
    // accumulation buffer, so the steady-state emit path allocates
    // nothing and a burst of small RESP frames leaves in a single
    // socket write instead of two per frame.
    let mut json = String::new();
    let mut burst_out: Vec<u8> = Vec::new();
    // Per-stream line numbers, so a malformed payload is reported as
    // "parse error on line N" with N counting that stream's lines —
    // byte-identical to the same lines arriving over their own v1
    // connection. At most MAX_STREAMS entries.
    let mut line_numbers: HashMap<u32, u64> = HashMap::new();
    let mut session_done = false;
    let mut protocol_error: Option<FrameError> = None;

    while !session_done && protocol_error.is_none() {
        // Collect one burst: block for the first frame, then greedily
        // drain whatever the client already sent (bounded by the chunk
        // size) so independent requests evaluate as one parallel batch.
        let mut chunk = Chunk::default();
        loop {
            match read_frame(&mut reader) {
                Ok(None) => {
                    session_done = true;
                    break;
                }
                Ok(Some(frame)) => match frame.kind {
                    FrameKind::Req => {
                        if line_numbers.len() >= MAX_STREAMS
                            && !line_numbers.contains_key(&frame.stream)
                        {
                            protocol_error = Some(FrameError::TooManyStreams(frame.stream));
                            break;
                        }
                        let line_no = line_numbers.entry(frame.stream).or_insert(0);
                        *line_no += 1;
                        chunk.push_line(frame.stream, *line_no, &frame.payload);
                        if chunk.lines.len() >= options.chunk.max(1) || reader.buffer().is_empty() {
                            // Burst full, or nothing already buffered:
                            // answer what we have before blocking again
                            // (request/response clients wait on it).
                            break;
                        }
                    }
                    FrameKind::Bye => {
                        session_done = true;
                        break;
                    }
                    FrameKind::Resp | FrameKind::Err => {
                        protocol_error = Some(FrameError::BadKind(frame.kind as u8));
                        break;
                    }
                },
                Err(e) => {
                    protocol_error = Some(e);
                    break;
                }
            }
        }

        // Answer the burst in frame-arrival order; the whole burst —
        // same frame bytes in the same order — leaves in one write.
        burst_out.clear();
        service.answer_chunk(chunk, options, &mut json, &mut stats, |stream, response| {
            write_frame(&mut burst_out, FrameKind::Resp, stream, response)
        })?;
        writer.write_all(&burst_out)?;
        writer.flush()?;
    }

    if let Some(e) = protocol_error {
        // The responses to everything before the bad frame are already
        // out (in order); now name the failure and hang up.
        stats.parse_errors += 1;
        service.errors.fetch_add(1, Ordering::Relaxed);
        let message = format!("protocol error: {e}");
        write_frame(&mut writer, FrameKind::Err, 0, message.as_bytes())?;
        writer.flush()?;
    }
    Ok(stats)
}

/// A keep-alive protocol v2 client connection.
///
/// Connect once, then interleave [`V2Client::send_line`] /
/// [`V2Client::recv`] freely: requests on any number of logical streams
/// share the socket, and each stream's responses arrive in its own
/// order. Drop the client (or call [`V2Client::bye`]) to end the
/// session.
pub struct V2Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl V2Client {
    /// Connects, sends the [`V2_PREAMBLE`] and verifies the server's
    /// [`V2_ACK`].
    ///
    /// # Errors
    ///
    /// Any connect/handshake I/O error; `InvalidData` when the peer is
    /// not a v2 server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        handshake(&stream)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Applies one read/write timeout to the underlying socket (`None`
    /// blocks forever — the default).
    ///
    /// # Errors
    ///
    /// The socket configuration error, if any.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// Queues one request line on logical stream `stream` (any trailing
    /// newline is left off the wire; the server treats the payload as
    /// one line either way). Call [`V2Client::flush`] to push queued
    /// frames out.
    ///
    /// # Errors
    ///
    /// Any transport write error.
    pub fn send_line(&mut self, stream: u32, line: &str) -> io::Result<()> {
        let line = line.strip_suffix('\n').unwrap_or(line);
        write_frame(&mut self.writer, FrameKind::Req, stream, line.as_bytes())
    }

    /// Flushes queued request frames to the socket.
    ///
    /// # Errors
    ///
    /// Any transport write error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Receives the next response: `Some((stream, response_line))`, or
    /// `None` once the server closed the session.
    ///
    /// # Errors
    ///
    /// Transport errors, malformed frames, and server `ERR` frames (as
    /// `InvalidData` carrying the server's message).
    pub fn recv(&mut self) -> io::Result<Option<(u32, String)>> {
        read_response(&mut self.reader)
    }

    /// Ends the session cleanly: sends `BYE` and flushes. The server
    /// flushes any pending responses and closes.
    ///
    /// # Errors
    ///
    /// Any transport write error.
    pub fn bye(mut self) -> io::Result<()> {
        write_frame(&mut self.writer, FrameKind::Bye, 0, &[])?;
        self.writer.flush()
    }
}

/// Writes the [`V2_PREAMBLE`] on a connected socket and checks that the
/// server answers with [`V2_ACK`]; `InvalidData` when it does not.
fn handshake(stream: &TcpStream) -> io::Result<()> {
    let mut half = stream;
    half.write_all(&V2_PREAMBLE)?;
    let mut ack = [0u8; 8];
    half.read_exact(&mut ack)?;
    if ack != V2_ACK {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "server did not acknowledge protocol v2",
        ));
    }
    Ok(())
}

/// Reads the next server frame as a response: `Some((stream,
/// response_line))`, or `None` once the server closed the session. A
/// server `ERR` frame becomes `InvalidData` carrying its message, as do
/// malformed and client-direction frames.
fn read_response<R: Read>(reader: &mut R) -> io::Result<Option<(u32, String)>> {
    match read_frame(reader) {
        Ok(None) => Ok(None),
        Ok(Some(frame)) => match frame.kind {
            FrameKind::Resp => {
                let text = String::from_utf8(frame.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                Ok(Some((frame.stream, text)))
            }
            // The server's text already names the protocol error.
            FrameKind::Err => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                String::from_utf8_lossy(&frame.payload).into_owned(),
            )),
            FrameKind::Req | FrameKind::Bye => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected client-direction frame from server",
            )),
        },
        Err(FrameError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Client-side convenience mirroring [`super::net::exchange`] for v2:
/// multiplexes `streams` (each one v1-format JSON-lines text) over a
/// single keep-alive connection, interleaving their lines round-robin,
/// and returns each stream's concatenated response text — byte-identical
/// to sending that stream over its own v1 connection.
///
/// Requests are written from a helper thread while responses drain on
/// the calling thread, so arbitrarily large streams cannot deadlock on
/// full TCP buffers. Socket timeouts default to
/// [`super::net::DEFAULT_EXCHANGE_TIMEOUT`]; see [`exchange_v2_with`].
///
/// # Errors
///
/// Any connect/handshake/frame error, or the server's `ERR` frame.
pub fn exchange_v2(addr: impl ToSocketAddrs, streams: &[String]) -> io::Result<Vec<String>> {
    exchange_v2_with(addr, streams, Some(super::net::DEFAULT_EXCHANGE_TIMEOUT))
}

/// Request-writer coalescing threshold: at every round-robin round
/// boundary, [`send_streams`] ships the accumulated frames once they
/// exceed this many bytes. Small exchanges still leave as one write;
/// large ones leave in bounded installments, so a slowly-draining
/// server sees steady progress instead of one giant flush racing the
/// socket write timeout at `BYE`.
const SEND_COALESCE_BYTES: usize = 16 * 1024;

/// Writes every stream's lines round-robin as `REQ` frames followed by
/// one `BYE`, accumulating frames in a reusable buffer and shipping it
/// at round boundaries once it passes `coalesce` bytes (and always at
/// the end). The byte sequence on the wire is identical for every
/// `coalesce` value — only the write granularity changes.
fn send_streams<W: Write>(writer: &mut W, streams: &[String], coalesce: usize) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    let mut cursors: Vec<std::str::Lines<'_>> = streams.iter().map(|s| s.lines()).collect();
    // Round-robin across streams: one line from each stream per turn —
    // genuine interleaving on the wire.
    let mut remaining = cursors.len();
    while remaining > 0 {
        remaining = 0;
        for (id, cursor) in cursors.iter_mut().enumerate() {
            if let Some(line) = cursor.next() {
                #[allow(clippy::cast_possible_truncation)]
                write_frame(&mut buf, FrameKind::Req, id as u32, line.as_bytes())?;
                remaining += 1;
            }
        }
        if buf.len() >= coalesce {
            writer.write_all(&buf)?;
            writer.flush()?;
            buf.clear();
        }
    }
    write_frame(&mut buf, FrameKind::Bye, 0, &[])?;
    writer.write_all(&buf)?;
    writer.flush()
}

/// [`exchange_v2`] with an explicit socket timeout (`None` waits
/// forever).
///
/// # Errors
///
/// As [`exchange_v2`]; a timeout surfaces as the platform's
/// `WouldBlock`/`TimedOut` error.
pub fn exchange_v2_with(
    addr: impl ToSocketAddrs,
    streams: &[String],
    timeout: Option<Duration>,
) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    handshake(&stream)?;

    // Expected responses per stream: one per non-blank line (blank
    // lines consume a line number but are never answered — v1 rules).
    let expected: usize = streams
        .iter()
        .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count())
        .sum();

    let write_half = stream.try_clone()?;
    let mut buffers: Vec<String> = vec![String::new(); streams.len()];
    std::thread::scope(|scope| -> io::Result<()> {
        let sender = scope.spawn(move || -> io::Result<()> {
            let mut writer = write_half;
            send_streams(&mut writer, streams, SEND_COALESCE_BYTES)
        });

        let mut reader = BufReader::new(&stream);
        let mut received = 0usize;
        while received < expected {
            let Some((id, text)) = read_response(&mut reader)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server closed after {received}/{expected} responses"),
                ));
            };
            let buffer = buffers.get_mut(id as usize).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown stream {id}"),
                )
            })?;
            buffer.push_str(&text);
            received += 1;
        }
        sender.join().expect("sender thread never panics")
    })?;
    Ok(buffers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn frame_round_trip_all_kinds() {
        for kind in [
            FrameKind::Req,
            FrameKind::Resp,
            FrameKind::Err,
            FrameKind::Bye,
        ] {
            let payload = b"{\"x\":1}".to_vec();
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, 0xDEAD_BEEF, &payload).unwrap();
            assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
            let frame = read_frame(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.stream, 0xDEAD_BEEF);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn empty_payload_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Bye, 0, &[]).unwrap();
        let mut cursor = wire.as_slice();
        let frame = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Bye);
        assert!(frame.payload.is_empty());
        assert!(
            read_frame(&mut cursor).unwrap().is_none(),
            "EOF at boundary"
        );
    }

    #[test]
    fn truncated_header_and_payload_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Req, 3, b"hello").unwrap();
        for cut in 1..wire.len() {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_and_bad_kind_are_rejected_without_reading_payload() {
        let mut wire = [0u8; FRAME_HEADER_LEN];
        wire[0] = FrameKind::Req as u8;
        wire[5..9].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::Oversized(_)
        ));
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Req, 0, b"x").unwrap();
        wire[0] = 0x7F;
        assert!(matches!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::BadKind(0x7F)
        ));
    }

    #[test]
    fn writer_refuses_oversized_payloads() {
        let payload = vec![0u8; MAX_FRAME_PAYLOAD as usize + 1];
        let err = write_frame(&mut Vec::new(), FrameKind::Req, 0, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn preamble_never_collides_with_v1_json() {
        assert_eq!(V2_PREAMBLE[0], 0, "v1 streams are JSON text, never NUL-led");
        assert_eq!(V2_PREAMBLE.len(), 8);
        assert_eq!(V2_ACK.len(), 8);
        assert_ne!(V2_PREAMBLE, V2_ACK);
    }

    /// Records every `write`/`flush` the sender issues, so tests can pin
    /// the coalescing cadence.
    struct RecordingWriter {
        writes: Vec<usize>,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl RecordingWriter {
        fn new() -> Self {
            Self {
                writes: Vec::new(),
                flushes: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn sender_coalesces_at_round_boundaries() {
        // 3 streams × 40 lines of ~64 bytes: each round accumulates
        // ~220 bytes of frames, so a 1 KiB threshold ships roughly
        // every 5 rounds instead of once at BYE.
        let line = "x".repeat(64);
        let streams: Vec<String> = (0..3)
            .map(|_| format!("{}\n", vec![line.clone(); 40].join("\n")))
            .collect();
        let mut recorder = RecordingWriter::new();
        send_streams(&mut recorder, &streams, 1024).unwrap();
        assert!(
            recorder.writes.len() > 3,
            "a large exchange must leave in installments, got {} writes",
            recorder.writes.len()
        );
        assert_eq!(
            recorder.flushes,
            recorder.writes.len(),
            "one flush per installment"
        );
        // Nothing stranded: every installment except the last already
        // passed the threshold when it shipped.
        for &w in &recorder.writes[..recorder.writes.len() - 1] {
            assert!(w >= 1024, "installment of {w} bytes shipped early");
        }
        // And the wire bytes are identical to a single-shot send.
        let mut single = RecordingWriter::new();
        send_streams(&mut single, &streams, usize::MAX).unwrap();
        assert_eq!(
            single.writes.len(),
            1,
            "usize::MAX threshold means one write"
        );
        assert_eq!(
            recorder.bytes, single.bytes,
            "coalescing never changes the bytes"
        );
    }

    #[test]
    fn small_exchanges_still_leave_as_one_write() {
        let streams = vec!["{\"a\":1}\n".to_string(), "{\"b\":2}\n".to_string()];
        let mut recorder = RecordingWriter::new();
        send_streams(&mut recorder, &streams, SEND_COALESCE_BYTES).unwrap();
        assert_eq!(recorder.writes.len(), 1, "requests + BYE in one write");
        assert_eq!(recorder.flushes, 1);
    }

    #[test]
    fn never_reading_server_times_out_instead_of_hanging() {
        // A server that accepts and never reads: once the socket
        // buffers fill, the sender's bounded installments hit the write
        // timeout instead of blocking forever on one giant flush.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            let (socket, _) = listener.accept().unwrap();
            // Keep the connection open, unread, until the client is done.
            let _ = done_rx.recv();
            drop(socket);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // ~8 MiB of frames: far beyond any default socket buffer.
        let big = format!("{}\n", vec!["y".repeat(1024); 8192].join("\n"));
        let streams = vec![big];
        let started = Instant::now();
        let err = send_streams(&mut stream, &streams, SEND_COALESCE_BYTES).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a write timeout, got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "sender must fail fast, took {:?}",
            started.elapsed()
        );
        drop(stream);
        done_tx.send(()).unwrap();
        hold.join().unwrap();
    }
}
