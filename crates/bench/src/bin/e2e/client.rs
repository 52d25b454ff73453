//! The benchmark's own wire client: `mda_serve::{frame, wire}` over a
//! `std::net::TcpStream`, so that encode → frame → send → receive →
//! unframe → decode are six separately timed steps and a blocked read
//! returns the moment bytes arrive (`ServeClient` polls in 20 ms naps,
//! which would be measured as latency).

use crate::trace::Tracer;
use mda_serve::frame::{read_frame, write_frame, FrameStatus};
use mda_serve::{decode_response, encode_request, EventBatch, Request, Response};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a request may wait for its answer before it counts as
/// failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// One answered request.
#[derive(Debug)]
pub struct Answer {
    /// The decoded response.
    pub response: Response,
    /// The response payload as it crossed the wire (unframed).
    pub payload: Vec<u8>,
    /// Request frame + response frame bytes.
    pub wire_bytes: usize,
    /// Encode start to decode end, nanoseconds.
    pub rtt_ns: u64,
    /// Send complete to first response byte, nanoseconds (server and
    /// socket; no client work).
    pub wait_ns: u64,
}

/// A pushed event batch and when its frame was decoded.
#[derive(Debug)]
pub struct Push {
    /// When the frame had been decoded at the subscriber.
    pub at: Instant,
    /// The batch.
    pub batch: EventBatch,
}

/// A connection to a `TcpServer`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Pushed frames read while waiting for something else.
    pub pushes: Vec<Push>,
    /// Sessions the server reported evicted.
    pub evicted: u64,
}

impl Client {
    /// Connect (Nagle off: request frames are small and latency-bound).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Self { stream, inbuf: Vec::new(), pushes: Vec::new(), evicted: 0 })
    }

    /// Take one complete frame payload off the front of the buffer.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        let mut at = 0usize;
        let payload = match read_frame(&self.inbuf, &mut at) {
            FrameStatus::Ready(payload) => payload.to_vec(),
            FrameStatus::Incomplete => return Ok(None),
            FrameStatus::Corrupt => return Err("corrupt frame from server".to_owned()),
        };
        self.inbuf.drain(..at);
        Ok(Some(payload))
    }

    fn stash_push(&mut self, response: Response) {
        match response {
            Response::Events(batch) => self.pushes.push(Push { at: Instant::now(), batch }),
            Response::Evicted { .. } => self.evicted += 1,
            _ => {}
        }
    }

    /// Send one request and wait for its answer. Pushed frames that
    /// arrive first are stashed in [`Client::pushes`] (an `Events`
    /// frame answers only a `PollSession` of the same session).
    pub fn call(
        &mut self,
        request: &Request,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<Answer, String> {
        let whole = tracer.enter("serve.call", op);
        let t0 = Instant::now();
        let span = tracer.enter("serve.encode", op);
        let body = encode_request(request);
        tracer.exit(span);
        let span = tracer.enter("serve.frame", op);
        let mut frame = Vec::with_capacity(body.len() + 8);
        write_frame(&mut frame, &body);
        tracer.exit(span);
        let span = tracer.enter("socket.send", op);
        let sent = self.stream.write_all(&frame);
        tracer.exit(span);
        sent.map_err(|e| format!("send: {e}"))?;
        let sent_at = Instant::now();
        let mut first_byte_at = None;
        let mut response_frame = 0usize;
        let result = loop {
            let span = tracer.enter("serve.unframe", op);
            let frame = self.take_frame();
            tracer.exit(span);
            match frame {
                Err(e) => break Err(e),
                Ok(Some(payload)) => {
                    let span = tracer.enter("serve.decode", op);
                    let decoded = decode_response(&payload);
                    tracer.exit(span);
                    let response = match decoded {
                        Ok(response) => response,
                        Err(e) => break Err(format!("undecodable answer: {e}")),
                    };
                    let is_push = match (&response, request) {
                        (Response::Events(b), Request::PollSession { session }) => {
                            b.session != *session
                        }
                        (Response::Events(_) | Response::Evicted { .. }, _) => true,
                        _ => false,
                    };
                    if is_push {
                        self.stash_push(response);
                        continue;
                    }
                    response_frame = payload.len() + 8;
                    break Ok((response, payload));
                }
                Ok(None) => {
                    let span = tracer.enter("socket.wait", op);
                    let read = self.read_some();
                    tracer.exit(span);
                    match read {
                        Ok(()) => {
                            first_byte_at.get_or_insert_with(Instant::now);
                        }
                        Err(e) => break Err(e),
                    }
                }
            }
        };
        let rtt_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tracer.exit(whole);
        let (response, payload) = result?;
        let wait_ns = first_byte_at
            .map_or(0, |at| u64::try_from((at - sent_at).as_nanos()).unwrap_or(u64::MAX));
        Ok(Answer { response, payload, wire_bytes: frame.len() + response_frame, rtt_ns, wait_ns })
    }

    /// Block until some bytes arrive (appended to the buffer), at most
    /// [`ANSWER_TIMEOUT`].
    fn read_some(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err("timed out waiting for the answer".to_owned());
                }
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Read whatever pushed frames have arrived, without waiting.
    pub fn poll_pushes(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        self.stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        let outcome = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err("server closed the subscriber connection".to_owned()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(format!("receive: {e}")),
            }
        };
        self.stream.set_nonblocking(false).map_err(|e| format!("blocking: {e}"))?;
        outcome?;
        while let Some(payload) = self.take_frame()? {
            let response =
                decode_response(&payload).map_err(|e| format!("undecodable push: {e}"))?;
            self.stash_push(response);
        }
        Ok(())
    }
}
