//! Real-socket serving: a `std::net` TCP listener front over a
//! [`ServeCore`], one thread per connection plus one pump thread.
//!
//! Thread-per-connection is the right shape here because connections
//! are *not* the unit of scale — **sessions** are. One connection can
//! own thousands of subscription sessions (they are plain data pumped
//! centrally, see [`crate::session`]); the thread exists only to move
//! bytes for its socket.

use crate::conn::serve_connection;
use crate::server::ServeCore;
use crate::transport::{TcpTransport, READ_POLL};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A running TCP server: address, shutdown flag, thread handles.
#[derive(Debug)]
pub struct TcpServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    core: Arc<ServeCore>,
    accept_thread: Option<JoinHandle<()>>,
    pump_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// The address the listener actually bound (pass port 0 to get an
    /// ephemeral one).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The serving core (for stats and in-process queries).
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Raise the shutdown flag and join every thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.pump_thread.take() {
            let _ = t.join();
        }
        let threads = {
            let mut guard = self.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and serve `core` over TCP until
/// [`TcpServer::shutdown`].
///
/// Spawns the accept loop and a pump thread that fans events out to
/// subscription sessions every poll interval. Connection threads are
/// spawned per accepted socket and joined at shutdown; a connection
/// that dies mid-frame takes down nothing but itself.
pub fn serve_tcp(core: Arc<ServeCore>, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_thread = {
        let core = Arc::clone(&core);
        let shutdown = Arc::clone(&shutdown);
        let conn_threads = Arc::clone(&conn_threads);
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let core = Arc::clone(&core);
                        let shutdown = Arc::clone(&shutdown);
                        let handle = std::thread::spawn(move || {
                            if let Ok(mut transport) = TcpTransport::new(stream) {
                                serve_connection(&core, &mut transport, &shutdown);
                            }
                        });
                        conn_threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(READ_POLL);
                    }
                    Err(_) => break,
                }
            }
        })
    };

    let pump_thread = {
        let core = Arc::clone(&core);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                core.pump();
                std::thread::sleep(READ_POLL);
            }
        })
    };

    Ok(TcpServer {
        addr: local,
        shutdown,
        core,
        accept_thread: Some(accept_thread),
        pump_thread: Some(pump_thread),
        conn_threads,
    })
}
