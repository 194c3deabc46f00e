//! Checkpoint transports: how shard workers ship
//! [`FleetCheckpoint`](super::super::FleetCheckpoint) blobs back to the
//! coordinator.
//!
//! A transport is the *only* thing that crosses the process boundary — the
//! blobs themselves are the self-validating binary checkpoints of
//! [`super::super::checkpoint`], so a transport needs no understanding of
//! their contents.  Two implementations ship:
//!
//! * [`SpoolTransport`] — a spool **directory** on a filesystem both sides
//!   can reach.  Publication is atomic and durable (write to a temp name,
//!   `fsync`, `rename` into place, `fsync` the directory), so a reader
//!   either sees a complete blob or no blob at all; a worker killed
//!   mid-write leaves only an ignored temp file.  This is the default, and
//!   the only transport whose blobs survive a coordinator restart — which
//!   is what makes driver runs resumable.
//! * [`SocketHub`] / [`SocketPublisher`] — a loopback TCP hub the
//!   coordinator binds and workers connect to, for runs where no shared
//!   filesystem exists.  Blobs land in coordinator memory; a restarted
//!   coordinator starts empty.
//!
//! Both sides of each transport implement the same [`Transport`] trait, and
//! [`Transport::worker_flags`] closes the loop: a transport knows which CLI
//! flags a spawned worker needs to construct its own end (see the worker
//! protocol in [`super`]).
//!
//! # Example
//!
//! ```
//! use hidwa_core::fleet::driver::transport::{SpoolTransport, Transport};
//!
//! let dir = std::env::temp_dir().join(format!("hidwa-spool-doc-{}", std::process::id()));
//! let spool = SpoolTransport::create(&dir).unwrap();
//! assert!(spool.fetch(0).unwrap().is_none());
//! spool.publish(0, b"blob bytes").unwrap();
//! assert_eq!(spool.fetch(0).unwrap().as_deref(), Some(&b"blob bytes"[..]));
//! assert_eq!(spool.worker_flags(), vec!["--spool".to_string(), dir.display().to_string()]);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::sealed;
use crate::wire::{self, FrameError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest blob a [`SocketHub`] will accept (a fleet checkpoint is a few
/// kilobytes; anything near this cap is garbage, not a checkpoint).
pub const MAX_SOCKET_BLOB: u64 = 256 * 1024 * 1024;

/// Default bound on the total bytes a [`SocketHub`] keeps buffered across
/// all stored blobs before it starts NAK-ing publishes.
pub const DEFAULT_HUB_BUDGET: u64 = 1024 * 1024 * 1024;

/// Resource bounds a [`SocketHub`] enforces per connection and in aggregate.
#[derive(Debug, Clone, Copy)]
pub struct HubLimits {
    /// Largest single blob accepted; a frame claiming more is a framing
    /// violation and drops the connection ([`MAX_SOCKET_BLOB`] by default).
    pub max_blob: u64,
    /// Total bytes buffered across all stored blobs.  A well-formed publish
    /// that would exceed this is answered with [`wire::NAK`] and *not*
    /// stored — reject-and-ack-late: the worker backs off and retries once
    /// the coordinator has drained (fetched + discarded) earlier blobs.
    pub buffer_budget: u64,
}

impl Default for HubLimits {
    fn default() -> Self {
        Self {
            max_blob: MAX_SOCKET_BLOB,
            buffer_budget: DEFAULT_HUB_BUDGET,
        }
    }
}

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying filesystem or socket operation failed.
    Io(std::io::Error),
    /// The remote end violated the framing protocol (socket transport).
    Protocol(&'static str),
    /// The operation is not meaningful on this side of the transport (e.g.
    /// fetching through a worker-side [`SocketPublisher`]).
    Unsupported(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(error) => write!(f, "transport I/O error: {error}"),
            Self::Protocol(what) => write!(f, "transport protocol violation: {what}"),
            Self::Unsupported(what) => write!(f, "transport operation unsupported: {what}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(error: std::io::Error) -> Self {
        Self::Io(error)
    }
}

/// How checkpoint blobs move between shard workers and the coordinator.
///
/// The contract every implementation must honour:
///
/// * **Atomic publication** — a concurrent [`fetch`](Self::fetch) returns
///   either the complete blob or `None`, never a prefix.  A publisher killed
///   mid-[`publish`](Self::publish) must leave nothing a `fetch` can see.
/// * **Last write wins** — re-publishing a shard replaces its blob.
/// * **No interpretation** — blobs are opaque bytes; validation (checksum,
///   config fingerprint, range) is the coordinator's job, which is why a
///   corrupt blob is a *recoverable* driver event, not a transport error.
pub trait Transport: Send + Sync {
    /// Makes `blob` visible to the coordinator as shard `shard`'s result.
    ///
    /// # Errors
    /// [`TransportError`] when the blob could not be durably published; the
    /// shard then counts as missing and the driver re-runs it.
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError>;

    /// Returns shard `shard`'s published blob, or `None` if none is visible.
    ///
    /// # Errors
    /// [`TransportError`] on I/O failure (distinct from "no blob yet").
    fn fetch(&self, shard: usize) -> Result<Option<Vec<u8>>, TransportError>;

    /// Removes shard `shard`'s published blob (used by the coordinator to
    /// drop a corrupt or stale blob before re-running the shard).  Removing
    /// a blob that does not exist is not an error.
    ///
    /// # Errors
    /// [`TransportError`] on I/O failure.
    fn discard(&self, shard: usize) -> Result<(), TransportError>;

    /// The CLI flags a spawned worker process needs to construct its end of
    /// this transport (`--spool <dir>` or `--connect <addr>`; see the
    /// normative worker protocol in [`super`]).
    fn worker_flags(&self) -> Vec<String>;
}

/// Filesystem spool-directory transport.
///
/// Layout inside the directory (normative, also documented in
/// `ARCHITECTURE.md` and `DEPLOYMENT.md`):
///
/// * `shard-<index>.ckpt` — a complete, published checkpoint blob.
/// * `shard-<index>.ckpt.tmp-<pid>` — an in-flight write.  Readers must
///   ignore every name that is not exactly `shard-<index>.ckpt`; the writer
///   publishes through [`sealed::atomic_publish`] (write and `fsync` the
///   temp file, `rename` it into place, `fsync` the directory).
///
/// The coordinator conventionally places the directory at
/// `<spool_root>/<run_fingerprint>/` (see
/// [`FleetDriver::spool_in`](super::FleetDriver::spool_in)) so blobs from a
/// differently-configured run can never collide with the current one.
#[derive(Debug, Clone)]
pub struct SpoolTransport {
    dir: PathBuf,
}

impl SpoolTransport {
    /// Opens (creating if needed) the spool directory `dir`.
    ///
    /// # Errors
    /// [`std::io::Error`] when the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The spool directory blobs are published into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of shard `shard`'s published blob (`shard-<index>.ckpt`).
    #[must_use]
    pub fn blob_path(&self, shard: usize) -> PathBuf {
        self.dir.join(blob_name(shard))
    }

    /// Fault-injection helper: writes the temp file a killed-mid-write
    /// worker would leave behind, **without** renaming it into place.  A
    /// [`fetch`](Transport::fetch) must not see it — which the fault
    /// tests assert.  Returns the temp path so tests can clean it up.
    ///
    /// # Errors
    /// [`std::io::Error`] when the temp file cannot be written.
    pub fn write_partial(&self, shard: usize, blob: &[u8]) -> std::io::Result<PathBuf> {
        let temp = sealed::temp_path(&self.dir, &blob_name(shard));
        std::fs::write(&temp, blob)?;
        Ok(temp)
    }
}

fn blob_name(shard: usize) -> String {
    format!("shard-{shard}.ckpt")
}

impl Transport for SpoolTransport {
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError> {
        sealed::atomic_publish(&self.dir, &blob_name(shard), blob)?;
        Ok(())
    }

    fn fetch(&self, shard: usize) -> Result<Option<Vec<u8>>, TransportError> {
        match std::fs::read(self.blob_path(shard)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(error) => Err(error.into()),
        }
    }

    fn discard(&self, shard: usize) -> Result<(), TransportError> {
        match std::fs::remove_file(self.blob_path(shard)) {
            Ok(()) => Ok(()),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(error) => Err(error.into()),
        }
    }

    fn worker_flags(&self) -> Vec<String> {
        vec!["--spool".to_string(), self.dir.display().to_string()]
    }
}

/// Coordinator side of the loopback-socket transport: binds an ephemeral
/// `127.0.0.1` TCP port, accepts worker connections on a background thread
/// and collects their framed blobs in memory.
///
/// Frames use the shared [`wire`] framing (big-endian
/// `shard u64 · blob length u64 · blob bytes`); the hub replies with a
/// single [`wire::ACK`] byte once the blob is stored, and the worker treats
/// the publish as durable only after reading it.  Connections that violate
/// the framing (or exceed [`MAX_SOCKET_BLOB`]) are dropped without storing
/// anything — the shard simply stays missing and is re-run.
///
/// # Example
///
/// ```
/// use hidwa_core::fleet::driver::transport::{SocketHub, SocketPublisher, Transport};
///
/// let hub = SocketHub::bind().unwrap();
/// let publisher = SocketPublisher::new(hub.addr().to_string());
/// publisher.publish(3, b"shard three").unwrap();
/// assert_eq!(hub.fetch(3).unwrap().as_deref(), Some(&b"shard three"[..]));
/// ```
#[derive(Debug)]
pub struct SocketHub {
    addr: SocketAddr,
    blobs: Arc<Mutex<HashMap<usize, Vec<u8>>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl SocketHub {
    /// Binds a hub on an ephemeral loopback port with default limits and
    /// starts accepting.
    ///
    /// # Errors
    /// [`std::io::Error`] when the loopback listener cannot be bound.
    pub fn bind() -> std::io::Result<Self> {
        Self::bind_with(("127.0.0.1", 0), HubLimits::default())
    }

    /// Binds a hub on an explicit address with default limits — the restart
    /// path: a coordinator that crashed can rebind the port its workers are
    /// still retrying against.
    ///
    /// # Errors
    /// [`std::io::Error`] when the listener cannot be bound.
    pub fn bind_addr(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(addr, HubLimits::default())
    }

    /// Binds a hub with explicit [`HubLimits`].
    ///
    /// # Errors
    /// [`std::io::Error`] when the listener cannot be bound.
    pub fn bind_with(
        addr: impl std::net::ToSocketAddrs,
        limits: HubLimits,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let blobs: Arc<Mutex<HashMap<usize, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let blobs = Arc::clone(&blobs);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Ingest is serial: one worker publishes a few KiB and
                    // disconnects, so fairness is a non-issue and a stalled
                    // client is bounded by the read timeout.
                    let _ = Self::ingest(stream, &blobs, limits);
                }
            })
        };
        Ok(Self {
            addr,
            blobs,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The address workers should `--connect` to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total bytes currently buffered across stored blobs.
    #[must_use]
    pub fn buffered_bytes(&self) -> u64 {
        Self::buffered(&self.blobs.lock().expect("hub blob map poisoned"))
    }

    fn buffered(map: &HashMap<usize, Vec<u8>>) -> u64 {
        map.values().map(|blob| blob.len() as u64).sum()
    }

    /// Stores `blob` under `shard` iff the budget allows it (a re-publish
    /// frees the bytes it replaces first).
    fn store(
        blobs: &Mutex<HashMap<usize, Vec<u8>>>,
        shard: usize,
        blob: Vec<u8>,
        budget: u64,
    ) -> bool {
        let mut map = blobs.lock().expect("hub blob map poisoned");
        let replaced = map.get(&shard).map_or(0, |old| old.len() as u64);
        if Self::buffered(&map) - replaced + blob.len() as u64 > budget {
            return false;
        }
        map.insert(shard, blob);
        true
    }

    fn ingest(
        mut stream: TcpStream,
        blobs: &Mutex<HashMap<usize, Vec<u8>>>,
        limits: HubLimits,
    ) -> Result<(), FrameError> {
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let (shard, blob) = wire::read_frame(&mut stream, limits.max_blob)?;
        let shard = usize::try_from(shard).unwrap_or(usize::MAX);
        let reply = if Self::store(blobs, shard, blob, limits.buffer_budget) {
            wire::ACK
        } else {
            // Well-formed but over budget: reject so the worker retries
            // once the coordinator has drained earlier blobs.
            wire::NAK
        };
        stream.write_all(&[reply])?;
        stream.flush()?;
        Ok(())
    }
}

impl Drop for SocketHub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection, then join it.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Transport for SocketHub {
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError> {
        // Coordinator-local publish (e.g. an in-process executor running
        // over the hub) skips the socket and stores directly.
        self.blobs
            .lock()
            .expect("hub blob map poisoned")
            .insert(shard, blob.to_vec());
        Ok(())
    }

    fn fetch(&self, shard: usize) -> Result<Option<Vec<u8>>, TransportError> {
        Ok(self
            .blobs
            .lock()
            .expect("hub blob map poisoned")
            .get(&shard)
            .cloned())
    }

    fn discard(&self, shard: usize) -> Result<(), TransportError> {
        self.blobs
            .lock()
            .expect("hub blob map poisoned")
            .remove(&shard);
        Ok(())
    }

    fn worker_flags(&self) -> Vec<String> {
        vec!["--connect".to_string(), self.addr.to_string()]
    }
}

/// Worker side of the loopback-socket transport: connects to a
/// [`SocketHub`] per publish and streams one framed blob.
///
/// Publishes are retried under a small backoff budget: a refused or dropped
/// connection (the hub restarting), a connection that died before the ack,
/// and a [`wire::NAK`] (the hub's buffer budget exhausted) all back off and
/// try again; only an outright protocol violation (an ack byte that is
/// neither ACK nor NAK) fails immediately.  The default budget — 5 attempts
/// starting at 25 ms and doubling, never past a 5 s ceiling — rides out a
/// coordinator restart without masking a hub that is actually gone.
#[derive(Debug, Clone)]
pub struct SocketPublisher {
    addr: String,
    attempts: u32,
    initial_backoff: Duration,
    max_backoff: Duration,
}

/// Whether a failed publish attempt is worth retrying.
enum PublishFailure {
    Retry(TransportError),
    Fatal(TransportError),
}

impl SocketPublisher {
    /// A publisher that will connect to `addr` (`host:port`) with the
    /// default retry budget.
    #[must_use]
    pub fn new(addr: String) -> Self {
        Self {
            addr,
            attempts: 5,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Self::DEFAULT_MAX_BACKOFF,
        }
    }

    /// Ceiling the exponential backoff saturates at.  Doubling unboundedly
    /// would overflow `Duration` within a few dozen attempts (a panic
    /// mid-retry); anything past a few seconds adds latency without adding
    /// information about a hub that is still down.
    pub const DEFAULT_MAX_BACKOFF: Duration = Duration::from_secs(5);

    /// Overrides the retry budget: up to `attempts` tries (clamped to ≥ 1),
    /// sleeping `initial_backoff` before the second and doubling after —
    /// saturating at the backoff ceiling, never overflowing.
    #[must_use]
    pub fn with_retry(mut self, attempts: u32, initial_backoff: Duration) -> Self {
        self.attempts = attempts.max(1);
        self.initial_backoff = initial_backoff;
        self
    }

    /// Overrides the backoff ceiling (clamped to at least 1 ms).
    #[must_use]
    pub fn with_backoff_cap(mut self, max_backoff: Duration) -> Self {
        self.max_backoff = max_backoff.max(Duration::from_millis(1));
        self
    }

    fn try_publish(&self, shard: usize, blob: &[u8]) -> Result<(), PublishFailure> {
        let connect = |error: std::io::Error| PublishFailure::Retry(error.into());
        let mut stream = TcpStream::connect(self.addr.as_str()).map_err(connect)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(connect)?;
        wire::write_frame(&mut stream, shard as u64, blob)
            .map_err(|error| PublishFailure::Retry(TransportError::Io(error)))?;
        let mut ack = [0u8; 1];
        stream.read_exact(&mut ack).map_err(|_| {
            PublishFailure::Retry(TransportError::Protocol(
                "hub closed before acknowledging the blob",
            ))
        })?;
        match ack[0] {
            wire::ACK => Ok(()),
            wire::NAK => Err(PublishFailure::Retry(TransportError::Protocol(
                "hub rejected the blob: buffer budget exhausted",
            ))),
            _ => Err(PublishFailure::Fatal(TransportError::Protocol(
                "hub sent an unexpected ack byte",
            ))),
        }
    }
}

impl Transport for SocketPublisher {
    fn publish(&self, shard: usize, blob: &[u8]) -> Result<(), TransportError> {
        let mut backoff = self.initial_backoff.min(self.max_backoff);
        let mut last = None;
        for attempt in 0..self.attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2).min(self.max_backoff);
            }
            match self.try_publish(shard, blob) {
                Ok(()) => return Ok(()),
                Err(PublishFailure::Retry(error)) => last = Some(error),
                Err(PublishFailure::Fatal(error)) => return Err(error),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    fn fetch(&self, _shard: usize) -> Result<Option<Vec<u8>>, TransportError> {
        Err(TransportError::Unsupported(
            "worker-side socket transport cannot fetch blobs",
        ))
    }

    fn discard(&self, _shard: usize) -> Result<(), TransportError> {
        Err(TransportError::Unsupported(
            "worker-side socket transport cannot discard blobs",
        ))
    }

    fn worker_flags(&self) -> Vec<String> {
        vec!["--connect".to_string(), self.addr.clone()]
    }
}
