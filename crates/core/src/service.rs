//! `SpService` — the front door: epoch-bound client sessions over one
//! or **several** served provider packages.
//!
//! The raw role APIs ([`ServiceProvider`], [`Client`]) re-verify the
//! owner's signature on every answer; they also accept any
//! correctly-signed root, so a client can silently
//! keep verifying against a *stale* epoch after the owner published an
//! update. This facade fixes both, and adds the concurrent serving
//! layer:
//!
//! * [`SpService::open_session`] authenticates the published epoch
//!   **once** — signed network root, method params, and the method's
//!   auxiliary signed roots (FULL's distance tree, HYP's hyper-edge
//!   and cell-directory trees) — and returns a [`Session`] bound to
//!   it. Every subsequent answer is checked against those exact pinned
//!   roots (byte equality, no per-answer RSA).
//! * [`SpService::update_edge_weight`] applies an owner edge update,
//!   **routed** to the shards whose key range can contain the edge,
//!   and publishes the repaired package as a new epoch in each
//!   targeted shard's MVCC ring. Sessions pinned to a retained epoch
//!   keep draining on their original root
//!   ([`SpServiceBuilder::retain_epochs`] sets the horizon); only a
//!   session whose epoch was evicted observes an explicit
//!   [`SessionError::EpochInvalidated`] — never a silently-accepted
//!   stale root — and simply reopens.
//! * [`Session::query_stream`] serves large query lists as pooled
//!   chunks through the versioned stream wire format, yielding
//!   verified answers incrementally (see [`crate::stream`]). When the
//!   service has a scheduler (the default), chunks are **double
//!   buffered**: the provider proves chunk *k+1* on a pool worker
//!   while the client verifies chunk *k*.
//! * A service built through [`SpServiceBuilder`] holds several
//!   **shards** — one provider package per method and/or per node-id
//!   key range — behind a routing table
//!   ([`SpService::open_session_for`],
//!   [`SpService::open_session_routed`]), all sharing one
//!   work-stealing [`Scheduler`] so thousands of concurrent sessions
//!   divide a fixed provider thread pool fairly.
//!
//! Every method is served through its
//! [`AuthMethod`](crate::methods::AuthMethod) trait object — the
//! facade itself is method-agnostic.
//!
//! ```
//! use spnet_core::prelude::*;
//! use spnet_graph::{gen::grid_network, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let graph = grid_network(6, 6, 1.1, 7);
//! let mut rng = StdRng::seed_from_u64(7);
//! let published = DataOwner::publish(&graph, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
//!
//! let service = SpService::builder().package(published.package).build();
//! let session = service
//!     .open_session(Client::new(published.public_key))
//!     .expect("authentic epoch");
//! let answers = session.query_batch(&[(NodeId(0), NodeId(35))]).expect("verified");
//! assert!(answers[0].distance > 0.0);
//! ```

use crate::ads::SignedRoot;
use crate::batch::BatchAnswer;
use crate::client::Client;
use crate::error::{ProviderError, VerifyError};
use crate::methods::{MethodParams, PinnedAux};
use crate::par::Scheduler;
use crate::provider::ServiceProvider;
use crate::stream::{StreamError, StreamVerifier, DEFAULT_CHUNK_LEN};
use crate::update::{self, UpdateError};
use crate::wire::{encode_frame, StreamFrame};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::{NodeId, Path};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock, RwLock, RwLockReadGuard};

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The epoch this session bound at open was evicted from the
    /// shard's retention ring (enough owner updates re-signed the root
    /// to push it past the [`SpServiceBuilder::retain_epochs`]
    /// horizon). Reopen to continue on the current epoch.
    EpochInvalidated {
        /// The epoch the session was opened against.
        opened: u64,
        /// The service's current epoch.
        current: u64,
    },
    /// The published epoch failed authentication at open (bad owner
    /// signature — on the network root or an auxiliary root — or
    /// undecodable method params), or no shard serves the requested
    /// method.
    OpenRejected(VerifyError),
    /// The provider could not answer (unknown node, unreachable pair).
    Provider(ProviderError),
    /// A provider answer failed verification.
    Verify(VerifyError),
    /// A streamed chunk failed framing or verification.
    Stream(StreamError),
    /// A scheduled prefetch worker disappeared without delivering its
    /// chunk (worker panic) — never seen in honest operation, since a
    /// submitted job always runs before the pool shuts down.
    Scheduler(&'static str),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::EpochInvalidated { opened, current } => write!(
                f,
                "session epoch {opened} invalidated by owner update (current epoch {current}); reopen the session"
            ),
            SessionError::OpenRejected(e) => write!(f, "epoch authentication failed: {e}"),
            SessionError::Provider(e) => write!(f, "provider error: {e}"),
            SessionError::Verify(e) => write!(f, "verification failed: {e}"),
            SessionError::Stream(e) => write!(f, "{e}"),
            SessionError::Scheduler(m) => write!(f, "scheduler failure: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ProviderError> for SessionError {
    fn from(e: ProviderError) -> Self {
        SessionError::Provider(e)
    }
}

impl From<VerifyError> for SessionError {
    fn from(e: VerifyError) -> Self {
        SessionError::Verify(e)
    }
}

impl From<StreamError> for SessionError {
    fn from(e: StreamError) -> Self {
        SessionError::Stream(e)
    }
}

/// How [`SpService::open_session_for`] / [`SpService::open_session_routed`]
/// pick a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Shards serving the requested method, narrowed by the query key's
    /// node-id range when one is registered; ties (several matching
    /// shards, or no key) break round-robin. The default.
    #[default]
    MethodThenKey,
    /// Ignore method and key: plain round-robin over every shard.
    /// Useful for replicated single-method deployments.
    RoundRobin,
}

/// Default number of epochs each shard retains for draining sessions
/// (see [`SpServiceBuilder::retain_epochs`]).
pub const DEFAULT_RETAIN_EPOCHS: usize = 4;

/// One retained epoch: the counter value and the provider state that
/// serves it.
struct EpochEntry {
    epoch: u64,
    provider: ServiceProvider,
}

/// A shard's MVCC epoch ring: up to `retain` provider snapshots,
/// oldest first, the back being the serving epoch. Open sessions drain
/// on their pinned entry while new sessions bind the back; an owner
/// update pushes a new entry and evicts whatever falls past the
/// retention horizon.
struct ServiceState {
    epochs: VecDeque<EpochEntry>,
    retain: usize,
}

impl ServiceState {
    fn new(provider: ServiceProvider, retain: usize) -> Self {
        let retain = retain.max(1);
        let mut epochs = VecDeque::with_capacity(retain);
        epochs.push_back(EpochEntry { epoch: 0, provider });
        ServiceState { epochs, retain }
    }

    /// The serving (latest) epoch entry.
    fn latest(&self) -> &EpochEntry {
        self.epochs.back().expect("epoch ring is never empty")
    }

    fn current_epoch(&self) -> u64 {
        self.latest().epoch
    }

    /// The provider still pinned at `epoch`, or the invalidation error
    /// when that entry was evicted.
    fn resolve(&self, epoch: u64) -> Result<&ServiceProvider, SessionError> {
        self.epochs
            .iter()
            .find(|e| e.epoch == epoch)
            .map(|e| &e.provider)
            .ok_or(SessionError::EpochInvalidated {
                opened: epoch,
                current: self.current_epoch(),
            })
    }

    /// Publishes `provider` as the next epoch, evicting entries past
    /// the retention horizon. Returns the new epoch.
    fn push(&mut self, provider: ServiceProvider) -> u64 {
        let epoch = self.current_epoch() + 1;
        self.epochs.push_back(EpochEntry { epoch, provider });
        while self.epochs.len() > self.retain {
            self.epochs.pop_front();
        }
        epoch
    }
}

/// One served provider package: its lock-guarded state, the method it
/// serves, and an optional node-id key range for routed opens.
struct Shard {
    state: Arc<RwLock<ServiceState>>,
    code: u8,
    key_range: Option<(u32, u32)>,
    /// The snapshot file backing this shard, when it was registered
    /// through [`SpServiceBuilder::snapshot`] /
    /// [`SpServiceBuilder::snapshot_chunks`] — the source for
    /// [`SpService::export_chunks`].
    snapshot_path: Option<std::path::PathBuf>,
}

struct ServiceInner {
    shards: Vec<Shard>,
    policy: RoutingPolicy,
    /// Worker count for the shared scheduler; 0 disables it (sessions
    /// prove stream chunks inline).
    threads: usize,
    /// Created lazily on the first session open that wants it, so
    /// services that never stream spawn no threads.
    scheduler: OnceLock<Arc<Scheduler>>,
    /// Round-robin cursor for shard routing.
    rr: AtomicUsize,
}

/// Builds an [`SpService`] serving one or more provider packages
/// behind a routing table and a shared work-stealing scheduler.
///
/// ```
/// use spnet_core::prelude::*;
/// use spnet_graph::gen::grid_network;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = grid_network(6, 6, 1.1, 11);
/// let mut rng = StdRng::seed_from_u64(11);
/// let dij = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
/// let full = DataOwner::publish(&g, &MethodConfig::Full { use_floyd_warshall: false },
///                               &SetupConfig::default(), &mut rng);
///
/// let service = SpService::builder()
///     .package(dij.package)
///     .package(full.package)
///     .threads(2)
///     .build();
/// assert_eq!(service.shard_count(), 2);
/// let session = service
///     .open_session_for(Client::new(full.public_key), 2 /* FULL */)
///     .unwrap();
/// assert_eq!(session.method_name(), "FULL");
/// ```
#[derive(Default)]
pub struct SpServiceBuilder {
    shards: Vec<PendingShard>,
    policy: RoutingPolicy,
    threads: Option<usize>,
    retain: Option<usize>,
}

/// A shard registered with the builder, before the retention depth is
/// known (`build()` turns these into [`Shard`]s).
struct PendingShard {
    provider: ServiceProvider,
    key_range: Option<(u32, u32)>,
    snapshot_path: Option<std::path::PathBuf>,
}

impl SpServiceBuilder {
    /// An empty builder ([`SpService::builder`] is the usual entry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a package as a shard with no key range.
    pub fn package(mut self, package: crate::owner::ProviderPackage) -> Self {
        self.shards.push(PendingShard {
            provider: ServiceProvider::new(package),
            key_range: None,
            snapshot_path: None,
        });
        self
    }

    /// Registers a shard **cold-started from a snapshot directory**
    /// written by [`crate::owner::Published::save_snapshot`]. Loading
    /// performs zero RSA signing; every persisted signed root is
    /// re-verified against the persisted owner key. The shard remembers
    /// its snapshot file, so [`SpService::export_chunks`] can stream it
    /// to a booting replica.
    pub fn snapshot(
        mut self,
        dir: &std::path::Path,
        backend: spnet_store::StoreBackend,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let loaded = crate::snapshot::load_package(dir, backend)?;
        self = self.package(loaded.package);
        self.shards.last_mut().expect("just pushed").snapshot_path =
            Some(dir.join(crate::snapshot::SNAPSHOT_FILE));
        Ok(self)
    }

    /// Registers a shard bootstrapped from **chunked snapshot frames**
    /// exported by a live provider ([`SpService::export_chunks`]): the
    /// frames are reassembled into `dir` (ordering and whole-file
    /// checksum enforced), then loaded exactly like
    /// [`Self::snapshot`].
    pub fn snapshot_chunks(
        self,
        frames: &[Vec<u8>],
        dir: &std::path::Path,
        backend: spnet_store::StoreBackend,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let mut asm = spnet_store::ChunkAssembler::new(dir.join(crate::snapshot::SNAPSHOT_FILE));
        for frame in frames {
            asm.feed(frame)
                .map_err(crate::snapshot::SnapshotError::Store)?;
        }
        if !asm.is_done() {
            return Err(crate::snapshot::SnapshotError::Corrupt(
                "chunk transfer ended before the End frame verified",
            ));
        }
        self.snapshot(dir, backend)
    }

    /// Registers a package as a shard owning the **inclusive** node-id
    /// range `key_range` — [`SpService::open_session_routed`] prefers
    /// it for keys inside the range.
    pub fn shard(mut self, package: crate::owner::ProviderPackage, key_range: (u32, u32)) -> Self {
        self = self.package(package);
        self.shards.last_mut().expect("just pushed").key_range = Some(key_range);
        self
    }

    /// Worker-thread count of the shared scheduler. `0` disables it:
    /// sessions prove stream chunks inline on the calling thread.
    /// Default: one worker per available core.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the shard-routing policy (default
    /// [`RoutingPolicy::MethodThenKey`]).
    pub fn routing(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of epochs each shard retains for open sessions (MVCC).
    /// An owner update publishes a new epoch while up to `k − 1` prior
    /// epochs stay pinned, so sessions opened against them drain to
    /// completion on their original signed root instead of failing.
    /// Only a session whose epoch was evicted past the horizon
    /// observes [`SessionError::EpochInvalidated`]. Clamped to at
    /// least 1 — `retain_epochs(1)` restores invalidate-on-every-
    /// update semantics. Default: [`DEFAULT_RETAIN_EPOCHS`].
    pub fn retain_epochs(mut self, k: usize) -> Self {
        self.retain = Some(k);
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// If no package/provider/shard was registered.
    pub fn build(self) -> SpService {
        assert!(
            !self.shards.is_empty(),
            "SpServiceBuilder: register at least one package before build()"
        );
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let retain = self.retain.unwrap_or(DEFAULT_RETAIN_EPOCHS).max(1);
        let shards = self
            .shards
            .into_iter()
            .map(|p| Shard {
                code: p.provider.method_code(),
                state: Arc::new(RwLock::new(ServiceState::new(p.provider, retain))),
                key_range: p.key_range,
                snapshot_path: p.snapshot_path,
            })
            .collect();
        SpService {
            inner: Arc::new(ServiceInner {
                shards,
                policy: self.policy,
                threads,
                scheduler: OnceLock::new(),
                rr: AtomicUsize::new(0),
            }),
        }
    }
}

/// The serving facade: one or more provider shards, per-shard epoch
/// counters, a shared work-stealing scheduler, and session handout.
/// Cheap to clone and share across serving threads.
#[derive(Clone)]
pub struct SpService {
    inner: Arc<ServiceInner>,
}

impl SpService {
    /// Starts a [`SpServiceBuilder`].
    pub fn builder() -> SpServiceBuilder {
        SpServiceBuilder::new()
    }

    /// Number of registered shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Exports shard `shard`'s backing snapshot as encoded
    /// [`spnet_store::StoreChunk`] frames of `chunk_len` payload bytes,
    /// ready to ship to a replica
    /// ([`SpServiceBuilder::snapshot_chunks`]). Only shards registered
    /// from a snapshot can export; errors typed otherwise.
    pub fn export_chunks(
        &self,
        shard: usize,
        chunk_len: usize,
    ) -> Result<Vec<Vec<u8>>, crate::snapshot::SnapshotError> {
        let s = self
            .inner
            .shards
            .get(shard)
            .ok_or(crate::snapshot::SnapshotError::Corrupt("no such shard"))?;
        let path = s
            .snapshot_path
            .as_ref()
            .ok_or(crate::snapshot::SnapshotError::Corrupt(
                "shard is not snapshot-backed",
            ))?;
        Ok(spnet_store::chunk_file(path, chunk_len)?)
    }

    /// The current epoch of the first shard (starts at 0, +1 per owner
    /// update that targets it; [`Self::update_edge_weight`] routes by
    /// key range, so shards advance independently).
    pub fn epoch(&self) -> u64 {
        self.read().current_epoch()
    }

    /// The first shard's method display name.
    pub fn method_name(&self) -> &'static str {
        self.read()
            .latest()
            .provider
            .package()
            .hints
            .method()
            .name()
    }

    /// `(executed, stolen)` job counters of the shared scheduler, if it
    /// has started. A non-zero `stolen` is direct evidence the pool
    /// balanced session load across workers.
    pub fn scheduler_stats(&self) -> Option<(u64, u64)> {
        self.inner
            .scheduler
            .get()
            .map(|s| (s.executed(), s.stolen()))
    }

    /// Opens a session on the **first** shard — the whole service for
    /// the common single-package case.
    pub fn open_session(&self, client: Client) -> Result<Session, SessionError> {
        self.open_session_on(0, client)
    }

    /// Opens a session on a shard serving the method with wire code
    /// `method_code` (1 = DIJ, 2 = FULL, 3 = LDM, 4 = HYP), picked by
    /// the service's [`RoutingPolicy`]. Fails with
    /// [`SessionError::OpenRejected`] when no shard serves the method.
    pub fn open_session_for(
        &self,
        client: Client,
        method_code: u8,
    ) -> Result<Session, SessionError> {
        let idx = self.route(method_code, None)?;
        self.open_session_on(idx, client)
    }

    /// Like [`Self::open_session_for`], with a query key: a shard
    /// whose registered key range contains `key` is preferred, so
    /// key-partitioned deployments route sessions to the shard that
    /// owns their data.
    pub fn open_session_routed(
        &self,
        client: Client,
        method_code: u8,
        key: NodeId,
    ) -> Result<Session, SessionError> {
        let idx = self.route(method_code, Some(key))?;
        self.open_session_on(idx, client)
    }

    fn route(&self, code: u8, key: Option<NodeId>) -> Result<usize, SessionError> {
        let inner = &self.inner;
        match inner.policy {
            RoutingPolicy::RoundRobin => {
                Ok(inner.rr.fetch_add(1, Ordering::Relaxed) % inner.shards.len())
            }
            RoutingPolicy::MethodThenKey => {
                let matching: Vec<usize> = inner
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.code == code)
                    .map(|(i, _)| i)
                    .collect();
                if matching.is_empty() {
                    return Err(SessionError::OpenRejected(VerifyError::MetaMismatch(
                        "no shard serves the requested method",
                    )));
                }
                if let Some(k) = key {
                    if let Some(&i) = matching.iter().find(|&&i| {
                        inner.shards[i]
                            .key_range
                            .is_some_and(|(lo, hi)| lo <= k.0 && k.0 <= hi)
                    }) {
                        return Ok(i);
                    }
                }
                Ok(matching[inner.rr.fetch_add(1, Ordering::Relaxed) % matching.len()])
            }
        }
    }

    /// Opens a session on shard `idx`: authenticates that shard's
    /// signed network root and method params **once**, RSA-verifies
    /// and pins the method's auxiliary signed roots, and binds the
    /// session to the shard's current epoch.
    fn open_session_on(&self, idx: usize, client: Client) -> Result<Session, SessionError> {
        let shard = &self.inner.shards[idx];
        let st = shard.state.read().expect("service lock poisoned");
        let entry = st.latest();
        let root = entry.provider.package().network_root.clone();
        if !root.verify(client.public_key()) {
            return Err(SessionError::OpenRejected(VerifyError::BadSignature));
        }
        let params = MethodParams::decode(&root.meta.params).map_err(|_| {
            SessionError::OpenRejected(VerifyError::MetaMismatch("undecodable method params"))
        })?;
        // Pin the auxiliary roots now (one RSA verification each, for
        // the whole session) so per-chunk verification replaces their
        // repeated signature checks with byte equality.
        let mut aux: Vec<SignedRoot> = Vec::new();
        for r in entry.provider.package().hints.aux_roots() {
            if !r.verify(client.public_key()) {
                return Err(SessionError::OpenRejected(VerifyError::BadSignature));
            }
            aux.push(r.clone());
        }
        Ok(Session {
            state: Arc::clone(&shard.state),
            scheduler: self.scheduler(),
            client,
            epoch: entry.epoch,
            root,
            params,
            pins: PinnedAux::new(aux),
        })
    }

    /// Owner-side: applies an edge-weight update with the owner's
    /// retained keypair, **routed by key range**: only shards whose
    /// registered range can contain an endpoint are touched (a shard
    /// with no range serves the whole network and is always a target),
    /// so a key-partitioned deployment leaves unrelated shards — their
    /// epochs, locks, and open sessions — completely alone.
    ///
    /// Every targeted shard repairs a **clone** of its serving package
    /// ([`crate::update::update_edge_weight`]) and publishes it as a
    /// new epoch in its MVCC ring: sessions pinned to retained epochs
    /// keep draining on their original signed root; a session whose
    /// epoch falls past the [`SpServiceBuilder::retain_epochs`]
    /// horizon observes [`SessionError::EpochInvalidated`]; new
    /// sessions bind the fresh epoch. All-or-nothing across targets:
    /// repairs are staged aside and nothing is published unless every
    /// one succeeds. Returns the last targeted shard's new epoch.
    pub fn update_edge_weight(
        &self,
        keypair: &RsaKeyPair,
        u: NodeId,
        v: NodeId,
        new_weight: f64,
    ) -> Result<u64, UpdateError> {
        let targets: Vec<&Shard> = self
            .inner
            .shards
            .iter()
            .filter(|s| match s.key_range {
                None => true,
                Some((lo, hi)) => (lo <= u.0 && u.0 <= hi) || (lo <= v.0 && v.0 <= hi),
            })
            .collect();
        if targets.is_empty() {
            return Err(UpdateError::NoSuchEdge { u, v });
        }
        // Write-lock the targets in registration order (consistent
        // order, no deadlock) so sessions observe the update as one
        // atomic step across every shard that holds the edge.
        let mut guards: Vec<_> = targets
            .iter()
            .map(|s| s.state.write().expect("service lock poisoned"))
            .collect();
        let mut staged = Vec::with_capacity(guards.len());
        for st in &guards {
            let mut provider = st.latest().provider.clone();
            update::update_edge_weight(&mut provider.package, keypair, u, v, new_weight)?;
            staged.push(provider);
        }
        let mut epoch = 0;
        for (st, provider) in guards.iter_mut().zip(staged) {
            epoch = st.push(provider);
        }
        Ok(epoch)
    }

    /// Owner-side: persists shard `shard`'s **latest** epoch back into
    /// its snapshot file, rewriting only the dirty sections and pages
    /// in place ([`crate::snapshot::update_snapshot`]) — after an
    /// [`Self::update_edge_weight`], a restart picks up the updated
    /// network without any republish. Only snapshot-backed shards
    /// (registered through [`SpServiceBuilder::snapshot`] with the
    /// `Mem` backend, whose trees are resident) can refresh; errors
    /// are typed otherwise.
    pub fn refresh_shard_snapshot(
        &self,
        shard: usize,
        public_key: &spnet_crypto::rsa::RsaPublicKey,
    ) -> Result<crate::snapshot::SnapshotRefresh, crate::snapshot::SnapshotError> {
        let s = self
            .inner
            .shards
            .get(shard)
            .ok_or(crate::snapshot::SnapshotError::Corrupt("no such shard"))?;
        let path = s
            .snapshot_path
            .as_ref()
            .ok_or(crate::snapshot::SnapshotError::Corrupt(
                "shard is not snapshot-backed",
            ))?;
        let dir = path
            .parent()
            .ok_or(crate::snapshot::SnapshotError::Corrupt(
                "snapshot path has no parent directory",
            ))?
            .to_path_buf();
        let st = s.state.read().expect("service lock poisoned");
        crate::snapshot::update_snapshot(st.latest().provider.package(), public_key, &dir)
    }

    fn scheduler(&self) -> Option<Arc<Scheduler>> {
        if self.inner.threads == 0 {
            return None;
        }
        Some(Arc::clone(self.inner.scheduler.get_or_init(|| {
            Arc::new(Scheduler::new(self.inner.threads))
        })))
    }

    fn read(&self) -> RwLockReadGuard<'_, ServiceState> {
        self.inner.shards[0]
            .state
            .read()
            .expect("service lock poisoned")
    }
}

/// A verified session answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionAnswer {
    /// The provider's reported shortest path (endpoint- and
    /// edge-authenticated).
    pub path: Path,
    /// The proven optimal distance.
    pub distance: f64,
}

/// A client session bound to one shard's published epoch.
///
/// Obtained from [`SpService::open_session`] (or the routed variants).
/// Holds the epoch's RSA-verified signed root plus the method's pinned
/// auxiliary roots; every query's answer must carry exactly those
/// roots. An owner update publishes a *new* epoch while this session's
/// stays pinned in the shard's MVCC ring, so in-flight queries and
/// streams drain against their original root; only when enough
/// updates evict the pinned epoch do queries fail with
/// [`SessionError::EpochInvalidated`] — reopen to bind the current
/// epoch.
pub struct Session {
    state: Arc<RwLock<ServiceState>>,
    scheduler: Option<Arc<Scheduler>>,
    client: Client,
    epoch: u64,
    root: SignedRoot,
    params: MethodParams,
    pins: PinnedAux,
}

impl Session {
    /// The epoch this session is bound to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The serving method's display name (from the authenticated
    /// params, not provider claims).
    pub fn method_name(&self) -> &'static str {
        self.params.method().name()
    }

    /// The authenticated method parameters this session verified at
    /// open.
    pub fn params(&self) -> &MethodParams {
        &self.params
    }

    /// The auxiliary signed roots pinned (RSA-verified once) at open:
    /// one for FULL, two for HYP, none for DIJ/LDM.
    pub fn pins(&self) -> &PinnedAux {
        &self.pins
    }

    /// Read-locks the shard and checks this session's epoch is still
    /// retained; call sites resolve the pinned provider out of the
    /// returned guard.
    fn guard(&self) -> Result<RwLockReadGuard<'_, ServiceState>, SessionError> {
        let st = self.state.read().expect("service lock poisoned");
        st.resolve(self.epoch)?;
        Ok(st)
    }

    /// Provider half of a query batch (a single query is a batch of
    /// one): proves `queries` against the session's epoch (one pooled
    /// proof — shared tuples, one Merkle cover, aux once per batch).
    /// Fails with [`SessionError::EpochInvalidated`] only once the
    /// epoch has been evicted from the shard's retention ring.
    ///
    /// Split from [`Self::verify_batch`] so benches and tests can
    /// measure, serialize, or tamper with the proof between the two
    /// halves; [`Self::query_batch`] composes them.
    pub fn answer_batch(&self, queries: &[(NodeId, NodeId)]) -> Result<BatchAnswer, SessionError> {
        let st = self.guard()?;
        Ok(st.resolve(self.epoch)?.answer(queries)?)
    }

    /// Client half of a batched query: verifies a batch against the
    /// session's pinned roots, returning the proven optimum per query.
    pub fn verify_batch(
        &self,
        queries: &[(NodeId, NodeId)],
        batch: &BatchAnswer,
    ) -> Result<Vec<f64>, SessionError> {
        Ok(self
            .client
            .verify_batch_impl(queries, batch, Some(&self.root), Some(&self.pins))?)
    }

    /// Answers and verifies `queries` (one or more) with one pooled
    /// proof.
    pub fn query_batch(
        &self,
        queries: &[(NodeId, NodeId)],
    ) -> Result<Vec<SessionAnswer>, SessionError> {
        let batch = self.answer_batch(queries)?;
        let distances = self.verify_batch(queries, &batch)?;
        Ok(batch
            .queries
            .into_iter()
            .zip(distances)
            .map(|(q, distance)| SessionAnswer {
                path: q.path,
                distance,
            })
            .collect())
    }

    /// The owner public key this session's client trusts — what
    /// higher-level verified operators (e.g. `spnet-queries`' POI
    /// directory) authenticate additional owner-signed roots against.
    pub fn owner_key(&self) -> &spnet_crypto::rsa::RsaPublicKey {
        self.client.public_key()
    }

    /// Provider half of a verified range query: the claimed member
    /// set with its completeness certificate, proven against the
    /// session's epoch.
    pub fn answer_range(
        &self,
        source: NodeId,
        radius: f64,
    ) -> Result<crate::queries::RangeAnswer, SessionError> {
        let st = self.guard()?;
        Ok(st.resolve(self.epoch)?.answer_range(source, radius)?)
    }

    /// Client half of a verified range query, against the session's
    /// pinned roots.
    pub fn verify_range(
        &self,
        source: NodeId,
        radius: f64,
        answer: &crate::queries::RangeAnswer,
    ) -> Result<Vec<(NodeId, f64)>, SessionError> {
        Ok(self
            .client
            .verify_range_pinned(source, radius, answer, &self.root, Some(&self.pins))?)
    }

    /// Answers and verifies a range query — every node within
    /// `radius` of `source`, certified **complete**: omitting any
    /// in-range node (or shrinking the radius) fails verification
    /// with a typed [`crate::error::VerifyError`].
    pub fn query_range(
        &self,
        source: NodeId,
        radius: f64,
    ) -> Result<Vec<(NodeId, f64)>, SessionError> {
        let answer = self.answer_range(source, radius)?;
        self.verify_range(source, radius, &answer)
    }

    /// Serves `queries` as a verified stream with the default chunk
    /// size: an iterator yielding each pooled chunk's verified answers
    /// as the provider produces it.
    pub fn query_stream<'s>(&'s self, queries: &'s [(NodeId, NodeId)]) -> SessionStream<'s> {
        self.query_stream_chunked(queries, DEFAULT_CHUNK_LEN)
    }

    /// [`Self::query_stream`] with an explicit chunk size (clamped to
    /// at least 1).
    ///
    /// With the service scheduler on (the default), chunks are double
    /// buffered: chunk *k+1* is proven on a pool worker while this
    /// thread verifies chunk *k*. The proofs are bit-identical to
    /// inline serving — `answer_batch` is deterministic and each chunk
    /// is proven under the same epoch guard.
    ///
    /// An owner update mid-stream does **not** interrupt the stream:
    /// the session's epoch stays pinned in the shard's MVCC ring, so
    /// remaining chunks keep proving against the original root. Only
    /// when the pinned epoch is evicted (more updates than the
    /// retention horizon) does the next emitted chunk surface
    /// [`SessionError::EpochInvalidated`] — prefetched chunks proven
    /// before the eviction are discarded, never served. Every chunk
    /// round-trips through the versioned stream
    /// wire frames and the full batched verification, so the bytes
    /// path of a networked deployment is exercised end to end.
    pub fn query_stream_chunked<'s>(
        &'s self,
        queries: &'s [(NodeId, NodeId)],
        chunk_len: usize,
    ) -> SessionStream<'s> {
        SessionStream {
            session: self,
            queries,
            chunk_len: chunk_len.max(1),
            verifier: StreamVerifier::with_session_pins(
                &self.client,
                queries,
                &self.root,
                &self.pins,
            ),
            next: 0,
            chunks_emitted: 0,
            stage: StreamStage::Header,
            pending: None,
        }
    }
}

enum StreamStage {
    Header,
    Chunks,
    End,
    Done,
}

/// A lazy, incrementally verified query stream over a session (see
/// [`Session::query_stream`]). Each `next()` ships and verifies one
/// pooled chunk, yielding its [`SessionAnswer`]s; with a scheduler the
/// following chunk is already being proven on a pool worker.
///
/// NOTE: this drives the same Header → Chunks → End framing as the
/// raw provider-side [`crate::stream::AnswerStream`], differing only
/// in the per-chunk epoch guards and prefetching; framing changes must
/// be mirrored in both, and the shared [`StreamVerifier`] enforces the
/// result.
pub struct SessionStream<'s> {
    session: &'s Session,
    queries: &'s [(NodeId, NodeId)],
    chunk_len: usize,
    verifier: StreamVerifier<'s>,
    next: usize,
    chunks_emitted: u32,
    stage: StreamStage,
    /// The in-flight prefetch of the chunk starting at `next`, if the
    /// session has a scheduler.
    pending: Option<mpsc::Receiver<Result<Vec<u8>, SessionError>>>,
}

impl SessionStream<'_> {
    /// Feeds one frame through the client-side verifier, translating
    /// stream errors.
    fn feed(&mut self, frame: Vec<u8>) -> Result<Vec<SessionAnswer>, SessionError> {
        let items = self.verifier.feed(&frame)?;
        Ok(items
            .into_iter()
            .map(|it| SessionAnswer {
                path: it.path,
                distance: it.distance,
            })
            .collect())
    }

    /// Submits the proving of `queries[start..end]` to the scheduler;
    /// the returned channel delivers the encoded chunk frame. The job
    /// resolves the session's pinned epoch **under the shard read
    /// lock** before proving, so every chunk is proven against exactly
    /// the epoch the session opened on (or fails if it was evicted).
    fn schedule(&self, start: usize, end: usize) -> mpsc::Receiver<Result<Vec<u8>, SessionError>> {
        let sched = self.session.scheduler.as_ref().expect("scheduler present");
        let (tx, rx) = mpsc::channel();
        let state = Arc::clone(&self.session.state);
        let epoch = self.session.epoch;
        let chunk: Vec<(NodeId, NodeId)> = self.queries[start..end].to_vec();
        sched.spawn(move || {
            let result = (|| -> Result<Vec<u8>, SessionError> {
                let st = state.read().expect("service lock poisoned");
                let batch = st.resolve(epoch)?.answer(&chunk)?;
                Ok(encode_frame(&StreamFrame::Chunk {
                    start: start as u32,
                    batch: Box::new(batch),
                }))
            })();
            // The consumer may have bailed (stream dropped or errored);
            // a dead receiver is fine.
            let _ = tx.send(result);
        });
        rx
    }

    /// Proves `queries[start..end]` on the calling thread (no
    /// scheduler), holding the epoch guard across the proving so the
    /// chunk is consistent with the epoch.
    fn prove_inline(&self, start: usize, end: usize) -> Result<Vec<u8>, SessionError> {
        let st = self.session.guard()?;
        let batch = st
            .resolve(self.session.epoch)?
            .answer(&self.queries[start..end])?;
        Ok(encode_frame(&StreamFrame::Chunk {
            start: start as u32,
            batch: Box::new(batch),
        }))
    }
}

impl Iterator for SessionStream<'_> {
    /// One verified chunk of answers per step.
    type Item = Result<Vec<SessionAnswer>, SessionError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stage {
                StreamStage::Header => {
                    self.stage = if self.queries.is_empty() {
                        StreamStage::End
                    } else {
                        StreamStage::Chunks
                    };
                    let frame = encode_frame(&StreamFrame::Header {
                        total_queries: self.queries.len() as u32,
                        chunk_len: self.chunk_len as u32,
                        method_code: self.session.params.code(),
                    });
                    match self.feed(frame) {
                        Ok(_) => continue,
                        Err(e) => {
                            self.stage = StreamStage::Done;
                            return Some(Err(e));
                        }
                    }
                }
                StreamStage::Chunks => {
                    let start = self.next;
                    let end = (start + self.chunk_len).min(self.queries.len());
                    let produced = if self.session.scheduler.is_some() {
                        // Double buffering: receive this chunk's proof,
                        // then immediately schedule the next chunk so a
                        // worker proves it while we verify this one.
                        let rx = match self.pending.take() {
                            Some(rx) => rx,
                            None => self.schedule(start, end),
                        };
                        let received = rx
                            .recv()
                            .unwrap_or(Err(SessionError::Scheduler("prefetch worker lost")));
                        if end < self.queries.len() {
                            let nend = (end + self.chunk_len).min(self.queries.len());
                            self.pending = Some(self.schedule(end, nend));
                        }
                        received
                    } else {
                        self.prove_inline(start, end)
                    };
                    // Emission-time epoch check: a bump after the
                    // prefetch proved this chunk discards it here, so
                    // an invalidated stream never emits another chunk.
                    let frame = match produced.and_then(|f| self.session.guard().map(|_| f)) {
                        Ok(f) => f,
                        Err(e) => {
                            self.stage = StreamStage::Done;
                            return Some(Err(e));
                        }
                    };
                    self.next = end;
                    self.chunks_emitted += 1;
                    if end == self.queries.len() {
                        self.stage = StreamStage::End;
                    }
                    return match self.feed(frame) {
                        Ok(items) => Some(Ok(items)),
                        Err(e) => {
                            self.stage = StreamStage::Done;
                            Some(Err(e))
                        }
                    };
                }
                StreamStage::End => {
                    self.stage = StreamStage::Done;
                    let frame = encode_frame(&StreamFrame::End {
                        total_chunks: self.chunks_emitted,
                    });
                    match self.feed(frame) {
                        Ok(_) => {
                            debug_assert!(self.verifier.finished());
                            return None;
                        }
                        Err(e) => return Some(Err(e)),
                    }
                }
                StreamStage::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;
    use spnet_graph::Graph;

    fn deploy(method: MethodConfig) -> (Graph, SpService, Client, RsaKeyPair) {
        let g = grid_network(9, 9, 1.15, 2200);
        let mut rng = StdRng::seed_from_u64(2201);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let client = Client::new(p.public_key);
        (
            g,
            SpService::builder().package(p.package).build(),
            client,
            kp,
        )
    }

    /// [`deploy`] with an explicit MVCC retention horizon (builder
    /// path, inline scheduler).
    fn deploy_retain(
        method: MethodConfig,
        retain: usize,
    ) -> (Graph, SpService, Client, RsaKeyPair) {
        let g = grid_network(9, 9, 1.15, 2200);
        let mut rng = StdRng::seed_from_u64(2201);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let client = Client::new(p.public_key);
        let service = SpService::builder()
            .package(p.package)
            .threads(0)
            .retain_epochs(retain)
            .build();
        (g, service, client, kp)
    }

    /// The graph with one edge re-weighted — the post-update truth.
    fn reweighted(g: &Graph, u: NodeId, v: NodeId, w: f64) -> Graph {
        let mut g2 = g.clone();
        g2.set_edge_weight(u, v, w).expect("edge exists");
        g2
    }

    fn all_methods() -> Vec<MethodConfig> {
        vec![
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: 6,
                ..LdmConfig::default()
            }),
            MethodConfig::Hyp { cells: 9 },
        ]
    }

    const QUERIES: [(u32, u32); 5] = [(0, 80), (4, 76), (40, 41), (80, 0), (9, 71)];

    fn as_nodes(qs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        qs.iter().map(|&(s, t)| (NodeId(s), NodeId(t))).collect()
    }

    #[test]
    fn sessions_serve_all_methods_through_one_facade() {
        for method in all_methods() {
            let (g, service, client, _) = deploy(method.clone());
            assert_eq!(service.method_name(), method.name());
            let session = service.open_session(client).unwrap();
            assert_eq!(session.method_name(), method.name());
            for &(s, t) in &QUERIES {
                let (s, t) = (NodeId(s), NodeId(t));
                let a = session.query_batch(&[(s, t)]).unwrap().remove(0);
                let truth = dijkstra_path(&g, s, t).unwrap().distance;
                assert!(
                    (a.distance - truth).abs() <= 1e-6 * truth.max(1.0),
                    "{}: ({s},{t})",
                    method.name()
                );
                assert_eq!(a.path.source(), s);
                assert_eq!(a.path.target(), t);
            }
            // Batch and stream agree with single queries.
            let qs = as_nodes(&QUERIES);
            let batch = session.query_batch(&qs).unwrap();
            let streamed: Vec<SessionAnswer> = session
                .query_stream_chunked(&qs, 2)
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(batch.len(), qs.len());
            assert_eq!(streamed.len(), qs.len());
            for ((b, s_), &(vs, vt)) in batch.iter().zip(&streamed).zip(&qs) {
                let single = session.query_batch(&[(vs, vt)]).unwrap().remove(0);
                assert_eq!(
                    b.distance.to_bits(),
                    single.distance.to_bits(),
                    "{}: batch ≡ sequential",
                    method.name()
                );
                assert_eq!(
                    s_.distance.to_bits(),
                    single.distance.to_bits(),
                    "{}: stream ≡ sequential",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn sessions_pin_the_methods_aux_roots() {
        for (method, expected) in [
            (MethodConfig::Dij, 0usize),
            (
                MethodConfig::Full {
                    use_floyd_warshall: false,
                },
                1,
            ),
            (
                MethodConfig::Ldm(LdmConfig {
                    landmarks: 6,
                    ..LdmConfig::default()
                }),
                0,
            ),
            (MethodConfig::Hyp { cells: 9 }, 2),
        ] {
            let (_, service, client, _) = deploy(method.clone());
            let session = service.open_session(client).unwrap();
            assert_eq!(
                session.pins().len(),
                expected,
                "{}: pinned aux roots",
                method.name()
            );
        }
    }

    #[test]
    fn builder_routes_sessions_across_methods() {
        let g = grid_network(9, 9, 1.15, 2210);
        let mut rng = StdRng::seed_from_u64(2211);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let mut builder = SpService::builder().threads(0);
        for method in all_methods() {
            let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
            builder = builder.package(p.package);
        }
        let service = builder.build();
        assert_eq!(service.shard_count(), 4);
        let client = Client::new(kp.public_key().clone());
        for (code, name) in [(1u8, "DIJ"), (2, "FULL"), (3, "LDM"), (4, "HYP")] {
            let session = service.open_session_for(client.clone(), code).unwrap();
            assert_eq!(session.method_name(), name);
            let truth = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap().distance;
            let a = session
                .query_batch(&[(NodeId(0), NodeId(80))])
                .unwrap()
                .remove(0);
            assert!(
                (a.distance - truth).abs() <= 1e-6 * truth.max(1.0),
                "{name}"
            );
        }
        // A method nobody serves is rejected at open.
        assert_eq!(
            service.open_session_for(client, 9).err().unwrap(),
            SessionError::OpenRejected(VerifyError::MetaMismatch(
                "no shard serves the requested method"
            ))
        );
    }

    #[test]
    fn key_ranges_route_to_the_owning_shard() {
        // Two DIJ shards over *different* networks: the key decides
        // which network answers, observable through the distances.
        let ga = grid_network(9, 9, 1.15, 2220);
        let gb = grid_network(9, 9, 1.45, 2221);
        let mut rng = StdRng::seed_from_u64(2222);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let pa = DataOwner::publish_with_key(&ga, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let pb = DataOwner::publish_with_key(&gb, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let service = SpService::builder()
            .shard(pa.package, (0, 40))
            .shard(pb.package, (41, 80))
            .threads(0)
            .build();
        let client = Client::new(kp.public_key().clone());
        let ta = dijkstra_path(&ga, NodeId(0), NodeId(80)).unwrap().distance;
        let tb = dijkstra_path(&gb, NodeId(0), NodeId(80)).unwrap().distance;
        assert!((ta - tb).abs() > 1e-9, "networks must differ for this test");
        let sa = service
            .open_session_routed(client.clone(), 1, NodeId(7))
            .unwrap();
        assert_eq!(
            sa.query_batch(&[(NodeId(0), NodeId(80))])
                .unwrap()
                .remove(0)
                .distance
                .to_bits(),
            ta.to_bits(),
            "key 7 routes to the (0,40) shard"
        );
        let sb = service.open_session_routed(client, 1, NodeId(55)).unwrap();
        assert_eq!(
            sb.query_batch(&[(NodeId(0), NodeId(80))])
                .unwrap()
                .remove(0)
                .distance
                .to_bits(),
            tb.to_bits(),
            "key 55 routes to the (41,80) shard"
        );
    }

    #[test]
    fn scheduled_streams_match_inline_serving() {
        // The double-buffered (scheduler) stream must produce answers
        // bit-identical to inline proving.
        let g = grid_network(9, 9, 1.15, 2230);
        let mut rng = StdRng::seed_from_u64(2231);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let client = Client::new(kp.public_key().clone());
        let collect = |service: &SpService| -> Vec<u64> {
            let session = service.open_session(client.clone()).unwrap();
            session
                .query_stream_chunked(&as_nodes(&QUERIES), 2)
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .into_iter()
                .flatten()
                .map(|a| a.distance.to_bits())
                .collect()
        };
        let publish =
            || DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let inline = SpService::builder()
            .package(publish().package)
            .threads(0)
            .build();
        let pooled = SpService::builder()
            .package(publish().package)
            .threads(2)
            .build();
        assert_eq!(collect(&inline), collect(&pooled));
        let (executed, _) = pooled.scheduler_stats().expect("scheduler ran");
        assert!(executed >= 3, "each chunk proven on the pool");
        assert!(
            inline.scheduler_stats().is_none(),
            "threads(0) stays inline"
        );
    }

    #[test]
    fn wrong_owner_key_rejected_at_open() {
        let (_, service, _, _) = deploy(MethodConfig::Dij);
        let mut rng = StdRng::seed_from_u64(2202);
        let other = RsaKeyPair::generate(&mut rng, 256);
        let err = service
            .open_session(Client::new(other.public_key().clone()))
            .err()
            .unwrap();
        assert_eq!(err, SessionError::OpenRejected(VerifyError::BadSignature));
    }

    #[test]
    fn pinned_epochs_drain_open_sessions_through_updates() {
        // Default retention: an owner update must NOT interrupt open
        // sessions — they drain on their pinned epoch's root while new
        // sessions bind the fresh epoch and the new truth.
        let (g, service, client, kp) = deploy(MethodConfig::Dij);
        let old_truth = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap().distance;
        let session = service.open_session(client.clone()).unwrap();
        let qs = as_nodes(&QUERIES);
        let mut stream = session.query_stream_chunked(&qs, 2);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        // Re-weight the first edge of the 0→80 shortest path so the
        // old and new truths actually differ.
        let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
        let (u, v) = (path.nodes[0], path.nodes[1]);
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        // The pinned session keeps answering — old epoch, old truth.
        let a = session
            .query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        assert_eq!(a.distance.to_bits(), old_truth.to_bits());
        // The pre-update stream completes on the pinned epoch.
        let rest: Vec<SessionAnswer> = stream
            .collect::<Result<Vec<_>, _>>()
            .expect("stream drains on its pinned epoch")
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(first.len() + rest.len(), qs.len());
        // A fresh session binds the new epoch and serves the new truth.
        let new_truth = dijkstra_path(&reweighted(&g, u, v, 500.0), NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        assert!((new_truth - old_truth).abs() > 1e-9);
        let fresh = service.open_session(client).unwrap();
        assert_eq!(fresh.epoch(), 1);
        let b = fresh
            .query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        assert_eq!(b.distance.to_bits(), new_truth.to_bits());
    }

    #[test]
    fn evicted_epoch_invalidates_open_sessions() {
        // retain_epochs(1) restores the strict pre-MVCC semantics: one
        // update evicts epoch 0 and stale sessions fail loudly.
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 1);
        let session = service.open_session(client.clone()).unwrap();
        session
            .query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        let (u, v, w) = g.edges().next().unwrap();
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.update_edge_weight(&kp, u, v, w * 2.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(
            session.query_batch(&[(NodeId(0), NodeId(80))]),
            Err(SessionError::EpochInvalidated {
                opened: 0,
                current: 1
            })
        );
        assert!(matches!(
            session.query_batch(&as_nodes(&QUERIES)),
            Err(SessionError::EpochInvalidated { .. })
        ));
        // A reopened session serves the updated network.
        let fresh = service.open_session(client).unwrap();
        assert_eq!(fresh.epoch(), 1);
        let a = fresh
            .query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        let st = service.read();
        let truth = dijkstra_path(&st.latest().provider.package().graph, NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        assert!((a.distance - truth).abs() <= 1e-6 * truth.max(1.0));
    }

    #[test]
    fn retention_horizon_evicts_oldest_epochs() {
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 2);
        let s0 = service.open_session(client.clone()).unwrap();
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 2.0).unwrap();
        let s1 = service.open_session(client).unwrap();
        assert_eq!(s1.epoch(), 1);
        // Epochs {0, 1} retained: both sessions still serve.
        s0.query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        s1.query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        service.update_edge_weight(&kp, u, v, w * 3.0).unwrap();
        // Epochs {1, 2}: s0's epoch fell off the ring, s1 survives.
        assert_eq!(
            s0.query_batch(&[(NodeId(0), NodeId(80))]),
            Err(SessionError::EpochInvalidated {
                opened: 0,
                current: 2
            })
        );
        s1.query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
    }

    #[test]
    fn evicted_epoch_mid_stream_surfaces_as_invalidation() {
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 1);
        let session = service.open_session(client).unwrap();
        let qs = as_nodes(&QUERIES);
        let mut stream = session.query_stream_chunked(&qs, 2);
        // First chunk verifies fine.
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        // Owner updates between chunks; retain 1 evicts the epoch.
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 3.0).unwrap();
        // The next chunk is refused — never silently stale, even if the
        // scheduler already proved it before the eviction.
        assert!(matches!(
            stream.next().unwrap(),
            Err(SessionError::EpochInvalidated { .. })
        ));
        assert!(stream.next().is_none(), "stream ends after the error");
    }

    #[test]
    fn hint_methods_update_through_the_service() {
        // HYP carries the heaviest hint state; the service-level update
        // must repair it in place and serve the new truth.
        let (g, service, client, kp) = deploy(MethodConfig::Hyp { cells: 9 });
        let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
        let (u, v) = (path.nodes[0], path.nodes[1]);
        assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        let truth = dijkstra_path(&reweighted(&g, u, v, 500.0), NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        let session = service.open_session(client).unwrap();
        assert_eq!(session.epoch(), 1);
        let a = session
            .query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        assert!((a.distance - truth).abs() <= 1e-6 * truth.max(1.0));
    }

    #[test]
    fn mixed_method_service_updates_every_shard() {
        // One DIJ shard + one HYP shard over the same network: a single
        // owner update repairs both hint sets and bumps both epochs
        // atomically.
        let g = grid_network(9, 9, 1.15, 2240);
        let mut rng = StdRng::seed_from_u64(2241);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let dij = DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let hyp = DataOwner::publish_with_key(
            &g,
            &MethodConfig::Hyp { cells: 9 },
            &SetupConfig::default(),
            &kp,
        );
        let service = SpService::builder()
            .package(dij.package)
            .package(hyp.package)
            .threads(0)
            .build();
        let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
        let (u, v) = (path.nodes[0], path.nodes[1]);
        assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        let truth = dijkstra_path(&reweighted(&g, u, v, 500.0), NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        let client = Client::new(kp.public_key().clone());
        for code in [1u8, 4] {
            let session = service.open_session_for(client.clone(), code).unwrap();
            assert_eq!(session.epoch(), 1);
            let a = session
                .query_batch(&[(NodeId(0), NodeId(80))])
                .unwrap()
                .remove(0);
            assert!(
                (a.distance - truth).abs() <= 1e-6 * truth.max(1.0),
                "method code {code}"
            );
        }
    }

    #[test]
    fn routed_update_leaves_unrelated_shards_alone() {
        // The update edge lives inside the (0,40) shard's key range, so
        // the (41,80) shard must keep its epoch — and its open sessions
        // — completely untouched, even at retain_epochs(1).
        let ga = grid_network(9, 9, 1.15, 2250);
        let gb = grid_network(9, 9, 1.45, 2251);
        let mut rng = StdRng::seed_from_u64(2252);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let pa = DataOwner::publish_with_key(&ga, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let pb = DataOwner::publish_with_key(&gb, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let service = SpService::builder()
            .shard(pa.package, (0, 40))
            .shard(pb.package, (41, 80))
            .threads(0)
            .retain_epochs(1)
            .build();
        let client = Client::new(kp.public_key().clone());
        let session_a = service
            .open_session_routed(client.clone(), 1, NodeId(7))
            .unwrap();
        let session_b = service
            .open_session_routed(client.clone(), 1, NodeId(55))
            .unwrap();
        let (u, v, w) = ga
            .edges()
            .find(|&(u, v, _)| u.0 <= 40 && v.0 <= 40)
            .unwrap();
        assert_eq!(service.update_edge_weight(&kp, u, v, w * 2.0).unwrap(), 1);
        // Shard A bumped; with retain 1 its pre-update session is gone.
        assert!(matches!(
            session_a.query_batch(&[(NodeId(0), NodeId(80))]),
            Err(SessionError::EpochInvalidated { .. })
        ));
        let fresh_a = service
            .open_session_routed(client.clone(), 1, NodeId(7))
            .unwrap();
        assert_eq!(fresh_a.epoch(), 1);
        // Shard B never saw the update: epoch 0, session still alive.
        session_b
            .query_batch(&[(NodeId(0), NodeId(80))])
            .unwrap()
            .remove(0);
        let fresh_b = service.open_session_routed(client, 1, NodeId(55)).unwrap();
        assert_eq!(fresh_b.epoch(), 0);
    }

    #[test]
    fn service_clones_share_state() {
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 1);
        let clone = service.clone();
        let session = clone.open_session(client).unwrap();
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 2.0).unwrap();
        assert_eq!(clone.epoch(), 1);
        assert!(matches!(
            session.query_batch(&[(NodeId(0), NodeId(80))]),
            Err(SessionError::EpochInvalidated { .. })
        ));
    }
}
