//! The session manager: N sessions, one shared database, one governor,
//! one fleet registry, one clock.

use crate::governor::{Governor, GovernorConfig, GovernorStats};
use crate::registry::{CacheStats, FleetRegistry, SessionId};
use crate::session::ServeSession;
use crate::speculation::{ProfileKind, SessionCore};
use parking_lot::Mutex;
use specdb_core::SpeculatorConfig;
use specdb_exec::Database;
use specdb_obs::Observer;
use specdb_storage::VirtualTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The instant every session's edits, GOs and builds are stamped with.
pub type Clock = Arc<dyn Fn() -> VirtualTime + Send + Sync>;

/// Fleet-level counters (see [`SessionManager::fleet_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// Sessions currently connected.
    pub sessions: u64,
    /// Governor admission history.
    pub governor: GovernorStats,
    /// Fleet-registry counters.
    pub cache: CacheStats,
}

/// Owns the shared [`Database`] and hands out [`ServeSession`]s that
/// speculate under one fleet-wide [`Governor`] and share one
/// [`FleetRegistry`].
pub struct SessionManager {
    db: Arc<Mutex<Database>>,
    governor: Arc<Governor>,
    registry: Arc<FleetRegistry>,
    spec_config: SpeculatorConfig,
    clock: Clock,
    observer: Observer,
    sessions: Mutex<BTreeMap<SessionId, Arc<Mutex<ServeSession>>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// Wrap a database for multi-session serving, on the wall clock
    /// (microseconds since the manager started).
    pub fn new(db: Database, spec: SpeculatorConfig, governor: GovernorConfig) -> Self {
        let start = Instant::now();
        let wall: Clock =
            Arc::new(move || VirtualTime::from_micros(start.elapsed().as_micros() as u64));
        Self::with_clock(db, spec, governor, wall)
    }

    /// [`SessionManager::new`] on the given clock: a test that drives
    /// sessions by a script substitutes a virtual one.
    pub fn with_clock(
        db: Database,
        spec: SpeculatorConfig,
        governor: GovernorConfig,
        clock: Clock,
    ) -> Self {
        let observer = db.observer().clone();
        SessionManager {
            db: Arc::new(Mutex::new(db)),
            governor: Arc::new(Governor::with_observer(governor, observer.clone())),
            registry: Arc::new(FleetRegistry::new(observer.clone())),
            spec_config: spec,
            clock,
            observer,
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Open a new session. Session ids are unique for the manager's
    /// lifetime (never reused).
    pub fn connect(&self, name: &str) -> (SessionId, Arc<Mutex<ServeSession>>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let core = SessionCore::new(
            id,
            self.spec_config.clone(),
            &ProfileKind::default(),
            Arc::clone(&self.governor),
            Arc::clone(&self.registry),
            self.observer.clone(),
        );
        let db = Arc::clone(&self.db);
        let (governor, clock) = (Arc::clone(&self.governor), Arc::clone(&self.clock));
        let session = ServeSession::new(name.to_string(), db, core, governor, clock);
        let session = Arc::new(Mutex::new(session));
        self.sessions.lock().insert(id, Arc::clone(&session));
        (id, session)
    }

    /// Look up a connected session.
    pub fn session(&self, id: SessionId) -> Option<Arc<Mutex<ServeSession>>> {
        self.sessions.lock().get(&id).cloned()
    }

    /// Close a session: cancel its in-flight build, collect what no
    /// other session supports, and drop it from the fleet. Returns
    /// whether the session existed.
    pub fn disconnect(&self, id: SessionId) -> bool {
        let Some(session) = self.sessions.lock().remove(&id) else { return false };
        session.lock().close();
        true
    }

    /// Sessions currently connected.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Run a closure against the shared database (e.g. to inspect the
    /// view registry in tests).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.lock())
    }

    /// Fleet-level counters.
    pub fn fleet_stats(&self) -> FleetStats {
        FleetStats {
            sessions: self.session_count() as u64,
            governor: self.governor.stats(),
            cache: self.registry.stats(),
        }
    }
}
