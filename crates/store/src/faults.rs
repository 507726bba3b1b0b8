//! Deterministic fault injection at the backend seam.
//!
//! [`FailingBackend`] wraps any [`StoreBackend`] and kills its write
//! path mid-stream, emulating at the storage layer exactly what a
//! `kill -9` (or a worker machine vanishing) does to a running
//! campaign: acknowledged writes survive, the write in flight may be
//! torn, everything after it is gone. Reads always pass through, so a
//! test can kill a store, then reopen *the same underlying backend* and
//! assert what recovery sees.
//!
//! Two fault plans cover the CI suites:
//!
//! * [`FaultPlan::KillAtByte`] — a byte budget over the payloads of
//!   `append`/`put`/`commit_manifest`. The append that crosses the
//!   budget persists only its prefix (a torn write); puts and manifest
//!   commits that cross it fail *without* writing (they are atomic on
//!   real object stores, and the local store only puts uncommitted
//!   objects). All later mutations fail. Driven by a seeded RNG in the
//!   store fuzz test, this is "kill the process at a random byte".
//! * [`FaultPlan::FailAppendsMatching`] — after letting `allow` matching
//!   appends through, every append whose payload contains `needle`
//!   fails (un-torn). Because one fleet worker's appends carry its
//!   session's label, this kills *one worker of a shared campaign*
//!   mid-round while the rest of the fleet keeps committing.

use crate::backend::{lock_recover, CasConflict, Revision, StoreBackend};
use std::io;
use std::sync::{Arc, Mutex};

/// What kind of storage failure to inject. See the module docs.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Kill the write path after this many payload bytes.
    KillAtByte(u64),
    /// Fail appends containing `needle` after `allow` successful ones.
    FailAppendsMatching {
        /// Substring of the append payload that triggers the fault.
        needle: String,
        /// Matching appends allowed through before the fault arms.
        allow: usize,
    },
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Payload bytes successfully written so far (KillAtByte).
    written: u64,
    /// Matching appends seen so far (FailAppendsMatching).
    matched: usize,
    /// Once true, every mutation fails (the process is "dead").
    dead: bool,
}

/// The injected failure every faulted operation returns.
fn killed() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: storage writer killed")
}

/// A [`StoreBackend`] wrapper that injects write failures according to
/// a [`FaultPlan`]. Reads are never faulted.
pub struct FailingBackend {
    inner: Arc<dyn StoreBackend>,
    state: Mutex<FaultState>,
}

impl std::fmt::Debug for FailingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock_recover(&self.state);
        f.debug_struct("FailingBackend")
            .field("plan", &state.plan)
            .field("dead", &state.dead)
            .finish()
    }
}

impl FailingBackend {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn StoreBackend>, plan: FaultPlan) -> FailingBackend {
        FailingBackend {
            inner,
            state: Mutex::new(FaultState { plan, written: 0, matched: 0, dead: false }),
        }
    }

    /// Whether the fault has fired (the wrapped writer is "dead").
    pub fn tripped(&self) -> bool {
        lock_recover(&self.state).dead
    }

    /// Charges `len` payload bytes against a byte budget. Returns how
    /// many bytes of this operation may still be written (`len` = all,
    /// `0` = none), and marks the writer dead when the budget is hit.
    fn admit_bytes(&self, len: u64) -> u64 {
        let mut state = lock_recover(&self.state);
        if state.dead {
            return 0;
        }
        match state.plan {
            FaultPlan::KillAtByte(budget) => {
                if state.written + len <= budget {
                    state.written += len;
                    len
                } else {
                    let keep = budget.saturating_sub(state.written);
                    state.written = budget;
                    state.dead = true;
                    keep
                }
            }
            FaultPlan::FailAppendsMatching { .. } => len,
        }
    }
}

impl StoreBackend for FailingBackend {
    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.get(name)
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        // Puts are atomic: either the budget covers the whole object or
        // nothing is written.
        if self.admit_bytes(data.len() as u64) < data.len() as u64 {
            return Err(killed());
        }
        self.inner.put(name, data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        {
            let mut state = lock_recover(&self.state);
            if state.dead {
                return Err(killed());
            }
            if let FaultPlan::FailAppendsMatching { needle, allow } = &state.plan {
                if !needle.is_empty() && String::from_utf8_lossy(data).contains(needle.as_str()) {
                    let allow = *allow;
                    state.matched += 1;
                    if state.matched > allow {
                        // The owning worker is dead from here on; appends
                        // of other workers (no needle) keep passing.
                        return Err(killed());
                    }
                }
            }
        }
        let keep = self.admit_bytes(data.len() as u64);
        if keep == data.len() as u64 {
            return self.inner.append(name, data);
        }
        // The kill landed mid-append: persist the torn prefix, then fail
        // the call — exactly what the caller of a real torn write sees.
        if keep > 0 {
            self.inner.append(name, &data[..keep as usize])?;
        }
        Err(killed())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        if lock_recover(&self.state).dead {
            return Err(killed());
        }
        self.inner.sync(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        if lock_recover(&self.state).dead {
            return Err(killed());
        }
        self.inner.truncate(name, len)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        if lock_recover(&self.state).dead {
            return Err(killed());
        }
        self.inner.delete(name)
    }

    fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)> {
        self.inner.read_manifest()
    }

    fn commit_manifest(
        &self,
        data: &[u8],
        expected: Revision,
    ) -> io::Result<Result<Revision, CasConflict>> {
        // Manifest commits are atomic (rename or conditional put): the
        // budget either admits the whole revision or the commit fails
        // cleanly with the old manifest still installed.
        if self.admit_bytes(data.len() as u64) < data.len() as u64 {
            return Err(killed());
        }
        self.inner.commit_manifest(data, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ObjectStoreBackend;

    #[test]
    fn kill_at_byte_tears_the_crossing_append_and_kills_the_rest() {
        let inner = Arc::new(ObjectStoreBackend::default());
        let be = FailingBackend::new(inner.clone(), FaultPlan::KillAtByte(10));
        be.append("seg", b"12345").unwrap();
        assert!(!be.tripped());
        // This append crosses the 10-byte budget at its 6th byte.
        let err = be.append("seg", b"abcdefgh").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(be.tripped());
        assert_eq!(inner.get("seg").unwrap().unwrap(), b"12345abcde", "torn prefix persisted");
        // Everything after the kill fails without writing.
        assert!(be.append("seg", b"x").is_err());
        assert!(be.put("other", b"x").is_err());
        assert!(be.commit_manifest(b"m", 0).unwrap_err().kind() == io::ErrorKind::BrokenPipe);
        assert_eq!(inner.get("other").unwrap(), None);
        // Reads still pass through: recovery inspects the wreckage.
        assert!(be.get("seg").unwrap().is_some());
    }

    #[test]
    fn puts_and_commits_fail_atomically_at_the_budget() {
        let inner = Arc::new(ObjectStoreBackend::default());
        let be = FailingBackend::new(inner.clone(), FaultPlan::KillAtByte(4));
        let err = be.put("obj", b"123456").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(inner.get("obj").unwrap(), None, "no torn object from an atomic put");
    }

    #[test]
    fn matching_appends_fail_after_the_allowance() {
        let inner = Arc::new(ObjectStoreBackend::default());
        let be = FailingBackend::new(
            inner.clone(),
            FaultPlan::FailAppendsMatching { needle: "victim".into(), allow: 2 },
        );
        be.append("a", b"victim 1\n").unwrap();
        be.append("a", b"bystander\n").unwrap();
        be.append("a", b"victim 2\n").unwrap();
        assert!(be.append("a", b"victim 3\n").is_err(), "third match faults");
        assert!(be.append("a", b"bystander again\n").is_ok(), "other writers keep going");
        assert!(be.append("b", b"victim 4\n").is_err(), "the dead worker stays dead");
        assert_eq!(
            String::from_utf8(inner.get("a").unwrap().unwrap()).unwrap(),
            "victim 1\nbystander\nvictim 2\nbystander again\n"
        );
    }
}
