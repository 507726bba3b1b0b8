//! Warm-start transfer: matching a new session against the store's past
//! campaigns by workload fingerprint and harvesting their best points.
//!
//! The transfer direction follows λ-Tune and L2T-Tune layered on a
//! LlamaTune-style space: a probe run fingerprints the new workload
//! (`llamatune_workloads::workload_fingerprint`), the store finds the
//! most similar *finished* session by cosine distance, and that
//! session's top-scoring optimizer-space points seed the new session's
//! first *k* trials in place of random/LHS initialization.
//!
//! Points are transferred in *optimizer space*, so the receiving session
//! must decode them through an equivalent adapter — identical kind,
//! hyperparameters, and projection seed. Callers enforce that with the
//! [`TrialStore::nearest_session_where`] filter over the structured
//! [`SessionMeta::adapter`] identity the campaign driver records.

use crate::record::SessionMeta;
use crate::store::TrialStore;

/// Cosine distance `1 - cos(a, b)` in `[0, 2]`; `0` means identical
/// direction. Mismatched lengths and zero vectors are maximally distant
/// (they carry no evidence of similarity).
pub(crate) fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.is_empty() {
        return 2.0;
    }
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 2.0;
    }
    1.0 - dot / (na * nb)
}

/// A fingerprint match against a stored session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMatch {
    /// Matched session label.
    pub session: String,
    /// Workload the matched session tuned.
    pub workload: String,
    /// Cosine distance between the fingerprints (lower is closer).
    pub distance: f64,
}

impl TrialStore {
    /// The stored session whose fingerprint is closest to `fingerprint`,
    /// among sessions accepted by `filter` (ties break toward the
    /// lexicographically first label, so matching is deterministic).
    /// Sessions without a recorded fingerprint never match.
    pub fn nearest_session_where(
        &self,
        fingerprint: &[f64],
        filter: impl Fn(&SessionMeta) -> bool,
    ) -> Option<SessionMatch> {
        let mut best: Option<SessionMatch> = None;
        for label in self.sessions() {
            let Some(meta) = self.session_meta(&label) else { continue };
            if meta.fingerprint.is_empty() || !filter(&meta) {
                continue;
            }
            let distance = cosine_distance(fingerprint, &meta.fingerprint);
            if best.as_ref().is_none_or(|b| distance < b.distance) {
                best = Some(SessionMatch { session: label, workload: meta.workload, distance });
            }
        }
        best
    }

    /// The top-`k` optimizer-space points of a stored session, ordered
    /// by penalized score (best first) and deduplicated by *decoded
    /// configuration* — LlamaTune's bucketization collapses many points
    /// onto one configuration, and transferring the "same" top config
    /// five times would waste the very init budget transfer is meant to
    /// save. Iteration 0 and crashed trials are excluded (the default
    /// config is free, and a config that crashed a similar workload is
    /// a liability, not knowledge).
    pub fn top_points(&self, session: &str, k: usize) -> Vec<Vec<f64>> {
        let mut trials = self.trials_for(session);
        trials.retain(|t| t.iteration > 0 && t.raw_score.is_some() && !t.point.is_empty());
        // Stable ordering: score descending, iteration ascending on ties.
        trials.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(k);
        for t in trials {
            let mut key = String::new();
            crate::record::write_config(&mut key, &t.config);
            if seen.insert(key) {
                out.push(t.point);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Convenience: the top-`k` points of the nearest finished session
    /// within `max_distance`, or empty when nothing similar is stored.
    pub fn warm_points(
        &self,
        fingerprint: &[f64],
        k: usize,
        max_distance: f64,
        filter: impl Fn(&SessionMeta) -> bool,
    ) -> Vec<Vec<f64>> {
        match self.nearest_session_where(fingerprint, filter) {
            Some(m) if m.distance <= max_distance => self.top_points(&m.session, k),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SessionStatus, StoredTrial};
    use llamatune_space::KnobValue;

    fn tmp_store(tag: &str) -> TrialStore {
        let dir = std::env::temp_dir()
            .join("llamatune_store_transfer")
            .join(format!("{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TrialStore::open(dir).unwrap()
    }

    fn meta(session: &str, workload: &str, fp: Vec<f64>) -> SessionMeta {
        SessionMeta {
            session: session.to_string(),
            workload: workload.to_string(),
            adapter: "identity/s1".to_string(),
            status: SessionStatus::Done,
            stopped_at: None,
            fingerprint: fp,
            warm_points: vec![],
            lease: None,
        }
    }

    fn trial(session: &str, iteration: usize, score: f64, crashed: bool) -> StoredTrial {
        StoredTrial {
            session: session.to_string(),
            iteration,
            raw_score: if crashed { None } else { Some(score) },
            score,
            point: if iteration == 0 { vec![] } else { vec![iteration as f64 / 10.0, 0.5] },
            config: vec![KnobValue::Int(iteration as i64)],
            metrics: vec![],
            status: llamatune::session::TrialStatus::derived(if crashed {
                None
            } else {
                Some(score)
            }),
            attempts: 1,
        }
    }

    #[test]
    fn cosine_distance_basics() {
        assert!(cosine_distance(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-12);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-12);
        assert_eq!(cosine_distance(&[1.0], &[1.0, 0.0]), 2.0, "length mismatch");
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 2.0, "zero vector");
        assert_eq!(cosine_distance(&[], &[]), 2.0);
    }

    #[test]
    fn nearest_session_matches_by_fingerprint_and_filter() {
        let store = tmp_store("nearest");
        store.append_session(&meta("a/x/s1", "a", vec![1.0, 0.0])).unwrap();
        store.append_session(&meta("b/x/s1", "b", vec![0.8, 0.6])).unwrap();
        store.append_session(&meta("c/x/s1", "c", vec![0.0, 1.0])).unwrap();
        let probe = [0.9, 0.1];
        let m = store.nearest_session_where(&probe, |_| true).unwrap();
        assert_eq!(m.session, "a/x/s1");
        assert!(m.distance < 0.01);
        // Filtering out the closest falls through to the next closest.
        let m = store.nearest_session_where(&probe, |meta| meta.workload != "a").unwrap();
        assert_eq!(m.session, "b/x/s1");
        // No candidate at all.
        assert!(store.nearest_session_where(&probe, |_| false).is_none());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn sessions_without_fingerprints_never_match() {
        let store = tmp_store("nofp");
        store.append_session(&meta("a/x/s1", "a", vec![])).unwrap();
        assert!(store.nearest_session_where(&[1.0, 0.0], |_| true).is_none());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn top_points_rank_dedup_and_exclude_crashes_and_default() {
        let store = tmp_store("top");
        let s = "a/x/s1";
        store.append_trial(&trial(s, 0, 100.0, false)).unwrap(); // default: excluded
        store.append_trial(&trial(s, 1, 5.0, false)).unwrap();
        store.append_trial(&trial(s, 2, 50.0, true)).unwrap(); // crashed: excluded
        store.append_trial(&trial(s, 3, 9.0, false)).unwrap();
        store.append_trial(&trial(s, 4, 7.0, false)).unwrap();
        // A lower-scoring trial whose point differs but whose *decoded
        // config* duplicates iteration 3's (bucketization collapse).
        let mut dup = trial(s, 5, 1.0, false);
        dup.config = trial(s, 3, 0.0, false).config;
        store.append_trial(&dup).unwrap();
        let top = store.top_points(s, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], vec![0.3, 0.5], "iteration 3 scored highest");
        assert_eq!(top[1], vec![0.4, 0.5], "iteration 4 next; duplicate config skipped");
        let all = store.top_points(s, 10);
        assert_eq!(all.len(), 3, "three distinct non-crashed configurations");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn warm_points_respect_the_distance_threshold() {
        let store = tmp_store("warm");
        store.append_session(&meta("a/x/s1", "a", vec![0.0, 1.0])).unwrap();
        store.append_trial(&trial("a/x/s1", 0, 1.0, false)).unwrap();
        store.append_trial(&trial("a/x/s1", 1, 5.0, false)).unwrap();
        let near = [0.1, 0.995];
        let far = [1.0, 0.0];
        assert_eq!(store.warm_points(&near, 3, 0.25, |_| true).len(), 1);
        assert!(store.warm_points(&far, 3, 0.25, |_| true).is_empty());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
