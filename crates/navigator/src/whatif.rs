//! What-if advising: a base exploration plus a *delta*, answered by
//! set-algebraic apply over the hash-consed path DAG instead of
//! re-exploration.
//!
//! The paper's headline scenario is interactive: a student (or advisor)
//! asks a question, looks at the answer, and immediately asks a variant —
//! "what if I avoid COSI 29A?", "what if every path has to go through
//! COSI 21A?", "what if I cap my workload at 20 hours?". Each variant
//! differs from the base by a constraint, yet a naive server re-explores
//! from scratch. [`WhatIfRequest`] names the base and the delta
//! explicitly, and [`NavigatorService::whatif_until`] answers it from
//! structure already built: the base exploration is materialized once into
//! a [`UniqueTable`] (and cached under its [`ExplorationRequest::dag_key`]),
//! then the delta is applied as `restrict` (added avoid / tightened
//! workload — `dag ∩ constraint`) and `through` (forced courses — keep
//! exactly the paths whose completed sets cover them) in time proportional
//! to the *shared* structure, typically milliseconds.
//!
//! Answers are **byte-identical** to re-running the merged request through
//! the ordinary explore path (`restrict` returns the exact node a fresh
//! constrained build would intern — property-tested in `tests/whatif.rs`),
//! so the serving layer caches a no-force what-if under the merged
//! request's ordinary cache key, shared with `/v1/explore`.

use std::ops::Deref;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::advise::TranscriptSpec;
use crate::apply::Restriction;
use crate::error::ExploreError;
use crate::memo::TranspositionTable;
use crate::request::{ExplorationRequest, OutputMode};
use crate::service::{ExplorationResponse, NavigatorService, ServiceError, API_VERSION};
use crate::unique::{DagBudget, DagBuildError, DagNodeId, UniqueTable};

/// The constraint delta of a what-if question, applied on top of the base
/// request's own constraints.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct WhatIfDelta {
    /// Additional courses to avoid ("what if I drop Y"), by code.
    #[serde(default)]
    pub avoid: Vec<String>,
    /// Courses every reported path must pass through ("what if I commit
    /// to Y"), by code. Forcing is a *path-set* operation, not a request
    /// parameter, so it requires `count` output and no paging.
    #[serde(default)]
    pub force: Vec<String>,
    /// A tightened per-semester workload cap; combined with the base
    /// request's own cap by minimum.
    #[serde(default)]
    pub max_semester_workload: Option<f64>,
}

impl WhatIfDelta {
    /// Whether the delta changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.avoid.is_empty() && self.force.is_empty() && self.max_semester_workload.is_none()
    }
}

/// One complete what-if request: the base exploration (optionally
/// personalized by a transcript, exactly as `/v1/advise` folds one) plus
/// the delta to apply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct WhatIfRequest {
    /// The base exploration the question varies.
    pub base: ExplorationRequest,
    /// Optional transcript; when present the base's start state is derived
    /// from it (start semester advances past the transcript, its courses
    /// join `completed`), mirroring [`crate::AdviseRequest::to_exploration`].
    #[serde(default)]
    pub transcript: Option<TranscriptSpec>,
    /// The constraint delta.
    #[serde(default)]
    pub delta: WhatIfDelta,
}

impl WhatIfRequest {
    /// A what-if over a bare base request with an empty delta.
    pub fn new(base: ExplorationRequest) -> WhatIfRequest {
        WhatIfRequest {
            base,
            transcript: None,
            delta: WhatIfDelta::default(),
        }
    }

    /// The base exploration with the transcript folded in (delta *not*
    /// applied): this is the frame whose path DAG gets built and cached.
    pub fn base_exploration(&self) -> ExplorationRequest {
        let mut req = self.base.clone();
        if let Some(t) = &self.transcript {
            req.start_semester = t.next_semester();
            req.completed.extend(t.completed_codes());
        }
        req.canonicalize()
    }

    /// The fully merged request: base, transcript, and delta folded into
    /// one plain [`ExplorationRequest`]. A no-force what-if is *defined*
    /// to answer exactly what this request answers through the ordinary
    /// explore path; forced courses have no request-level equivalent.
    pub fn merged_request(&self) -> ExplorationRequest {
        let mut req = self.base_exploration();
        req.avoid.extend(self.delta.avoid.iter().cloned());
        req.max_semester_workload =
            match (req.max_semester_workload, self.delta.max_semester_workload) {
                (Some(base), Some(delta)) => Some(base.min(delta)),
                (base, delta) => base.or(delta),
            };
        req.canonicalize()
    }

    /// Deterministic cache key. A what-if without forced courses is
    /// byte-identical to exploring the merged request, so it *shares* the
    /// merged request's key (and therefore its cached answers and
    /// singleflight) with `/v1/explore`; forced courses change the answer
    /// shape-compatibly but not value-compatibly, so they get their own
    /// namespace.
    pub fn cache_key(&self) -> String {
        let merged = self.merged_request();
        if self.delta.force.is_empty() {
            merged.cache_key()
        } else {
            let mut force = self.delta.force.clone();
            force.sort();
            force.dedup();
            format!(
                "whatif-force\n{}\n{}",
                force.join("\u{1f}"),
                merged.cache_key()
            )
        }
    }

    /// The transposition-table sharing key of the merged request (used by
    /// the explore fallback path).
    pub fn memo_key(&self) -> String {
        self.merged_request().memo_key()
    }

    /// The tenant the request addresses, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.base.tenant.as_deref()
    }

    /// Serving-layer degradation clamp; same semantics as
    /// [`ExplorationRequest::apply_degradation`].
    pub fn apply_degradation(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.base.apply_degradation(budget_cap_ms, page_cap);
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<WhatIfRequest> {
        serde_json::from_str(json)
    }
}

/// How a what-if answer was produced, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum WhatIfServed {
    /// Set-algebraic apply over the (possibly cached) base path DAG.
    Applied,
    /// Ordinary exploration of the merged request (non-count output, or
    /// the deadline expired before the base DAG finished building).
    Explored,
}

/// A serviced what-if: the ordinary exploration response plus how it was
/// computed.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    /// The answer, byte-identical to exploring the merged request (for
    /// no-force deltas).
    pub response: ExplorationResponse,
    /// Which engine path produced it.
    pub served: WhatIfServed,
}

impl NavigatorService<'_> {
    /// Services a what-if end to end.
    ///
    /// Count output without paging is the apply fast path: the base DAG is
    /// looked up in `unique` by [`ExplorationRequest::dag_key`] (built and
    /// cached on miss), the delta is applied as `restrict` + `through`,
    /// and the counts and statistics are read off the resulting node in
    /// O(1). Every other output mode (and paged counts) is serviced by
    /// exploring the merged request through [`NavigatorService::run_until_memo`]
    /// — same answer, ordinary cost — except forced courses, which cannot
    /// be expressed as a request and therefore *require* the fast path
    /// (unpaged count output).
    ///
    /// `unique == None` uses a request-local table, exactly as the advise
    /// path uses a request-local transposition table: the uniform code
    /// path stays, sharing is what the serving layer adds.
    ///
    /// Errors: a base DAG that outgrows the table's capacity surfaces as
    /// [`ExploreError::BudgetExceeded`] (wire code `state-budget`,
    /// retryable); forced courses with incompatible output as
    /// [`ExploreError::InvalidRequest`].
    pub fn whatif_until(
        &self,
        req: &WhatIfRequest,
        deadline: Option<Instant>,
        parallelism: usize,
        memo: Option<&TranspositionTable>,
        unique: Option<&UniqueTable>,
    ) -> Result<WhatIfOutcome, ServiceError> {
        self.whatif_until_lazy(req, deadline, parallelism, || memo, unique)
    }

    /// [`NavigatorService::whatif_until`] with the transposition table
    /// fetched by `memo` only when the what-if explores. An applied
    /// answer never reads a transposition table, so a caller that keys
    /// and registers tables per request pays nothing for it.
    pub fn whatif_until_lazy<M: Deref<Target = TranspositionTable>>(
        &self,
        req: &WhatIfRequest,
        deadline: Option<Instant>,
        parallelism: usize,
        memo: impl FnOnce() -> Option<M>,
        unique: Option<&UniqueTable>,
    ) -> Result<WhatIfOutcome, ServiceError> {
        let t0 = Instant::now();
        let merged = req.merged_request();
        // Resolve the delta up front so validation errors are identical
        // whether or not the fast path runs.
        let avoid = self.resolve_codes(&req.delta.avoid)?;
        let force = self.resolve_codes(&req.delta.force)?;
        let forced = !force.is_empty();
        let unpaged_count = merged.output == OutputMode::Count
            && merged.page_size.is_none()
            && merged.cursor.is_none();
        if forced && !unpaged_count {
            return Err(ServiceError::Explore(ExploreError::InvalidRequest(
                "forced courses require count output without paging".into(),
            )));
        }
        if !unpaged_count {
            let response =
                self.run_until_memo(&merged, deadline, parallelism, memo().as_deref())?;
            return Ok(WhatIfOutcome {
                response,
                served: WhatIfServed::Explored,
            });
        }

        let local;
        let table = match unique {
            Some(table) => table,
            None => {
                local = UniqueTable::new(0);
                &local
            }
        };
        let base = req.base_exploration();
        let root = match self.base_root(&base, table, deadline)? {
            Some(root) => root,
            None => {
                // Deadline expired mid-build: nothing partial is cached,
                // and the ordinary explore path owns truncation semantics.
                let response =
                    self.run_until_memo(&merged, deadline, parallelism, memo().as_deref())?;
                return Ok(WhatIfOutcome {
                    response,
                    served: WhatIfServed::Explored,
                });
            }
        };
        let restriction = Restriction {
            avoid,
            max_workload: req.delta.max_semester_workload,
        };
        // The counting fold of restrict∘through: same numbers as
        // materializing both applies, but provably-untouched subtrees are
        // answered from their stored summaries without being walked.
        let completed = self.resolve_codes(&base.completed)?;
        let (total_paths, goal_paths, stats) =
            table.whatif_counts(root, self.catalog(), &restriction, &force, &completed);
        Ok(WhatIfOutcome {
            response: ExplorationResponse::Counts {
                api_version: API_VERSION,
                total_paths,
                goal_paths,
                stats,
                truncated: false,
                next_cursor: None,
                millis: t0.elapsed().as_millis(),
            },
            served: WhatIfServed::Applied,
        })
    }

    /// The base DAG root for `base`, from the table's root cache or by
    /// building it. `Ok(None)` means the deadline expired mid-build.
    fn base_root(
        &self,
        base: &ExplorationRequest,
        table: &UniqueTable,
        deadline: Option<Instant>,
    ) -> Result<Option<DagNodeId>, ServiceError> {
        let frame_key = base.dag_key();
        if let Some(root) = table.root_for(&frame_key) {
            return Ok(Some(root));
        }
        let explorer = self.build_explorer(base)?;
        let budget = if table.capacity() > 0 {
            DagBudget::Materialized(table.capacity())
        } else {
            DagBudget::Unlimited
        };
        match explorer.build_path_dag(table, budget, deadline) {
            Ok(build) => {
                table.store_root(frame_key, build.root);
                Ok(Some(build.root))
            }
            Err(DagBuildError::Budget { node_budget }) => {
                Err(ServiceError::Explore(ExploreError::BudgetExceeded {
                    node_budget,
                }))
            }
            Err(DagBuildError::Deadline) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    fn synth() -> SyntheticCatalog {
        SyntheticCatalog::generate(&SyntheticConfig::small())
    }

    fn base_request(s: &SyntheticCatalog) -> ExplorationRequest {
        ExplorationRequest::deadline_count(s.start, s.start + 4, 2)
    }

    fn masked(resp: &ExplorationResponse) -> String {
        let mut v = serde_json::to_value(resp);
        if let serde_json::Value::Object(entries) = &mut v {
            for (_, value) in entries.iter_mut() {
                if let serde_json::Value::Object(inner) = value {
                    inner.retain(|(k, _)| k != "millis");
                }
            }
        }
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn merged_request_folds_transcript_and_delta() {
        let s = synth();
        let codes: Vec<String> = s
            .catalog
            .courses()
            .take(2)
            .map(|c| c.code().to_string())
            .collect();
        let mut req = WhatIfRequest::new(base_request(&s));
        req.transcript = Some(TranscriptSpec {
            start: s.start,
            selections: vec![vec![codes[0].clone()]],
        });
        req.delta.avoid = vec![codes[1].clone()];
        req.delta.max_semester_workload = Some(18.0);
        req.base.max_semester_workload = Some(25.0);
        let merged = req.merged_request();
        assert_eq!(merged.start_semester, s.start + 1);
        assert!(merged.completed.contains(&codes[0]));
        assert!(merged.avoid.contains(&codes[1]));
        assert_eq!(merged.max_semester_workload, Some(18.0));
    }

    #[test]
    fn no_force_shares_the_explore_cache_key() {
        let s = synth();
        let mut req = WhatIfRequest::new(base_request(&s));
        assert_eq!(req.cache_key(), req.merged_request().cache_key());
        req.delta.force = vec![s.catalog.courses().next().unwrap().code().to_string()];
        assert_ne!(req.cache_key(), req.merged_request().cache_key());
        assert!(req.cache_key().starts_with("whatif-force\n"));
    }

    #[test]
    fn whatif_answers_match_merged_exploration() {
        let s = synth();
        let service = NavigatorService::new(&s.catalog);
        let avoid = s.catalog.courses().next().unwrap().code().to_string();
        let mut req = WhatIfRequest::new(base_request(&s));
        req.delta.avoid = vec![avoid];
        let outcome = service.whatif_until(&req, None, 1, None, None).unwrap();
        assert_eq!(outcome.served, WhatIfServed::Applied);
        let brute = service.run(&req.merged_request()).unwrap();
        assert_eq!(masked(&outcome.response), masked(&brute));
    }

    #[test]
    fn warm_table_reuses_the_base_root() {
        let s = synth();
        let service = NavigatorService::new(&s.catalog);
        let table = UniqueTable::new(0);
        let codes: Vec<String> = s
            .catalog
            .courses()
            .take(2)
            .map(|c| c.code().to_string())
            .collect();
        let mut first = WhatIfRequest::new(base_request(&s));
        first.delta.avoid = vec![codes[0].clone()];
        let mut second = WhatIfRequest::new(base_request(&s));
        second.delta.avoid = vec![codes[1].clone()];
        service
            .whatif_until(&first, None, 1, None, Some(&table))
            .unwrap();
        let cold = table.snapshot();
        assert_eq!(cold.root_misses, 1);
        service
            .whatif_until(&second, None, 1, None, Some(&table))
            .unwrap();
        let warm = table.snapshot();
        assert_eq!(warm.root_hits, 1, "second delta reused the base DAG");
        assert_eq!(warm.root_misses, 1);
    }

    #[test]
    fn forced_courses_require_unpaged_count_output() {
        let s = synth();
        let service = NavigatorService::new(&s.catalog);
        let code = s.catalog.courses().next().unwrap().code().to_string();
        let mut req = WhatIfRequest::new(base_request(&s));
        req.delta.force = vec![code.clone()];
        req.base.output = OutputMode::Collect { limit: 5 };
        let err = service.whatif_until(&req, None, 1, None, None).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Explore(ExploreError::InvalidRequest(_))
        ));
        let mut req = WhatIfRequest::new(base_request(&s));
        req.delta.force = vec![code];
        req.base.page_size = Some(10);
        assert!(service.whatif_until(&req, None, 1, None, None).is_err());
    }

    #[test]
    fn unknown_delta_codes_error_like_the_explore_path() {
        let s = synth();
        let service = NavigatorService::new(&s.catalog);
        let mut req = WhatIfRequest::new(base_request(&s));
        req.delta.force = vec!["GHOST 1".into()];
        assert_eq!(
            service.whatif_until(&req, None, 1, None, None).unwrap_err(),
            ServiceError::UnknownCourse("GHOST 1".into())
        );
    }

    #[test]
    fn table_capacity_overflow_is_a_typed_state_budget_error() {
        let s = synth();
        let service = NavigatorService::new(&s.catalog);
        let table = UniqueTable::new(3);
        let req = WhatIfRequest::new(base_request(&s));
        let err = service
            .whatif_until(&req, None, 1, None, Some(&table))
            .unwrap_err();
        assert_eq!(err.code(), "state-budget");
        assert!(err.retryable());
    }

    #[test]
    fn non_count_output_explores_the_merged_request() {
        let s = synth();
        let service = NavigatorService::new(&s.catalog);
        let mut req = WhatIfRequest::new(base_request(&s));
        req.base.output = OutputMode::Collect { limit: 3 };
        let outcome = service.whatif_until(&req, None, 1, None, None).unwrap();
        assert_eq!(outcome.served, WhatIfServed::Explored);
        let brute = service.run(&req.merged_request()).unwrap();
        assert_eq!(masked(&outcome.response), masked(&brute));
    }
}
