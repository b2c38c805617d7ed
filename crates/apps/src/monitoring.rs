//! Network monitoring: globally popular URLs across monitored locations.
//!
//! "Consider a network monitoring application that monitors the activities
//! of the users of some specified IP locations … For each location, the
//! application maintains a list of the accessed URLs ranked by their
//! frequency of access. In this application, an interesting query for the
//! network administrator is: what are the top-k popular URLs?" (Section 8)
//!
//! Every mutation this module applies is announced to the standing
//! queries through `ingest`/`ingest_update` in **epoch order** with no
//! gaps — epoch continuity is the contract that keeps the incremental
//! top-k caches equal to a from-scratch recomputation.

use std::collections::HashMap;

use topk_core::batch::QueryBatch;
use topk_core::planner::{plan_and_run, Plan};
use topk_core::standing::{AbsorbedBreakdown, IngestOutcome, StandingQuery, UpdateEvent};
use topk_core::{
    run_on_degraded, AlgorithmKind, DatabaseStats, ScoreInterval, Sum, TopKError, TopKQuery,
};
use topk_distributed::{ClusterRuntime, LatencyModel, NetworkStats};
use topk_lists::{Database, ItemId, Score, SortedList, SourceErrorKind, Sources, TrackerKind};
use topk_pool::ThreadPool;

use crate::interner::KeyInterner;
use crate::{AppError, AppResult, RankedAnswer};

/// Per-location URL access counters, queried for the globally most popular
/// URLs.
///
/// Each monitored location contributes one sorted list (URLs ranked by
/// access frequency at that location); the overall popularity of a URL is
/// the sum of its per-location frequencies. URLs never observed at a
/// location have frequency 0 there.
#[derive(Debug, Clone, Default)]
pub struct MonitoringSystem {
    urls: KeyInterner,
    locations: Vec<String>,
    /// location index -> (url id -> access count)
    counts: Vec<HashMap<u64, u64>>,
    standing: Option<StandingState>,
}

/// The long-lived serving state behind standing queries: one database of
/// the counts (mutated in place as updates arrive, and sampled for planner
/// statistics), and the registered queries with their cached answers.
#[derive(Debug, Clone)]
struct StandingState {
    database: Database,
    stats: DatabaseStats,
    queries: Vec<StandingQuery>,
}

/// How the registered standing queries classified one ingested update —
/// returned by [`MonitoringSystem::ingest_update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Queries that absorbed the update: their cached answer provably
    /// still holds and was revalidated without executing anything.
    pub absorbed: usize,
    /// Queries whose cached answer may have changed: their next read
    /// re-executes the planner-chosen algorithm.
    pub pending_refresh: usize,
}

/// Serving telemetry for one standing query — returned by
/// [`MonitoringSystem::standing_telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StandingTelemetry {
    /// Reads served straight from the cache (zero list accesses).
    pub cache_hits: u64,
    /// Updates absorbed without any execution (all kinds combined,
    /// `absorbed.total()`).
    pub absorbed_updates: u64,
    /// The absorbed updates broken down by update kind.
    pub absorbed: AbsorbedBreakdown,
    /// Full re-executions performed.
    pub refreshes: u64,
}

impl MonitoringSystem {
    /// Creates a monitoring system with no locations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a monitored location and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if standing queries are enabled: the per-location lists are
    /// already deployed, and a new list would invalidate every
    /// certificate. Register all locations first.
    pub fn add_location(&mut self, name: &str) -> usize {
        assert!(
            self.standing.is_none(),
            "register all locations before enabling standing queries"
        );
        self.locations.push(name.to_owned());
        self.counts.push(HashMap::new());
        self.locations.len() - 1
    }

    /// Records `hits` accesses to `url` observed at the location with the
    /// given index. With standing queries enabled this is
    /// [`ingest_update`](MonitoringSystem::ingest_update) (the report is
    /// discarded), so the deployed lists never drift from the counts.
    ///
    /// # Panics
    ///
    /// Panics if `location` has not been registered.
    pub fn record(&mut self, location: usize, url: &str, hits: u64) {
        self.ingest_update(location, url, hits);
    }

    /// Number of registered locations.
    pub fn num_locations(&self) -> usize {
        self.locations.len()
    }

    /// Number of distinct URLs observed anywhere.
    pub fn num_urls(&self) -> usize {
        self.urls.len()
    }

    /// Names of the registered locations.
    pub fn locations(&self) -> &[String] {
        &self.locations
    }

    fn database(&self) -> Result<Database, AppError> {
        if self.urls.is_empty() || self.locations.is_empty() {
            return Err(AppError::Empty);
        }
        let mut lists = Vec::with_capacity(self.locations.len());
        for counts in &self.counts {
            let pairs: Vec<(ItemId, f64)> = (0..self.urls.len() as u64)
                .map(|url| (ItemId(url), counts.get(&url).copied().unwrap_or(0) as f64))
                .collect();
            lists.push(SortedList::from_unsorted(pairs).map_err(topk_core::TopKError::from)?);
        }
        Ok(Database::new(lists).map_err(topk_core::TopKError::from)?)
    }

    /// The `k` most popular URLs over all locations (sum of per-location
    /// access counts).
    pub fn top_k_urls(
        &self,
        k: usize,
        algorithm: AlgorithmKind,
    ) -> Result<AppResult<String>, AppError> {
        let db = self.database()?;
        let result = algorithm.create().run(&db, &TopKQuery::new(k, Sum))?;
        Ok(self.to_app_result(result, algorithm))
    }

    /// The `k` most popular URLs over all locations, with the cost-based
    /// planner choosing the algorithm from the per-location frequency
    /// statistics (location lists are naturally skewed and partially
    /// correlated, which is exactly what the planner samples for). The
    /// returned [`Plan`] says what was chosen and why.
    pub fn top_k_urls_planned(&self, k: usize) -> Result<(AppResult<String>, Plan), AppError> {
        let db = self.database()?;
        let (plan, result) = plan_and_run(&db, &TopKQuery::new(k, Sum))?;
        let choice = plan.choice();
        Ok((self.to_app_result(result, choice), plan))
    }

    /// Answers many top-k-URLs queries **concurrently** on a shared
    /// work-stealing pool: the per-location lists are built once,
    /// statistics are sampled once, and every `k` of `ks` becomes one
    /// query of a `QueryBatch` (one pool job, over its own in-memory view)
    /// with the cost-based planner choosing its algorithm. This is the
    /// serving shape of a monitoring dashboard: one widget per `k` (or per
    /// standing query), all refreshed against one physical copy of the
    /// counts.
    ///
    /// Results come back in `ks` order with their plans; answers and
    /// access counts are identical to issuing each query alone, whatever
    /// the pool's thread count.
    pub fn top_k_urls_batch(
        &self,
        ks: &[usize],
        pool: &ThreadPool,
    ) -> Result<Vec<(AppResult<String>, Plan)>, AppError> {
        let db = self.database()?;
        let stats = DatabaseStats::collect(&db);
        let batch: QueryBatch = ks.iter().map(|&k| TopKQuery::new(k, Sum)).collect();
        let outcomes = batch.run_planned(pool, &stats, || Sources::in_memory(&db))?;
        Ok(outcomes
            .into_iter()
            .map(|(plan, result)| {
                let choice = plan.choice();
                (self.to_app_result(result, choice), plan)
            })
            .collect())
    }

    /// Deploys the current counts as a **live, updatable** database and
    /// starts serving standing queries from it. Unlike the snapshot entry
    /// points ([`top_k_urls`](MonitoringSystem::top_k_urls) and friends, which
    /// rebuild the lists per call), this copy is mutated in place by
    /// every subsequent [`ingest_update`](MonitoringSystem::ingest_update)
    /// / [`record`](MonitoringSystem::record), and registered queries
    /// ([`register_standing_query`](MonitoringSystem::register_standing_query))
    /// keep serving cached answers from it for as long as the updates
    /// provably cannot change them.
    ///
    /// Calling it again redeploys from the current counts and drops any
    /// registered queries.
    pub fn enable_standing_queries(&mut self) -> Result<(), AppError> {
        let database = self.database()?;
        let stats = DatabaseStats::collect(&database);
        self.standing = Some(StandingState {
            database,
            stats,
            queries: Vec::new(),
        });
        Ok(())
    }

    /// Whether
    /// [`enable_standing_queries`](MonitoringSystem::enable_standing_queries)
    /// has been called.
    pub fn standing_enabled(&self) -> bool {
        self.standing.is_some()
    }

    /// Registers a standing top-k-URLs query and returns its handle. The
    /// query is answered eagerly (planner-chosen algorithm), so the first
    /// [`standing_answer`](MonitoringSystem::standing_answer) is already
    /// a cache hit.
    pub fn register_standing_query(&mut self, k: usize) -> Result<usize, AppError> {
        let state = self.standing.as_mut().ok_or(AppError::StandingDisabled)?;
        state.stats.ensure_fresh(&state.database);
        let mut query = StandingQuery::new(TopKQuery::new(k, Sum));
        query.refresh(&mut Sources::in_memory(&state.database), &state.stats)?;
        state.queries.push(query);
        Ok(state.queries.len() - 1)
    }

    /// Records `hits` accesses to `url` at a location and pushes the
    /// mutation through the live lists and every registered
    /// standing query. A never-seen URL becomes an insert (frequency 0 at
    /// the other locations); a known one becomes a score update in the
    /// location's list. The report says how many queries absorbed the
    /// update and how many will refresh on their next read.
    ///
    /// Without standing queries enabled this only bumps the counts (an
    /// empty report).
    ///
    /// # Panics
    ///
    /// Panics if `location` has not been registered.
    pub fn ingest_update(&mut self, location: usize, url: &str, hits: u64) -> IngestReport {
        assert!(
            location < self.locations.len(),
            "location index {location} has not been registered"
        );
        let known_urls = self.urls.len();
        let id = self.urls.intern(url);
        let count = self.counts[location].entry(id.0).or_insert(0);
        *count += hits;
        let new_total = *count as f64;

        let Some(state) = self.standing.as_mut() else {
            return IngestReport::default();
        };
        let item = ItemId(id.0);
        // Every interned URL is deployed, so only a freshly interned one is
        // missing from the live lists.
        let event = if id.0 as usize == known_urls {
            let scores: Vec<f64> = (0..self.locations.len())
                .map(|l| if l == location { new_total } else { 0.0 })
                .collect();
            state
                .database
                .insert_item(item, &scores)
                .expect("counts are finite and the URL id is new");
            UpdateEvent::Insert {
                item,
                scores: scores.iter().map(|&s| Score::from_f64(s)).collect(),
                epochs: state.database.epochs(),
            }
        } else {
            let update = state
                .database
                .update_score(location, item, new_total)
                .expect("counts are finite and the URL is present");
            UpdateEvent::Score {
                list: location,
                update,
            }
        };

        let mut report = IngestReport::default();
        for query in &mut state.queries {
            match query.ingest(&event) {
                IngestOutcome::Absorbed => report.absorbed += 1,
                IngestOutcome::NeedsRefresh(_) => report.pending_refresh += 1,
            }
        }
        report
    }

    /// The current answer of a registered standing query: straight from
    /// its cache when the absorbed updates left it provably valid (zero
    /// list accesses), via a fresh planner-chosen execution on the live
    /// lists otherwise.
    pub fn standing_answer(&mut self, handle: usize) -> Result<AppResult<String>, AppError> {
        let (result, algorithm) = {
            let state = self.standing.as_mut().ok_or(AppError::StandingDisabled)?;
            let needs_refresh = state
                .queries
                .get(handle)
                .ok_or(AppError::UnknownHandle(handle))?
                .needs_refresh(&state.database.epochs());
            if needs_refresh {
                state.stats.ensure_fresh(&state.database);
            }
            let mut sources = Sources::in_memory(&state.database);
            let query = &mut state.queries[handle];
            let result = query.serve(&mut sources, &state.stats)?.clone();
            let algorithm = query.algorithm().expect("the query was just served");
            (result, algorithm)
        };
        Ok(self.to_app_result(result, algorithm))
    }

    /// The top `k'` (`1 ≤ k' ≤ k`) of a standing query, read from its
    /// cache without any execution — the top-`k'` answer is exactly the
    /// first `k'` entries of the cached top-k. `Ok(None)` when the cache
    /// is pending a refresh (call
    /// [`standing_answer`](MonitoringSystem::standing_answer)) or `k'` is
    /// out of range.
    pub fn standing_prefix(
        &self,
        handle: usize,
        k: usize,
    ) -> Result<Option<Vec<RankedAnswer<String>>>, AppError> {
        let state = self.standing.as_ref().ok_or(AppError::StandingDisabled)?;
        let query = state
            .queries
            .get(handle)
            .ok_or(AppError::UnknownHandle(handle))?;
        Ok(query.prefix(k).map(|items| {
            items
                .iter()
                .map(|r| RankedAnswer {
                    key: self
                        .urls
                        .resolve(r.item)
                        .expect("result items come from the interned URL set")
                        .to_owned(),
                    score: r.score.value(),
                })
                .collect()
        }))
    }

    /// Serving telemetry for one standing query.
    pub fn standing_telemetry(&self, handle: usize) -> Result<StandingTelemetry, AppError> {
        let state = self.standing.as_ref().ok_or(AppError::StandingDisabled)?;
        let query = state
            .queries
            .get(handle)
            .ok_or(AppError::UnknownHandle(handle))?;
        Ok(StandingTelemetry {
            cache_hits: query.cache_hits(),
            absorbed_updates: query.absorbed_updates(),
            absorbed: query.absorbed_breakdown(),
            refreshes: query.refreshes(),
        })
    }

    /// Deploys the per-location lists onto the async message-passing
    /// runtime — the literal setting of Section 8, where every monitored
    /// IP location keeps its URL ranking locally and the administrator's
    /// query originator reaches it only by messages (one worker thread
    /// per location).
    ///
    /// The deployment is a snapshot of the current counts; spawn it once
    /// and issue any number of [`MonitoringDeployment::top_k_urls`]
    /// queries against it (each opens a cheap isolated session — the
    /// worker threads are reused). Counts recorded after `deploy` are not
    /// visible to it; redeploy to pick them up.
    ///
    /// # Panics
    ///
    /// Panics if the latency model does not price exactly one link per
    /// registered location (build it with
    /// [`MonitoringSystem::num_locations`] links).
    pub fn deploy(&self, latency: LatencyModel) -> Result<MonitoringDeployment<'_>, AppError> {
        self.deploy_replicated(latency, 1)
    }

    /// As [`MonitoringSystem::deploy`], hosting every location's list on
    /// `replicas` identical workers: when a worker dies mid-query, the
    /// session fails over to the next replica and the answer stays exact.
    /// Only when *every* replica of a location is gone does
    /// [`MonitoringDeployment::top_k_urls_resilient`] fall back to a
    /// certified degraded answer.
    pub fn deploy_replicated(
        &self,
        latency: LatencyModel,
        replicas: usize,
    ) -> Result<MonitoringDeployment<'_>, AppError> {
        let db = self.database()?;
        Ok(MonitoringDeployment {
            system: self,
            runtime: ClusterRuntime::with_latency_replicated(
                &db,
                TrackerKind::BitArray,
                latency,
                replicas,
            ),
        })
    }

    fn to_app_result(
        &self,
        result: topk_core::TopKResult,
        algorithm: AlgorithmKind,
    ) -> AppResult<String> {
        let answers = result
            .items()
            .iter()
            .map(|r| RankedAnswer {
                key: self
                    .urls
                    .resolve(r.item)
                    .expect("result items come from the interned URL set")
                    .to_owned(),
                score: r.score.value(),
            })
            .collect();
        AppResult {
            answers,
            stats: result.stats().clone(),
            algorithm,
        }
    }
}

/// A [`MonitoringSystem`] snapshot deployed onto the async
/// message-passing runtime: one worker thread per monitored location,
/// serving any number of top-k queries over request/reply channels.
#[derive(Debug)]
pub struct MonitoringDeployment<'a> {
    system: &'a MonitoringSystem,
    runtime: ClusterRuntime,
}

impl MonitoringDeployment<'_> {
    /// The `k` most popular URLs over all locations, answered entirely by
    /// messages to the per-location worker threads. Returns the answers
    /// together with the session's [`NetworkStats`]: message and payload
    /// counts plus the simulated serialized/overlapped timings under the
    /// deployment's latency model.
    pub fn top_k_urls(
        &self,
        k: usize,
        algorithm: AlgorithmKind,
    ) -> Result<(AppResult<String>, NetworkStats), AppError> {
        let mut session = self.runtime.connect();
        let result = algorithm
            .create()
            .run_on(&mut session, &TopKQuery::new(k, Sum))?;
        let network = session.network();
        Ok((self.system.to_app_result(result, algorithm), network))
    }

    /// Kills every replica worker of one location — the location becomes
    /// irrecoverably unreachable, the setting
    /// [`top_k_urls_resilient`](MonitoringDeployment::top_k_urls_resilient)
    /// degrades around.
    pub fn kill_location(&self, location: usize) {
        for replica in 0..self.runtime.replicas() {
            self.runtime.kill_owner(location, replica);
        }
    }

    /// As [`top_k_urls`](MonitoringDeployment::top_k_urls), but a dead
    /// location does not kill the query: after the fail-stop machinery
    /// reports a location unreachable (retries and replica failover
    /// exhausted), the query re-runs over the surviving locations and
    /// returns a [`ServedUrls::Degraded`] answer whose per-URL intervals
    /// soundly bracket the true all-locations popularity. Only a typed
    /// error survives to the caller when no location is left to serve
    /// from, or the failure is not an outage.
    pub fn top_k_urls_resilient(
        &self,
        k: usize,
        algorithm: AlgorithmKind,
    ) -> Result<ServedUrls, AppError> {
        let query = TopKQuery::new(k, Sum);
        let mut dead: Vec<usize> = Vec::new();
        loop {
            let failure = if dead.is_empty() {
                let mut session = self.runtime.connect();
                match algorithm.create().run_on(&mut session, &query) {
                    Ok(result) => {
                        let network = session.network();
                        return Ok(ServedUrls::Exact {
                            result: self.system.to_app_result(result, algorithm),
                            network,
                        });
                    }
                    Err(err) => err,
                }
            } else {
                let mut session = self.runtime.connect_surviving(&dead);
                let outages: Vec<_> = dead.iter().map(|&l| self.runtime.outage(l)).collect();
                match run_on_degraded(algorithm.create().as_ref(), &mut session, &query, &outages) {
                    Ok(answer) => {
                        return Ok(ServedUrls::Degraded(DegradedUrls {
                            provably_complete: answer.provably_complete(),
                            answers: answer
                                .items
                                .iter()
                                .map(|r| RankedAnswer {
                                    key: self
                                        .system
                                        .urls
                                        .resolve(r.item)
                                        .expect("result items come from the interned URL set")
                                        .to_owned(),
                                    score: r.score.value(),
                                })
                                .collect(),
                            intervals: answer.intervals,
                            dead_locations: dead
                                .iter()
                                .map(|&l| self.system.locations[l].clone())
                                .collect(),
                        }));
                    }
                    Err(err) => err,
                }
            };
            // Another location may die while the degraded answer is being
            // computed; fold it into the outage set and try again, as
            // long as at least one location survives.
            match &failure {
                TopKError::Source(source) if source.kind == SourceErrorKind::Unreachable => {
                    match source.list {
                        Some(list)
                            if !dead.contains(&list)
                                && dead.len() + 1 < self.runtime.num_owners() =>
                        {
                            dead.push(list);
                            dead.sort_unstable();
                        }
                        _ => return Err(failure.into()),
                    }
                }
                _ => return Err(failure.into()),
            }
        }
    }
}

/// The outcome of [`MonitoringDeployment::top_k_urls_resilient`]: exact
/// when every location (or a replica of it) answered, certified
/// best-effort when some were irrecoverably down.
#[derive(Debug, Clone)]
pub enum ServedUrls {
    /// Every location answered — possibly after retries and replica
    /// failovers, which never change the answer.
    Exact {
        /// The exact top-k answer.
        result: AppResult<String>,
        /// The serving session's network statistics.
        network: NetworkStats,
    },
    /// Some locations were unreachable; the answer excludes them but
    /// certifies what they could have contributed.
    Degraded(DegradedUrls),
}

/// A certified best-effort popularity ranking served under an outage:
/// URLs rank by their frequency sum over the *surviving* locations, and
/// each entry carries a sound bracket on its true all-locations score
/// (the dead locations contribute between their catalog tail and top
/// frequency).
#[derive(Debug, Clone)]
pub struct DegradedUrls {
    /// Best-effort ranking over the surviving locations.
    pub answers: Vec<RankedAnswer<String>>,
    /// One sound true-popularity bracket per entry of `answers`.
    pub intervals: Vec<ScoreInterval>,
    /// Names of the locations the answer had to exclude.
    pub dead_locations: Vec<String>,
    /// Whether the ranking is provably the true top-k set despite the
    /// outage (the lowest returned lower bound dominates every excluded
    /// item's ceiling).
    pub provably_complete: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MonitoringSystem {
        let mut sys = MonitoringSystem::new();
        let paris = sys.add_location("paris");
        let nantes = sys.add_location("nantes");
        let vienna = sys.add_location("vienna");
        sys.record(paris, "example.org/home", 120);
        sys.record(paris, "example.org/docs", 80);
        sys.record(paris, "example.org/blog", 10);
        sys.record(nantes, "example.org/docs", 200);
        sys.record(nantes, "example.org/home", 50);
        sys.record(vienna, "example.org/home", 90);
        sys.record(vienna, "example.org/blog", 70);
        sys
    }

    #[test]
    fn construction_counts() {
        let sys = system();
        assert_eq!(sys.num_locations(), 3);
        assert_eq!(sys.num_urls(), 3);
        assert_eq!(sys.locations()[0], "paris");
    }

    #[test]
    fn top_urls_sum_frequencies_over_locations() {
        let sys = system();
        for algorithm in AlgorithmKind::ALL {
            let result = sys.top_k_urls(2, algorithm).unwrap();
            // docs: 80 + 200 = 280, home: 120 + 50 + 90 = 260, blog: 80.
            assert_eq!(result.answers[0].key, "example.org/docs", "{algorithm:?}");
            assert_eq!(result.answers[0].score, 280.0);
            assert_eq!(result.answers[1].key, "example.org/home");
            assert_eq!(result.answers[1].score, 260.0);
        }
    }

    #[test]
    fn planned_query_agrees_with_explicit_algorithms() {
        let sys = system();
        let (planned, plan) = sys.top_k_urls_planned(2).unwrap();
        assert_eq!(planned.algorithm, plan.choice());
        assert_eq!(planned.answers[0].key, "example.org/docs");
        assert_eq!(planned.answers[0].score, 280.0);
        let empty = MonitoringSystem::new();
        assert!(matches!(empty.top_k_urls_planned(1), Err(AppError::Empty)));
    }

    #[test]
    fn batched_queries_agree_with_single_queries() {
        let sys = system();
        let pool = ThreadPool::new(2);
        let ks = [1usize, 2, 3];
        let batched = sys.top_k_urls_batch(&ks, &pool).unwrap();
        assert_eq!(batched.len(), ks.len());
        for (k, (result, plan)) in ks.iter().zip(&batched) {
            let (alone, alone_plan) = sys.top_k_urls_planned(*k).unwrap();
            assert_eq!(result.answers, alone.answers, "k = {k}");
            assert_eq!(result.stats.accesses, alone.stats.accesses, "k = {k}");
            assert_eq!(plan.choice(), alone_plan.choice(), "k = {k}");
            assert_eq!(result.algorithm, plan.choice());
        }
        let empty = MonitoringSystem::new();
        assert!(matches!(
            empty.top_k_urls_batch(&ks, &pool),
            Err(AppError::Empty)
        ));
    }

    #[test]
    fn deployed_queries_agree_with_local_and_reports_timings() {
        let sys = system();
        let local = sys.top_k_urls(2, AlgorithmKind::Bpa2).unwrap();
        let latency = LatencyModel::lan(sys.num_locations(), 8);
        let deployment = sys.deploy(latency).unwrap();

        // One deployment serves repeated queries (fresh session each).
        for _ in 0..2 {
            let (distributed, network) = deployment.top_k_urls(2, AlgorithmKind::Bpa2).unwrap();
            assert_eq!(distributed.answers, local.answers);
            assert_eq!(distributed.stats.accesses, local.stats.accesses);
            assert_eq!(network.messages, 2 * local.stats.accesses.total());
            assert!(network.makespan_nanos() <= network.serialized_nanos());
            assert!(network.makespan_nanos() > 0);
        }

        let empty = MonitoringSystem::new();
        assert!(matches!(
            empty.deploy(LatencyModel::zero(0)),
            Err(AppError::Empty)
        ));
    }

    #[test]
    fn resilient_serving_is_exact_when_nothing_is_dead() {
        let sys = system();
        let deployment = sys.deploy(LatencyModel::zero(3)).unwrap();
        let served = deployment
            .top_k_urls_resilient(2, AlgorithmKind::Bpa2)
            .unwrap();
        let local = sys.top_k_urls(2, AlgorithmKind::Bpa2).unwrap();
        match served {
            ServedUrls::Exact { result, .. } => assert_eq!(result.answers, local.answers),
            ServedUrls::Degraded(_) => panic!("nothing is dead, the answer must be exact"),
        }
    }

    #[test]
    fn a_replicated_deployment_fails_over_to_the_exact_answer() {
        let sys = system();
        let deployment = sys.deploy_replicated(LatencyModel::zero(3), 2).unwrap();
        // One replica of nantes dies; its twin keeps the answer exact.
        deployment.runtime.kill_owner(1, 0);
        let served = deployment
            .top_k_urls_resilient(2, AlgorithmKind::Bpa2)
            .unwrap();
        let local = sys.top_k_urls(2, AlgorithmKind::Bpa2).unwrap();
        match served {
            ServedUrls::Exact { result, .. } => assert_eq!(result.answers, local.answers),
            ServedUrls::Degraded(_) => panic!("a replica survived, the answer must be exact"),
        }
    }

    #[test]
    fn a_dead_location_degrades_with_certified_brackets() {
        let sys = system();
        let deployment = sys.deploy(LatencyModel::zero(3)).unwrap();
        deployment.kill_location(1); // nantes: docs 200, home 50
        let served = deployment
            .top_k_urls_resilient(2, AlgorithmKind::Bpa2)
            .unwrap();
        let ServedUrls::Degraded(degraded) = served else {
            panic!("a dead location must degrade the answer");
        };
        assert_eq!(degraded.dead_locations, vec!["nantes".to_owned()]);
        assert_eq!(degraded.answers.len(), 2);
        // Every bracket contains the URL's true all-locations popularity.
        let local = sys.top_k_urls(3, AlgorithmKind::Naive).unwrap();
        for (answer, interval) in degraded.answers.iter().zip(&degraded.intervals) {
            let truth = local
                .answers
                .iter()
                .find(|r| r.key == answer.key)
                .expect("every URL has a true popularity")
                .score;
            assert!(
                interval.contains(Score::from_f64(truth)),
                "{}: {truth} outside [{:?}, {:?}]",
                answer.key,
                interval.lo,
                interval.hi
            );
        }
    }

    #[test]
    fn an_entirely_dead_deployment_is_a_typed_error() {
        let sys = system();
        let deployment = sys.deploy(LatencyModel::zero(3)).unwrap();
        for location in 0..3 {
            deployment.kill_location(location);
        }
        let err = deployment
            .top_k_urls_resilient(2, AlgorithmKind::Bpa2)
            .unwrap_err();
        assert!(matches!(
            err,
            AppError::Query(TopKError::Source(ref source))
                if source.kind == SourceErrorKind::Unreachable
        ));
    }

    #[test]
    fn standing_queries_absorb_updates_and_serve_cached_answers() {
        let mut sys = system();
        sys.enable_standing_queries().unwrap();
        let handle = sys.register_standing_query(2).unwrap();

        // The eager refresh at registration makes the first read a hit.
        let first = sys.standing_answer(handle).unwrap();
        assert_eq!(first.answers[0].key, "example.org/docs");
        assert_eq!(first.answers[0].score, 280.0);
        let t = sys.standing_telemetry(handle).unwrap();
        assert_eq!((t.refreshes, t.cache_hits), (1, 1));

        // A small bump to a cold URL (blog: 80 -> 85) cannot reach the
        // top-2 bar of 260: absorbed, next read still costs nothing.
        let report = sys.ingest_update(0, "example.org/blog", 5);
        assert_eq!(
            report,
            IngestReport {
                absorbed: 1,
                pending_refresh: 0
            }
        );
        let cached = sys.standing_answer(handle).unwrap();
        assert_eq!(cached.answers, first.answers);
        let t = sys.standing_telemetry(handle).unwrap();
        assert_eq!((t.refreshes, t.cache_hits, t.absorbed_updates), (1, 2, 1));
        let (fresh, _) = sys.top_k_urls_planned(2).unwrap();
        assert_eq!(cached.answers, fresh.answers);

        // A burst that flips the ranking (blog: 85 -> 485) refreshes.
        let report = sys.ingest_update(2, "example.org/blog", 400);
        assert_eq!(report.pending_refresh, 1);
        let refreshed = sys.standing_answer(handle).unwrap();
        assert_eq!(refreshed.answers[0].key, "example.org/blog");
        assert_eq!(refreshed.answers[0].score, 485.0);
        let (fresh, _) = sys.top_k_urls_planned(2).unwrap();
        assert_eq!(refreshed.answers, fresh.answers);
        assert_eq!(sys.standing_telemetry(handle).unwrap().refreshes, 2);
    }

    #[test]
    fn new_urls_enter_the_standing_state_as_inserts() {
        let mut sys = system();
        sys.enable_standing_queries().unwrap();
        let handle = sys.register_standing_query(2).unwrap();

        // A never-seen URL with a tiny count absorbs as an insert...
        let report = sys.ingest_update(1, "example.org/new", 3);
        assert_eq!(
            report,
            IngestReport {
                absorbed: 1,
                pending_refresh: 0
            }
        );
        let served = sys.standing_answer(handle).unwrap();
        let (fresh, _) = sys.top_k_urls_planned(2).unwrap();
        assert_eq!(served.answers, fresh.answers);

        // ...and a hot one forces a refresh and tops the chart.
        let report = sys.ingest_update(1, "example.org/viral", 1000);
        assert_eq!(report.pending_refresh, 1);
        let served = sys.standing_answer(handle).unwrap();
        assert_eq!(served.answers[0].key, "example.org/viral");
        assert_eq!(served.answers[0].score, 1000.0);
        let (fresh, _) = sys.top_k_urls_planned(2).unwrap();
        assert_eq!(served.answers, fresh.answers);
    }

    #[test]
    fn standing_prefix_reads_come_from_the_cache() {
        let mut sys = system();
        sys.enable_standing_queries().unwrap();
        let handle = sys.register_standing_query(3).unwrap();

        let top1 = sys.standing_prefix(handle, 1).unwrap().unwrap();
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].key, "example.org/docs");
        assert!(sys.standing_prefix(handle, 0).unwrap().is_none());
        assert!(sys.standing_prefix(handle, 4).unwrap().is_none());
        assert!(matches!(
            sys.standing_prefix(7, 1),
            Err(AppError::UnknownHandle(7))
        ));

        // A dirty cache serves no prefix until the next full read.
        sys.record(0, "example.org/docs", 1000);
        assert!(sys.standing_prefix(handle, 1).unwrap().is_none());
        sys.standing_answer(handle).unwrap();
        let top1 = sys.standing_prefix(handle, 1).unwrap().unwrap();
        assert_eq!(top1[0].score, 1280.0);
    }

    #[test]
    fn standing_queries_require_enabling_first() {
        let mut sys = system();
        assert!(!sys.standing_enabled());
        assert!(matches!(
            sys.register_standing_query(1),
            Err(AppError::StandingDisabled)
        ));
        assert!(matches!(
            sys.standing_answer(0),
            Err(AppError::StandingDisabled)
        ));
        assert!(matches!(
            sys.standing_telemetry(0),
            Err(AppError::StandingDisabled)
        ));
        let empty = MonitoringSystem::new();
        assert!(matches!(
            MonitoringSystem::clone(&empty).enable_standing_queries(),
            Err(AppError::Empty)
        ));
    }

    #[test]
    #[should_panic(expected = "before enabling standing queries")]
    fn adding_a_location_after_enabling_standing_queries_panics() {
        let mut sys = system();
        sys.enable_standing_queries().unwrap();
        sys.add_location("lyon");
    }

    #[test]
    fn repeated_records_accumulate() {
        let mut sys = system();
        sys.record(0, "example.org/blog", 500);
        let result = sys.top_k_urls(1, AlgorithmKind::Bpa2).unwrap();
        assert_eq!(result.answers[0].key, "example.org/blog");
        assert_eq!(result.answers[0].score, 580.0);
    }

    #[test]
    fn empty_system_is_an_error() {
        let sys = MonitoringSystem::new();
        assert!(matches!(
            sys.top_k_urls(1, AlgorithmKind::Ta),
            Err(AppError::Empty)
        ));
    }

    #[test]
    #[should_panic(expected = "has not been registered")]
    fn recording_to_an_unknown_location_panics() {
        let mut sys = MonitoringSystem::new();
        sys.record(3, "example.org", 1);
    }
}
