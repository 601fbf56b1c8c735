// BatchServer: the query-side entry point of the repository.
//
// Wraps a FrozenModel, the blocked top-K kernel, request batching
// over the deterministic thread pool, and an optional LRU result cache.
// A batch is served in four phases:
//   0. deadline triage (caller thread) — requests whose budget is already
//      exhausted are shed before any scoring happens;
//   1. cache probe (caller thread, request order) — hits are filled
//      immediately, misses collected;
//   2. parallel fan-out of the misses over ParallelForWorker with
//      per-worker scratch (score buffer + heaps), sub-batched so native
//      kernels amortize item-block loads across several users. Before each
//      sub-batch the worker re-checks deadlines, so a batch that turns
//      slow stops wasting kernel time on dead work mid-flight;
//   3. cache fill (caller thread, request order) — so the cache's LRU
//      state after a batch is a pure function of the request stream, not
//      of worker scheduling.
// With no deadlines, no queue pressure, and no armed faults, served lists
// are bit-identical at any --threads value and with the cache on or off:
// every list is a pure function of (snapshot, user, k, exclusion set).
//
// Overload robustness (DESIGN.md §12). The server fronts an
// AdmissionController (serve/admission.h): Submit() admits into a bounded
// queue or sheds with an explicit status, ServeQueued() serves queued work
// in FIFO order, and Drain() finishes the queue, rejects new work, and
// invalidates the result cache. Every served batch feeds the controller's
// pressure signal (outstanding depth × recent batch-seconds p95); under
// sustained pressure the degradation ladder steps the scoring tier
// double → float32 → int8 and back with hysteresis. Degraded batches
// bypass the result cache (cached lists always reflect the configured
// tier), so stepping back up never serves stale reduced-precision lists.
//
// Observability (common/metrics.h):
//   taxorec.serve.requests           requests served (hits + computed)
//   taxorec.serve.cache.{hits,misses} per-probe counters (result_cache.h);
//                                    hits = requests answered from the
//                                    cache
//   taxorec.serve.cache.bypass       requests that skipped the cache
//                                    because their batch ran degraded
//   taxorec.serve.computed           requests ranked by the kernel
//   taxorec.serve.batches            ServeBatch calls
//   taxorec.serve.batch_seconds      histogram of ServeBatch wall time
//   taxorec.serve.request_seconds    histogram of per-request latency
//   taxorec.serve.shed               requests shed (all reasons)
//   taxorec.serve.shed.queue_full    … at admission, queue full
//   taxorec.serve.shed.cost          … at admission, cost budget
//   taxorec.serve.shed.deadline      … deadline expired before/mid batch
//   taxorec.serve.shed.draining      … rejected while draining
//   taxorec.serve.deadline_missed    served complete but past deadline
//   taxorec.serve.degraded           requests scored below the configured
//                                    tier
//   taxorec.serve.tier.<name>        requests scored per tier
//   taxorec.serve.snapshot_load_failures  compact-snapshot build failures
//                                    (double-tier fallback)
//   taxorec.serve.ivf.queries        requests answered via the IVF probe
//   taxorec.serve.ivf.cells_probed   cells actually scored
//   taxorec.serve.ivf.cells_pruned   cells cut by the score bound
//   taxorec.serve.ivf.cells_skipped  cells left unprobed (nprobe cap/empty)
//   taxorec.serve.ivf.items_scored   item rows swept by the IVF kernels
//   taxorec.rank.items_swept         catalogue items swept per user by
//                                    exact group sweeps (serve, eval and
//                                    RecommendAllUsers alike)
//   taxorec.rank.items_pruned        … of those, items the double tier's
//                                    two-channel score bound skipped
//                                    (serve/topk.h)
//   gauges: taxorec.serve.{pressure,queue_depth,degrade_steps}
//
// Retrieval (DESIGN.md §15). --retrieval exact (default) scores the full
// catalogue per request and remains the correctness oracle; --retrieval
// ivf probes the nearest --nprobe Poincaré k-means cells through
// serve/ivf_index.h. Degraded batches always serve exact: the ladder's
// rungs are safety valves and must not stack approximation on top of
// precision loss (and the IVF index is built for the configured tier
// only).
#ifndef TAXOREC_SERVE_SERVER_H_
#define TAXOREC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "serve/admission.h"
#include "serve/frozen_model.h"
#include "serve/ivf_index.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/topk.h"

namespace taxorec {

struct ServeOptions {
  /// LRU result-cache capacity in lists; 0 disables caching.
  size_t cache_capacity = 0;
  /// Items per scoring block (native kernels).
  size_t item_block = kServeItemBlock;
  /// Requests a worker ranks between two deadline checks (a sub-batch);
  /// BlockedTopKBatch sweeps them in groups of kScoreGroup.
  size_t user_batch = 8;
  /// Requests per thread-pool chunk in the miss fan-out.
  size_t grain = 16;
  /// Scoring precision tier (serve/compact_snapshot.h). Only consulted by
  /// the freezing constructor; the pre-frozen constructor keeps the tier
  /// the FrozenModel was built with.
  PrecisionTier precision = PrecisionTier::kDouble;
  /// Overload front door: bounded queue, cost admission, degradation
  /// ladder (serve/admission.h). Defaults keep everything unbounded and
  /// the ladder off — the pre-overload serving semantics.
  AdmissionOptions admission;
  /// Candidate generation: kExact sweeps the catalogue (default, the
  /// correctness oracle); kIvf probes Poincaré k-means cells
  /// (serve/ivf_index.h). kIvf requires a native kernel and a reduced
  /// precision tier — otherwise the server logs a warning and serves
  /// exact.
  RetrievalMode retrieval = RetrievalMode::kExact;
  /// IVF build/probe parameters (cells, nprobe, k-means iterations);
  /// consulted only when retrieval == kIvf.
  IvfOptions ivf;
};

class BatchServer {
 public:
  /// Freezes `model` against `split`. The split must outlive the server
  /// (it backs the exclusion sets), and so must `model` (serve/snapshot.h).
  BatchServer(const Recommender& model, const DataSplit& split,
              ServeOptions options = {});

  /// Serves a frozen model (e.g. one over hand-built rows).
  BatchServer(FrozenModel model, const DataSplit& split,
              ServeOptions options = {});

  /// Serves a batch; results[i] answers requests[i] (best first). Shed
  /// requests (expired deadline, draining server) yield empty lists —
  /// use ServeBatchEx when per-request statuses matter.
  std::vector<std::vector<TopKEntry>> ServeBatch(
      std::span<const ServeRequest> requests);

  /// Serves a batch with per-request status, deadline accounting, and the
  /// tier each request was actually scored at.
  std::vector<ServeResult> ServeBatchEx(std::span<const ServeRequest> requests);

  /// Offers a request to the bounded admission queue. Sheds (with the
  /// returned verdict) instead of queueing forever; shed requests are
  /// counted under taxorec.serve.shed.*.
  AdmitResult Submit(const ServeRequest& request);

  /// Serves up to `max_requests` queued requests (FIFO). Returns the
  /// answered results; empty when the queue is empty.
  std::vector<ServeResult> ServeQueued(size_t max_requests);

  /// Graceful drain: rejects new work from now on (Submit and ServeBatch*
  /// return kShedDraining), finishes everything still queued (deadlines
  /// and degradation still apply), invalidates the result cache, and logs
  /// a drain summary. Returns the results of the drained queue. Idempotent.
  std::vector<ServeResult> Drain();
  bool draining() const { return admission_->draining(); }

  const FrozenModel& model() const { return model_; }
  const ServeOptions& options() const { return options_; }
  /// Null when caching is disabled.
  const ResultCache* cache() const { return cache_.get(); }
  /// The overload front door (always present; unbounded by default).
  AdmissionController* admission() { return admission_.get(); }
  const AdmissionController* admission() const { return admission_.get(); }

  /// The tier a batch starting now would be scored at (configured tier
  /// stepped down by the ladder, clamped to the available models).
  PrecisionTier effective_tier() const;

 private:
  /// The model serving `steps` rungs below the configured tier (clamped
  /// to the rungs that were actually built).
  const FrozenModel* ModelForSteps(int steps) const;
  std::vector<ServeResult> ServeInternal(std::span<const ServeRequest> requests);

  FrozenModel model_;
  const DataSplit* split_;  // not owned
  ServeOptions options_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<AdmissionController> admission_;
  /// Degradation rungs below the configured tier, indexed by tier
  /// (kFloat32 = 1, kInt8 = 2), each over model_'s rows; null when
  /// unavailable (not built, virtual view, or a failed compact build).
  std::unique_ptr<FrozenModel> degraded_[3];
  std::atomic<bool> drained_logged_{false};
};

}  // namespace taxorec

#endif  // TAXOREC_SERVE_SERVER_H_
