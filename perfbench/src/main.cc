// Copyright 2026 The QPGC Authors.
//
// End-to-end benchmark of the serving stack, driven only through the public
// API of src/. One process runs one workload:
//
//   qpgc_perfbench --workload social-uniform|grid-hot|social-sharded
//                  --seed N --seconds S --trace 0|1 --scratch DIR
//                  [--trace-out FILE]
//
// A run is a fixed-count operation stream drawn from the seed (never a time
// window), so every run with one seed does identical work on identical
// states. One client thread, pinned to one CPU where the OS allows, runs a
// warm-up round and then the measured rounds; each round publishes one
// 16-update batch and then issues reach blocks, BooleanMatch and Match
// queries. Every 25 rounds a checkpoint runs a closed-loop segment (two
// reader threads, the client as writer) and repeated cold starts from the
// state saved there. Sampled answers are checked against BFS / Match on the
// uncompressed graph at the same version, outside the timed regions; any
// disagreement ends the run with "correct": false and exit code 1.
//
// The last line of stdout is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Human-readable sample
// counts and a determinism digest go to stderr. perfbench/README.md has the
// workload rationale and the layer -> end-to-end map.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pattern_scheme.h"
#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "graph/shard_view.h"
#include "graph/traversal.h"
#include "graph/update.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "pattern/match.h"
#include "reach/compress_r.h"
#include "reach/queries.h"
#include "serve/answer_cache.h"
#include "serve/boundary_summary.h"
#include "serve/load_gen.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot_manager.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace qpgc;

// ---------------------------------------------------------------------------
// Run shape.
// ---------------------------------------------------------------------------

constexpr size_t kBatchSize = 16;
constexpr size_t kNumPatterns = 32;
constexpr uint64_t kPatternSeed = 70;
constexpr size_t kGridSide = 141;
constexpr uint32_t kNumShards = 4;
constexpr int kReaders = 2;
constexpr size_t kReachesPerPin = 64;  // closed-loop reader: 64 reach + 1 bm
constexpr size_t kCheckPairs = 64;
constexpr size_t kCheckPatterns = 2;
constexpr size_t kPinBlock = 1000;
// Reach blocks per round that the traced replica re-runs (the first ones).
constexpr size_t kTracedReachBlocks = 16;
// --seconds scales the measured rounds from this base; kMinRounds keeps
// every printed percentile backed by >= 10 samples beyond it.
constexpr double kBaseSeconds = 20.0;
constexpr size_t kMinRounds = 100;

struct Plan {
  size_t rounds = kMinRounds;     // measured; one warm-up round precedes
  size_t reach_blocks = 16;       // per round
  size_t reach_block = 16;        // reaches issued under one pin
  bool time_each_reach = false;   // else one sample per block (block mean)
  size_t bmatches = 11;           // per round
  size_t matches = 11;            // per round
  size_t setup_builds = 3;
  size_t check_every = 25;        // rounds between checkpoints
  size_t loop_batches = 8;        // client batches per closed-loop segment
  size_t opens_per_check = 10;    // timed cold starts per checkpoint
};

struct Spec {
  std::string name;
  bool sharded = false;
  bool grid = false;
  ReaderWorkload reads;
  Plan plan;
};

bool MakeSpec(const std::string& name, double seconds, Spec* spec) {
  spec->name = name;
  Plan& p = spec->plan;
  if (name == "social-uniform") {
    spec->reads = ReaderWorkload::Uniform();
    p.setup_builds = 9;  // ~60 ms each: more repeats for a steady median
    p.loop_batches = 8;
  } else if (name == "grid-hot") {
    spec->grid = true;
    // The hot set itself is fixed (the library's default hot seed); the
    // seed selects the draws from it.
    spec->reads = ReaderWorkload::ZipfHotSet(1.1, 512);
    p.setup_builds = 5;
    p.loop_batches = 3;
    // A reach here is a ~0.2 us cache hit or a ~30 us quotient BFS. A block
    // mean would count the misses in its block, and its median jumped 30%
    // between seeds as that count moved by one; each call is timed instead
    // (the ~25 ns timer cost is a constant on the hits).
    p.time_each_reach = true;
    // Every publish starts a cold cache. With 256 reaches per version only
    // ~61% hit, so the median sat in the upper tail of the hits and moved
    // 15-25% between seeds as the hit share moved. 4096 reaches per version
    // hit ~90%: the median lies in the body of the hits, and the ~10%
    // misses (the refill) still set reach_p99_us. The traced replica keeps
    // re-running only the first 16 blocks: its raw and kernel reaches are
    // all ~30 us BFS calls.
    p.reach_blocks = 256;
    // Pattern queries are cheap next to this workload's ~0.35 s batches;
    // twice the samples steady their tails.
    p.bmatches = 22;
    p.matches = 22;
  } else if (name == "social-sharded") {
    spec->sharded = true;
    spec->reads = ReaderWorkload::Uniform();
    // A routed reach costs ~0.1-1 ms, well above timer resolution, but its
    // cost is bimodal (local vs boundary-crossing searches), and a median
    // of single calls jumps between the modes from seed to seed. Blocks of
    // 6 under one pin average that out.
    p.reach_blocks = 12;
    p.reach_block = 6;
    p.loop_batches = 2;
  } else {
    return false;
  }
  const size_t scaled =
      static_cast<size_t>(std::lround(kMinRounds * seconds / kBaseSeconds));
  p.rounds = std::max<size_t>(kMinRounds, scaled + scaled % 2);  // even
  return true;
}

// The fixed graphs (the seed selects only the operation stream).
Graph SocialGraph() {
  Graph g = PreferentialAttachment(20000, 4, 0.45, 13);
  AssignZipfLabels(g, 4, 1.1, 14);
  return g;
}

Graph GridGraph() {
  Graph g = DirectedGrid(kGridSide, kGridSide);
  AssignZipfLabels(g, 4, 1.1, 7);
  return g;
}

// Update batches that keep the grid a DAG: inserts only go forward, from
// (r, c) to (r + dr, c + dc) with 0 <= dr, dc <= 3, and deletes remove
// existing edges. Every edge then points to a larger node id, so the reach
// quotient stays the whole graph (RandomMixed's back edges would collapse
// it into SCC blocks mid-run and change what grid-hot measures).
UpdateBatch GridDagBatch(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  UpdateBatch batch;
  while (batch.size() < kBatchSize) {
    if (rng.Chance(0.55)) {
      const size_t r = rng.Uniform(kGridSide), c = rng.Uniform(kGridSide);
      const size_t dr = rng.Uniform(4), dc = rng.Uniform(4);
      if (dr + dc == 0 || r + dr >= kGridSide || c + dc >= kGridSide) continue;
      batch.Insert(static_cast<NodeId>(r * kGridSide + c),
                   static_cast<NodeId>((r + dr) * kGridSide + c + dc));
    } else {
      const NodeId u = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
      const auto out = g.OutNeighbors(u);
      if (out.empty()) continue;
      batch.Delete(u, out[rng.Uniform(out.size())]);
    }
  }
  return batch;
}

UpdateBatch NextBatch(const Spec& spec, const Graph& g, uint64_t seed,
                      size_t index) {
  const uint64_t batch_seed = Mix64(seed * 0x9e3779b97f4a7c15ull + index);
  return spec.grid ? GridDagBatch(g, batch_seed)
                   : RandomMixed(g, kBatchSize, 0.55, batch_seed);
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A percentile is printed only when >= 10 samples lie beyond it.
bool EnoughTail(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

// Pattern frequencies of a workload: uniform over the patterns, or the
// hot-set Zipf over 512 ranks folded onto them the way WorkloadSampler
// folds ranks (rank % patterns).
std::vector<double> PatternWeights(const ReaderWorkload& reads,
                                   size_t num_patterns) {
  std::vector<double> w(num_patterns, 1.0);
  if (reads.mode == ReaderWorkload::Mode::kZipfHotSet) {
    std::fill(w.begin(), w.end(), 0.0);
    for (size_t r = 0; r < reads.hot_set_size; ++r) {
      w[r % num_patterns] +=
          1.0 / std::pow(static_cast<double>(r + 1), reads.zipf_s);
    }
  }
  return w;
}

// A stratified draw order: index i appears in proportion to weights[i]
// (largest-remainder rounding to `total` draws) and the seed shuffles the
// order. A free draw would let the count of a rare, costly pattern vary
// from seed to seed, and move the p99 with it.
std::vector<size_t> Deck(const std::vector<double>& weights, size_t total,
                         uint64_t seed) {
  double sum = 0.0;
  for (const double w : weights) sum += w;
  std::vector<size_t> counts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - static_cast<double>(counts[i]), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t k = 0; assigned < total; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }
  std::vector<size_t> deck;
  deck.reserve(total);
  for (size_t i = 0; i < counts.size(); ++i) {
    deck.insert(deck.end(), counts[i], i);
  }
  Rng rng(seed);
  rng.Shuffle(deck);
  return deck;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// e2e samples of one kind, also split by whether the round recorded spans
// (the traced run records them in every other round; the difference of the
// two halves' medians is the tracing overhead).
struct Samples {
  std::vector<double> all;
  std::vector<double> traced;
  std::vector<double> untraced;

  void Add(double v, bool was_traced) {
    all.push_back(v);
    (was_traced ? traced : untraced).push_back(v);
  }

  double TracingOverhead() const { return Median(traced) - Median(untraced); }
};

// ---------------------------------------------------------------------------
// CPU pinning.
// ---------------------------------------------------------------------------

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// ---------------------------------------------------------------------------
// Answer digest: the self-test compares it across runs of one seed and
// between the traced and untraced runs.
// ---------------------------------------------------------------------------

struct Digest {
  uint64_t h = 0x51ed270b27b4ef5dull;
  void Add(uint64_t v) { h = Mix64(h ^ (v + 0x9e3779b97f4a7c15ull)); }
  void Add(const MatchResult& m) {
    Add(m.matched ? 1 : 0);
    for (const auto& s : m.match_sets) Add(s.size());
  }
};

// acc += now - mark, counter by counter (cache counters only grow).
void AddCacheDelta(const CacheStats& now, const CacheStats& mark,
                   CacheStats* acc) {
  acc->reach_exact_hits += now.reach_exact_hits - mark.reach_exact_hits;
  acc->reach_subsumption_hits +=
      now.reach_subsumption_hits - mark.reach_subsumption_hits;
  acc->reach_misses += now.reach_misses - mark.reach_misses;
  acc->reach_inserts += now.reach_inserts - mark.reach_inserts;
  acc->reach_evictions += now.reach_evictions - mark.reach_evictions;
  acc->match_negative_hits +=
      now.match_negative_hits - mark.match_negative_hits;
  acc->match_misses += now.match_misses - mark.match_misses;
  acc->match_inserts += now.match_inserts - mark.match_inserts;
  acc->match_evictions += now.match_evictions - mark.match_evictions;
}

// ---------------------------------------------------------------------------
// Backends: the workload's serving configuration plus, for the traced run,
// a benchmark-owned replica whose layers are timed directly.
// ---------------------------------------------------------------------------

struct UpdateOutcome {
  double secs = 0.0;
  size_t rcm_cone = 0;
  size_t pcm_cone = 0;
  size_t sides_frozen = 0;
  size_t sides_total = 0;
};

// Unsharded: SnapshotManager behind CachedQueryService.
class UnshardedBackend {
 public:
  explicit UnshardedBackend(const Graph& base) : base_(base) {}

  double Build() {
    svc_.reset();
    mgr_.reset();
    Graph copy = base_;
    const int64_t t0 = NowNs();
    mgr_ = std::make_unique<SnapshotManager>(std::move(copy));
    const int64_t t1 = NowNs();
    svc_ = std::make_unique<CachedQueryService>(*mgr_);
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  // Times the setup layers on the replica (which the last call leaves in
  // place for the batch replay) and, unless this build is the one kept for
  // serving, a full-freeze publish.
  void TraceSetup(Tracer* tr, bool freeze_full) {
    {
      ScopedSpan root(tr, "setup.layers");
      rg_ = base_;
      {
        ScopedSpan s(tr, "reach.compress_r");
        rc_ = CompressR(rg_);
      }
      ScopedSpan s(tr, "bisim.compress_b");
      pc_ = CompressB(rg_);
    }
    if (freeze_full) {
      ScopedSpan s(tr, "serve.manager.freeze_full");
      mgr_->Publish(FreezeMode::kFull);
    }
  }

  const Graph& Truth() const { return mgr_->graph(); }
  std::shared_ptr<const CachedSnapshot> Pin() const { return svc_->Pin(); }

  UpdateOutcome Update(const UpdateBatch& batch, Tracer* e2e) {
    UpdateOutcome out;
    const int64_t t0 = NowNs();
    ApplyStats applied;
    PublishStats published;
    uint64_t version = 0;
    {
      ScopedSpan root(e2e, "e2e.update");
      {
        ScopedSpan s(e2e, "serve.manager.apply");
        applied = mgr_->Apply(batch);
      }
      {
        ScopedSpan s(e2e, "serve.manager.publish");
        published = mgr_->Publish();
      }
      ScopedSpan s(e2e, "serve.pin");
      version = svc_->Pin()->version();
    }
    out.secs = static_cast<double>(NowNs() - t0) * 1e-9;
    QPGC_CHECK(version == published.version);
    out.rcm_cone = applied.rcm.DirtyConeSize();
    out.pcm_cone = applied.pcm.DirtyConeSize();
    out.sides_frozen = (published.froze_reach ? 1 : 0) +
                       (published.froze_pattern ? 1 : 0);
    out.sides_total = 2;
    return out;
  }

  // Replays the batch on the replica, timing each layer, and accumulates
  // the replica's incremental stats and effective update count.
  void TraceBatch(const UpdateBatch& batch, Tracer* tr, IncRcmStats* rcm,
                  IncPcmStats* pcm, size_t* effective) {
    ScopedSpan root(tr, "replica.batch");
    UpdateBatch eff;
    {
      ScopedSpan s(tr, "graph.apply_batch");
      eff = ApplyBatch(rg_, batch);
    }
    *effective += eff.size();
    if (eff.empty()) return;
    {
      ScopedSpan s(tr, "inc.rcm");
      rcm->Accumulate(IncRCM(rg_, eff, rc_));
    }
    ScopedSpan s(tr, "inc.pcm");
    pcm->Accumulate(IncPCM(rg_, eff, pc_));
  }

  // The replica must track the served state exactly.
  bool ReplicaMatches() const {
    return rg_ == mgr_->graph() &&
           rc_.gr.num_nodes() == mgr_->reach_artifact().gr.num_nodes() &&
           pc_.gr.num_nodes() == mgr_->pattern_artifact().gr.num_nodes();
  }

  // Times the reach block's pairs again on the raw snapshot (bypassing the
  // cache the e2e stream went through) and as bare EvalReach calls on its
  // quotient; both must count as many true answers as the service did.
  template <typename Pin>
  bool TraceReachBlock(const Pin& pin,
                       const std::vector<std::pair<NodeId, NodeId>>& pairs,
                       Tracer* tr, uint64_t served_yes) {
    const ServingSnapshot& snap = pin->snapshot();
    uint64_t raw = 0, kernel = 0;
    {
      ScopedSpan s(tr, "serve.snapshot.reach", pairs.size());
      for (const auto& [u, v] : pairs) raw += snap.Reach(u, v) ? 1 : 0;
    }
    {
      const std::vector<NodeId>& map = snap.reach_map();
      ScopedSpan s(tr, "reach.eval_reach", pairs.size());
      for (const auto& [u, v] : pairs) {
        kernel += (u == v || EvalReach(snap.reach_gr(), map[u], map[v],
                                       PathMode::kNonEmpty,
                                       ReachAlgorithm::kBfs))
                      ? 1
                      : 0;
      }
    }
    return raw == served_yes && kernel == served_yes;
  }

  template <typename Pin>
  bool TraceBMatchKernel(const Pin& pin, const PatternQuery& q, Tracer* tr) {
    ScopedSpan s(tr, "pattern.bmatch_kernel");
    return BooleanMatch(pin->snapshot().pattern_gr(), q);
  }

  template <typename Pin>
  MatchResult TraceExpand(const Pin& pin, const PatternQuery& q, Tracer* tr) {
    const ServingSnapshot& snap = pin->snapshot();
    ScopedSpan root(tr, "layer.match");
    MatchResult on_gr;
    {
      ScopedSpan s(tr, "pattern.match_kernel");
      on_gr = Match(snap.pattern_gr(), q);
    }
    ScopedSpan s(tr, "core.expand");
    return ExpandMatchWith(
        snap.pattern_gr().num_nodes(), snap.pattern_map(),
        [&snap](NodeId b) { return snap.pattern_block_members(b); }, on_gr);
  }

  void TraceRound(Tracer* tr, const std::vector<std::pair<NodeId, NodeId>>&) {
    uint64_t versions = 0;
    ScopedSpan s(tr, "serve.pin_block", kPinBlock);
    for (size_t i = 0; i < kPinBlock; ++i) versions += svc_->Pin()->version();
    QPGC_CHECK(versions > 0);
  }

  size_t ResidentBytes() const { return svc_->Pin()->snapshot().MemoryBytes(); }
  size_t ReachSideBytes() const {
    return svc_->Pin()->snapshot().reach_side()->MemoryBytes();
  }
  size_t PatternSideBytes() const {
    return svc_->Pin()->snapshot().pattern_side()->MemoryBytes();
  }
  size_t SummaryBytes() const { return 0; }
  size_t ReachGrNodes() const {
    return svc_->Pin()->snapshot().reach_gr().num_nodes();
  }
  CacheStats Cache() const { return svc_->cache_stats(); }

  Status Save(const std::string& dir, std::vector<std::string>* paths) {
    paths->assign(1, dir + "/snapshot.qpgc");
    return storage::SaveSnapshot(svc_->Pin()->snapshot(), paths->front());
  }

  // Reopen the artifact and answer QR(u, v): the cold-start path.
  Status ColdStart(const std::vector<std::string>& paths, NodeId u, NodeId v,
                   Tracer* tr, bool* answer) {
    std::optional<Result<storage::MmapSnapshot>> opened;
    {
      ScopedSpan s(tr, "storage.open_verified");
      opened.emplace(storage::MmapSnapshot::Open(
          paths.front(), storage::LoadOptions{true, true}));
    }
    if (!opened->ok()) return opened->status();
    ScopedSpan s(tr, "storage.first_reach");
    *answer = opened->value().Reach(u, v);
    return Status::Ok();
  }

  // Trace-only storage layers: the trusted open next to the verified one.
  Status TraceOpenTrusted(const std::vector<std::string>& paths, Tracer* tr) {
    ScopedSpan s(tr, "storage.open_trusted");
    return storage::MmapSnapshot::Open(paths.front()).status();
  }
  Status TraceOpenVerified(const std::vector<std::string>&, Tracer*) {
    return Status::Ok();  // the e2e cold start already times it
  }
  double LocalShare(const std::vector<std::pair<NodeId, NodeId>>&) const {
    return 0.0;
  }
  double StitchReuse() const { return 0.0; }

 private:
  const Graph& base_;
  std::unique_ptr<SnapshotManager> mgr_;
  std::unique_ptr<CachedQueryService> svc_;
  Graph rg_;
  ReachCompression rc_;
  PatternCompression pc_;
};

// Sharded: ShardedSnapshotManager (hash partition, K = 4) behind the
// uncached ShardedQueryService, with a global mirror graph as the oracle's
// source of truth.
class ShardedBackend {
 public:
  explicit ShardedBackend(const Graph& base) : base_(base) {}

  double Build() {
    svc_.reset();
    mgr_.reset();
    mirror_ = base_;
    ShardedManagerOptions options;
    options.num_shards = kNumShards;
    const int64_t t0 = NowNs();
    mgr_ = std::make_unique<ShardedSnapshotManager>(base_, options);
    const int64_t t1 = NowNs();
    svc_ = std::make_unique<ShardedQueryService>(*mgr_);
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  void TraceSetup(Tracer* tr, bool freeze_full) {
    {
      ScopedSpan root(tr, "setup.layers");
      {
        ScopedSpan s(tr, "graph.partition");
        part_ = BuildPartition(PartitionerKind::kHash, base_, kNumShards);
        shards_.clear();
        for (uint32_t s = 0; s < kNumShards; ++s) {
          shards_.push_back(MaterializeShard(base_, part_, s));
        }
      }
      rcs_.clear();
      pcs_.clear();
      for (uint32_t s = 0; s < kNumShards; ++s) {
        {
          ScopedSpan span(tr, "reach.compress_r");
          rcs_.push_back(CompressR(shards_[s]));
        }
        ScopedSpan span(tr, "bisim.compress_b");
        pcs_.push_back(CompressB(shards_[s]));
      }
    }
    if (freeze_full) {
      ScopedSpan s(tr, "serve.manager.freeze_full");
      mgr_->PublishAll(FreezeMode::kFull);
    }
  }

  const Graph& Truth() const { return mirror_; }
  std::shared_ptr<const PinnedShards> Pin() const { return svc_->Pin(); }

  UpdateOutcome Update(const UpdateBatch& batch, Tracer* e2e) {
    UpdateOutcome out;
    std::vector<PublishStats> published;
    size_t rcm = 0, pcm = 0;
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(e2e, "e2e.update");
      {
        ScopedSpan s(e2e, "serve.manager.apply");
        mgr_->Apply(batch);
      }
      // Pending stats cover exactly this batch (manual publish policy);
      // reading them is a few loads, inside the span's own self time.
      for (uint32_t s = 0; s < kNumShards; ++s) {
        rcm += mgr_->shard(s).pending_rcm_stats().DirtyConeSize();
        pcm += mgr_->shard(s).pending_pcm_stats().DirtyConeSize();
      }
      {
        ScopedSpan s(e2e, "serve.manager.publish");
        published = mgr_->PublishAll();
      }
      ScopedSpan s(e2e, "serve.pin");
      QPGC_CHECK(svc_->Pin()->num_shards() == kNumShards);
    }
    out.secs = static_cast<double>(NowNs() - t0) * 1e-9;
    ApplyBatch(mirror_, batch);
    out.rcm_cone = rcm;
    out.pcm_cone = pcm;
    for (const PublishStats& p : published) {
      out.sides_frozen += (p.froze_reach ? 1 : 0) + (p.froze_pattern ? 1 : 0);
      out.sides_total += 2;
    }
    return out;
  }

  void TraceBatch(const UpdateBatch& batch, Tracer* tr, IncRcmStats* rcm,
                  IncPcmStats* pcm, size_t* effective) {
    ScopedSpan root(tr, "replica.batch");
    const std::vector<UpdateBatch> split = SplitBatchByShard(batch, part_);
    for (uint32_t s = 0; s < kNumShards; ++s) {
      UpdateBatch eff;
      {
        ScopedSpan span(tr, "graph.apply_batch");
        eff = ApplyBatch(shards_[s], split[s]);
      }
      *effective += eff.size();
      if (eff.empty()) continue;
      {
        ScopedSpan span(tr, "inc.rcm");
        rcm->Accumulate(IncRCM(shards_[s], eff, rcs_[s]));
      }
      ScopedSpan span(tr, "inc.pcm");
      pcm->Accumulate(IncPCM(shards_[s], eff, pcs_[s]));
    }
  }

  bool ReplicaMatches() const {
    for (uint32_t s = 0; s < kNumShards; ++s) {
      const SnapshotManager& m = mgr_->shard(s);
      if (!(shards_[s] == m.graph()) ||
          rcs_[s].gr.num_nodes() != m.reach_artifact().gr.num_nodes() ||
          pcs_[s].gr.num_nodes() != m.pattern_artifact().gr.num_nodes()) {
        return false;
      }
    }
    return true;
  }

  template <typename Pin>
  bool TraceReachBlock(const Pin&,
                       const std::vector<std::pair<NodeId, NodeId>>&, Tracer*,
                       uint64_t) {
    return true;  // routed reach has no single quotient to re-run
  }

  template <typename Pin>
  bool TraceBMatchKernel(const Pin& pin, const PatternQuery& q, Tracer* tr) {
    const StitchedPatternQuotient& st = pin->stitched();
    ScopedSpan s(tr, "pattern.bmatch_kernel");
    return BooleanMatch(st.gr, q);
  }

  template <typename Pin>
  MatchResult TraceExpand(const Pin& pin, const PatternQuery& q, Tracer* tr) {
    const StitchedPatternQuotient& st = pin->stitched();
    ScopedSpan root(tr, "layer.match");
    MatchResult on_gr;
    {
      ScopedSpan s(tr, "pattern.match_kernel");
      on_gr = Match(st.gr, q);
    }
    ScopedSpan s(tr, "core.expand");
    return ExpandMatchWith(
        st.gr.num_nodes(), st.node_map,
        [&st, &pin](NodeId b) {
          const auto& [shard, block] = st.origin[b];
          return pin->shard(shard).pattern_block_members(block);
        },
        on_gr);
  }

  // Per-round router and summary layers, on fresh objects so the service's
  // own caches are not disturbed. The route-table probe asks the first
  // cross-shard pair of the round's last reach block.
  void TraceRound(Tracer* tr,
                  const std::vector<std::pair<NodeId, NodeId>>& block) {
    const ShardPartition& part = mgr_->partition();
    NodeId u = block.front().first, v = block.front().second;
    for (const auto& [a, b] : block) {
      if (part.shard_of[a] != part.shard_of[b]) {
        u = a;
        v = b;
        break;
      }
    }
    {
      uint64_t shards = 0;
      ScopedSpan s(tr, "serve.pin_block", kPinBlock);
      for (size_t i = 0; i < kPinBlock; ++i) {
        shards += svc_->Pin()->num_shards();
      }
      QPGC_CHECK(shards > 0);
    }
    const std::vector<std::shared_ptr<const ServingSnapshot>> snaps =
        mgr_->AcquireAll();
    {
      ScopedSpan s(tr, "serve.router.stitch");
      const StitchedPatternQuotient st =
          BuildStitchedPatternQuotient(mgr_->partition(), snaps);
      QPGC_CHECK(st.gr.num_nodes() > 0);
    }
    {
      const PinnedShards fresh(mgr_->partition_ptr(), snaps);
      bool first = false, warm = false;
      {
        ScopedSpan s(tr, "serve.router.first_reach");
        first = fresh.Reach(u, v);
      }
      {
        ScopedSpan s(tr, "serve.router.warm_reach");
        warm = fresh.Reach(u, v);
      }
      QPGC_CHECK(first == warm);
    }
    ScopedSpan root(tr, "layer.summary");
    for (const auto& snap : snaps) {
      FrozenBoundarySummary summary;
      ScopedSpan s(tr, "serve.summary.build");
      summary.Build(snap->reach_gr(), snap->reach_map(),
                    snap->boundary_exits_ptr(),
                    snap->boundary_summary()->entries_ptr());
    }
  }

  size_t ResidentBytes() const {
    size_t bytes = 0;
    const auto pin = svc_->Pin();
    for (uint32_t s = 0; s < kNumShards; ++s) {
      bytes += pin->shard(s).MemoryBytes();
    }
    return bytes;
  }
  size_t ReachSideBytes() const {
    size_t bytes = 0;
    const auto pin = svc_->Pin();
    for (uint32_t s = 0; s < kNumShards; ++s) {
      bytes += pin->shard(s).reach_side()->MemoryBytes();
    }
    return bytes;
  }
  size_t PatternSideBytes() const {
    size_t bytes = 0;
    const auto pin = svc_->Pin();
    for (uint32_t s = 0; s < kNumShards; ++s) {
      bytes += pin->shard(s).pattern_side()->MemoryBytes();
    }
    return bytes;
  }
  size_t SummaryBytes() const {
    size_t bytes = 0;
    const auto pin = svc_->Pin();
    for (uint32_t s = 0; s < kNumShards; ++s) {
      bytes += pin->shard(s).boundary_summary()->MemoryBytes();
    }
    return bytes;
  }
  size_t ReachGrNodes() const {
    size_t nodes = 0;
    const auto pin = svc_->Pin();
    for (uint32_t s = 0; s < kNumShards; ++s) {
      nodes += pin->shard(s).reach_gr().num_nodes();
    }
    return nodes;
  }
  CacheStats Cache() const { return {}; }

  Status Save(const std::string& dir, std::vector<std::string>* paths) {
    paths->clear();
    const auto pin = svc_->Pin();
    for (uint32_t s = 0; s < kNumShards; ++s) {
      paths->push_back(dir + "/shard" + std::to_string(s) + ".qpgc");
      storage::SaveOptions options;
      options.shard = s;
      options.num_shards = kNumShards;
      options.partition = &pin->partition();
      const Status st = storage::SaveSnapshot(pin->shard(s), paths->back(),
                                              options);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  Status ColdStart(const std::vector<std::string>& paths, NodeId u, NodeId v,
                   Tracer* tr, bool* answer) {
    std::optional<Result<storage::LoadedShardSet>> loaded;
    {
      ScopedSpan s(tr, "storage.load_shard_set");
      loaded.emplace(
          storage::LoadShardSet(paths, storage::LoadOptions{true, true}));
    }
    if (!loaded->ok()) return loaded->status();
    ScopedSpan s(tr, "storage.first_reach");
    const PinnedShards pins(loaded->value().partition,
                            loaded->value().snapshots);
    *answer = pins.Reach(u, v);
    return Status::Ok();
  }

  Status TraceOpenTrusted(const std::vector<std::string>& paths, Tracer* tr) {
    ScopedSpan s(tr, "storage.open_trusted");
    for (const std::string& p : paths) {
      const Status st = storage::MmapSnapshot::Open(p).status();
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }
  Status TraceOpenVerified(const std::vector<std::string>& paths, Tracer* tr) {
    ScopedSpan s(tr, "storage.open_verified");
    for (const std::string& p : paths) {
      const Status st =
          storage::MmapSnapshot::Open(p, storage::LoadOptions{true, true})
              .status();
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  double LocalShare(const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
    if (pairs.empty()) return 0.0;
    size_t local = 0;
    const ShardPartition& part = mgr_->partition();
    for (const auto& [u, v] : pairs) {
      local += part.shard_of[u] == part.shard_of[v] ? 1 : 0;
    }
    return static_cast<double>(local) / static_cast<double>(pairs.size());
  }
  double StitchReuse() const { return svc_->stitch_stats().reuse_ratio(); }

 private:
  const Graph& base_;
  Graph mirror_;
  std::unique_ptr<ShardedSnapshotManager> mgr_;
  std::unique_ptr<ShardedQueryService> svc_;
  ShardPartition part_;
  std::vector<Graph> shards_;
  std::vector<ReachCompression> rcs_;
  std::vector<PatternCompression> pcs_;
};

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kBaseSeconds;
  bool trace = false;
  std::string scratch = ".";
  std::string trace_out;
};

class Run {
 public:
  Run(const Spec& spec, const Args& args, std::vector<int> reader_cpus)
      : spec_(spec), args_(args), reader_cpus_(std::move(reader_cpus)) {}

  template <typename Backend>
  int Execute(Backend& be, const Graph& base);

 private:
  // Fails the run (correct = false) with a message on stderr.
  bool Mismatch(const std::string& what) {
    std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
    correct_ = false;
    return false;
  }

  template <typename Backend>
  bool CheckAgainstOracle(Backend& be, Rng& rng, const char* where);

  // One closed-loop segment: kReaders reader threads (64 reach + 1
  // BooleanMatch per pin) run while the client applies and publishes
  // `batches` batches; adds the reads completed and the wall time from
  // start until the readers joined. Returns the batches applied.
  template <typename Backend>
  std::vector<UpdateBatch> ClosedLoop(Backend& be, size_t batches,
                                      size_t* batch_index, uint64_t* reads,
                                      double* secs);

  // Saves the current state and reopens it on the verifying path, one
  // warm-up open and then plan.opens_per_check timed ones, each answering
  // one Reach that is checked against BFS. False on a wrong answer.
  template <typename Backend>
  bool ColdStarts(Backend& be, size_t checkpoint, Tracer* tracer,
                  Samples* cold_ms, size_t* artifact_bytes, Digest* digest);

  void Emit(const std::vector<Metric>& metrics) const;

  const Spec& spec_;
  const Args& args_;
  std::vector<int> reader_cpus_;
  std::vector<PatternQuery> patterns_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

template <typename Backend>
bool Run::CheckAgainstOracle(Backend& be, Rng& rng, const char* where) {
  const Graph& g = be.Truth();
  const auto pin = be.Pin();
  const size_t n = g.num_nodes();
  WorkloadSampler sampler(spec_.reads, n);
  for (size_t i = 0; i < kCheckPairs; ++i) {
    // Half from the workload's own distribution, half uniform.
    const auto [u, v] =
        i % 2 == 0 ? sampler.SampleReachPair(rng)
                   : std::pair<NodeId, NodeId>{
                         static_cast<NodeId>(rng.Uniform(n)),
                         static_cast<NodeId>(rng.Uniform(n))};
    if (pin->Reach(u, v) != BfsReaches(g, u, v, PathMode::kReflexive)) {
      return Mismatch(std::string(where) + ": Reach(" + std::to_string(u) +
                      ", " + std::to_string(v) + ")");
    }
  }
  for (size_t i = 0; i < kCheckPatterns; ++i) {
    const PatternQuery& q = patterns_[rng.Uniform(patterns_.size())];
    const MatchResult want = Match(g, q);
    if (pin->BooleanMatch(q) != want.matched) {
      return Mismatch(std::string(where) + ": BooleanMatch");
    }
    if (!(pin->Match(q) == want)) {
      return Mismatch(std::string(where) + ": Match");
    }
  }
  return true;
}

template <typename Backend>
std::vector<UpdateBatch> Run::ClosedLoop(Backend& be, size_t batches,
                                         size_t* batch_index, uint64_t* reads,
                                         double* secs) {
  std::vector<UpdateBatch> applied;
  const size_t n = be.Truth().num_nodes();
  const uint64_t segment = *batch_index;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> done(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r, segment] {
      // Threads inherit the client's single-CPU mask; move the readers to
      // the other allowed CPUs.
      if (!reader_cpus_.empty()) PinCurrentThread(reader_cpus_);
      Rng rng(Mix64(args_.seed + 100 * (segment + 1) +
                    static_cast<uint64_t>(r)));
      const WorkloadSampler sampler(spec_.reads, n);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pin = be.Pin();
        for (size_t i = 0; i < kReachesPerPin; ++i) {
          const auto [u, v] = sampler.SampleReachPair(rng);
          (void)pin->Reach(u, v);
        }
        (void)pin->BooleanMatch(
            patterns_[sampler.SamplePatternIndex(rng, patterns_.size())]);
        done[r] += kReachesPerPin + 1;
      }
    });
  }
  const int64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (size_t b = 0; b < batches; ++b) {
    applied.push_back(
        NextBatch(spec_, be.Truth(), args_.seed, (*batch_index)++));
    be.Update(applied.back(), nullptr);
    ++attempted_;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  *secs += static_cast<double>(NowNs() - t0) * 1e-9;
  for (const uint64_t d : done) {
    *reads += d;
    attempted_ += d;
  }
  return applied;
}

template <typename Backend>
bool Run::ColdStarts(Backend& be, size_t checkpoint, Tracer* tracer,
                     Samples* cold_ms, size_t* artifact_bytes,
                     Digest* digest) {
  std::vector<std::string> paths;
  {
    ScopedSpan s(tracer, "storage.save");
    const Status saved = be.Save(args_.scratch, &paths);
    ++attempted_;
    if (!saved.ok()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: save failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  *artifact_bytes = 0;
  for (const std::string& p : paths) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(p, ec);
    if (!ec) *artifact_bytes += static_cast<size_t>(size);
  }
  const WorkloadSampler sampler(spec_.reads, be.Truth().num_nodes());
  bool correct = true;
  Rng open_rng(Mix64(args_.seed ^ (0xc01dull + checkpoint)));
  for (size_t i = 0; i <= spec_.plan.opens_per_check && correct; ++i) {
    const auto [u, v] = sampler.SampleReachPair(open_rng);
    // The traced run records spans in every other open.
    Tracer* traced = i % 2 == 1 ? tracer : nullptr;
    bool answer = false;
    Status st = Status::Ok();
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(traced, "e2e.cold_start");
      st = be.ColdStart(paths, u, v, traced, &answer);
    }
    const int64_t t1 = NowNs();
    ++attempted_;
    if (!st.ok()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: cold start failed: %s\n",
                   st.ToString().c_str());
      continue;
    }
    if (answer != BfsReaches(be.Truth(), u, v, PathMode::kReflexive)) {
      correct = Mismatch("cold start Reach(" + std::to_string(u) + ", " +
                         std::to_string(v) + ")");
    }
    digest->Add(answer ? 1 : 0);
    if (i > 0) {
      cold_ms->Add(static_cast<double>(t1 - t0) * 1e-6, traced != nullptr);
    }
    if (tracer != nullptr) {
      for (const Status& extra : {be.TraceOpenTrusted(paths, tracer),
                                  be.TraceOpenVerified(paths, tracer)}) {
        if (!extra.ok()) {
          ++failed_;
          std::fprintf(stderr, "perfbench: open failed: %s\n",
                       extra.ToString().c_str());
        }
      }
    }
  }
  for (const std::string& p : paths) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
  return correct;
}

void Run::Emit(const std::vector<Metric>& metrics) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

template <typename Backend>
int Run::Execute(Backend& be, const Graph& base) {
  const Plan& plan = spec_.plan;
  const bool trace = args_.trace;
  Tracer tracer;
  patterns_ = ServeLoadPatterns(base, kNumPatterns, kPatternSeed);
  QPGC_CHECK(patterns_.size() == kNumPatterns);
  Digest digest;

  // --- Setup: median of several constructor runs; the last build serves.
  std::vector<double> setup_secs;
  for (size_t b = 0; b < plan.setup_builds; ++b) {
    setup_secs.push_back(be.Build());
    if (trace) {
      be.TraceSetup(&tracer, /*freeze_full=*/b + 1 < plan.setup_builds);
    }
  }
  const size_t gr_nodes_start = be.ReachGrNodes();

  Rng check_rng(Mix64(args_.seed ^ 0xc4ecull));
  if (!CheckAgainstOracle(be, check_rng, "after setup")) {
    Emit({});
    return 1;
  }

  // --- Latency rounds (one client thread).
  const size_t n = base.num_nodes();
  WorkloadSampler sampler(spec_.reads, n);
  Samples reach_us, bmatch_us, match_us, update_ms;
  IncRcmStats rcm_total;
  IncPcmStats pcm_total;
  size_t effective_total = 0;
  size_t rcm_cone = 0, pcm_cone = 0, sides_frozen = 0, sides_total = 0;
  std::vector<std::pair<NodeId, NodeId>> stream_pairs;
  size_t batch_index = 0;
  std::vector<std::pair<NodeId, NodeId>> block(plan.reach_block);
  std::vector<int64_t> call_ns(plan.reach_block, 0);
  // Cache counters of the single-threaded phases only (deterministic per
  // seed): the closed-loop segments' lookups are subtracted out.
  CacheStats cache;
  CacheStats cache_mark;
  uint64_t loop_reads = 0;
  double loop_secs = 0.0;
  Samples cold_ms;
  size_t artifact_bytes = 0;
  // Pattern draws: one deck slice per round (bmatches, then matches).
  const size_t pattern_slice = plan.bmatches + plan.matches;
  const std::vector<size_t> pattern_deck =
      Deck(PatternWeights(spec_.reads, patterns_.size()),
           pattern_slice * (plan.rounds + 1), Mix64(args_.seed ^ 0xdecull));
  Rng read_rng(Mix64(args_.seed ^ 0x4ead5ull));

  for (size_t round = 0; round <= plan.rounds; ++round) {
    const bool measured = round > 0;  // round 0 is the warm-up
    // The traced run records e2e spans in odd rounds only; the even rounds
    // are its untraced half, and the difference is the tracing overhead.
    const bool traced_round = trace && round % 2 == 1;
    Tracer* e2e = traced_round ? &tracer : nullptr;
    // Layer calls run in every round of the traced run (the replica must
    // see every batch) but record spans only in measured rounds.
    Tracer* round_layer = trace && measured ? &tracer : nullptr;

    const UpdateBatch batch =
        NextBatch(spec_, be.Truth(), args_.seed, batch_index++);
    if (trace) {
      // Replayed first: both sides see the same pre-batch graph.
      IncRcmStats rcm;
      IncPcmStats pcm;
      size_t effective = 0;
      be.TraceBatch(batch, round_layer, &rcm, &pcm, &effective);
      if (measured) {
        rcm_total.Accumulate(rcm);
        pcm_total.Accumulate(pcm);
        effective_total += effective;
      }
    }
    const UpdateOutcome up = be.Update(batch, e2e);
    ++attempted_;
    if (trace && !be.ReplicaMatches()) {
      Mismatch("replica diverged from the served state");
      Emit({});
      return 1;
    }
    if (measured) {
      update_ms.Add(up.secs * 1e3, traced_round);
      rcm_cone += up.rcm_cone;
      pcm_cone += up.pcm_cone;
      sides_frozen += up.sides_frozen;
      sides_total += up.sides_total;
    }

    for (size_t b = 0; b < plan.reach_blocks; ++b) {
      for (auto& pr : block) pr = sampler.SampleReachPair(read_rng);
      uint64_t yes = 0;
      const int64_t t0 = NowNs();
      int64_t pin_ns = 0;
      {
        ScopedSpan root(e2e, "e2e.reach");
        decltype(be.Pin()) pin;
        {
          ScopedSpan s(e2e, "serve.pin");
          pin = be.Pin();
        }
        pin_ns = NowNs() - t0;
        ScopedSpan s(e2e, spec_.sharded ? "serve.router.reach"
                                        : "serve.cache.reach",
                     block.size());
        for (size_t i = 0; i < block.size(); ++i) {
          const int64_t c0 = plan.time_each_reach ? NowNs() : 0;
          yes += pin->Reach(block[i].first, block[i].second) ? 1 : 0;
          if (plan.time_each_reach) call_ns[i] = NowNs() - c0;
        }
      }
      const int64_t t1 = NowNs();
      attempted_ += block.size();
      digest.Add(yes);
      if (measured) {
        const double n_block = static_cast<double>(block.size());
        if (plan.time_each_reach) {
          // Each call plus its share of the block's pin.
          for (const int64_t c : call_ns) {
            reach_us.Add((static_cast<double>(c) +
                          static_cast<double>(pin_ns) / n_block) * 1e-3,
                         traced_round);
          }
        } else {
          reach_us.Add(static_cast<double>(t1 - t0) * 1e-3 / n_block,
                       traced_round);
        }
        stream_pairs.insert(stream_pairs.end(), block.begin(), block.end());
      }
      if (trace && b < kTracedReachBlocks &&
          !be.TraceReachBlock(be.Pin(), block, round_layer, yes)) {
        Mismatch("raw snapshot or EvalReach disagrees with the service");
        Emit({});
        return 1;
      }
    }

    for (size_t i = 0; i < plan.bmatches; ++i) {
      const PatternQuery& q =
          patterns_[pattern_deck[round * pattern_slice + i]];
      bool matched = false;
      const int64_t t0 = NowNs();
      {
        ScopedSpan s(e2e, "e2e.bmatch");
        matched = be.Pin()->BooleanMatch(q);
      }
      const int64_t t1 = NowNs();
      ++attempted_;
      digest.Add(matched ? 1 : 0);
      if (measured) {
        bmatch_us.Add(static_cast<double>(t1 - t0) * 1e-3, traced_round);
      }
      if (trace && be.TraceBMatchKernel(be.Pin(), q, round_layer) != matched) {
        Mismatch("BooleanMatch kernel disagrees with the service");
        Emit({});
        return 1;
      }
    }
    for (size_t i = 0; i < plan.matches; ++i) {
      const PatternQuery& q =
          patterns_[pattern_deck[round * pattern_slice + plan.bmatches + i]];
      MatchResult result;
      const int64_t t0 = NowNs();
      {
        ScopedSpan s(e2e, "e2e.match");
        result = be.Pin()->Match(q);
      }
      const int64_t t1 = NowNs();
      ++attempted_;
      digest.Add(result);
      if (measured) {
        match_us.Add(static_cast<double>(t1 - t0) * 1e-3, traced_round);
      }
      if (trace && !(be.TraceExpand(be.Pin(), q, round_layer) == result)) {
        Mismatch("kernel + expansion disagrees with Match");
        Emit({});
        return 1;
      }
    }
    if (trace) be.TraceRound(round_layer, block);

    // Checkpoint: oracle check, then a closed-loop segment and cold starts
    // from the state saved here. Spreading those phases over the run keeps
    // a short burst of machine load from landing on all of their samples.
    if (measured && round % plan.check_every == 0) {
      if (!CheckAgainstOracle(be, check_rng, "latency rounds")) {
        Emit({});
        return 1;
      }
      AddCacheDelta(be.Cache(), cache_mark, &cache);
      const std::vector<UpdateBatch> loop_batches = ClosedLoop(
          be, plan.loop_batches, &batch_index, &loop_reads, &loop_secs);
      if (trace) {
        // The replica follows the segment's batches too, untimed.
        IncRcmStats rcm;
        IncPcmStats pcm;
        size_t effective = 0;
        for (const UpdateBatch& b : loop_batches) {
          be.TraceBatch(b, nullptr, &rcm, &pcm, &effective);
        }
      }
      // This check may hit entries the readers left in the current
      // version's cache, so its lookups stay out of the counters too.
      const bool loop_ok =
          CheckAgainstOracle(be, check_rng, "after closed loop");
      cache_mark = be.Cache();
      if (!loop_ok ||
          !ColdStarts(be, round / plan.check_every, trace ? &tracer : nullptr,
                      &cold_ms, &artifact_bytes, &digest)) {
        Emit({});
        return 1;
      }
    }
  }
  AddCacheDelta(be.Cache(), cache_mark, &cache);
  const double reads_per_s = static_cast<double>(loop_reads) / loop_secs;

  // --- Sample counts, digest, and the percentile floor.
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu rounds=%zu(+1 warm-up) "
               "samples: reach=%zu (%s of %zu) bmatch=%zu match=%zu "
               "update=%zu setup=%zu cold_start=%zu closed_loop_reads=%llu "
               "in %.3fs\n",
               spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
               plan.rounds, reach_us.all.size(),
               plan.time_each_reach ? "calls in blocks" : "block means",
               plan.reach_block,
               bmatch_us.all.size(), match_us.all.size(),
               update_ms.all.size(), setup_secs.size(), cold_ms.all.size(),
               static_cast<unsigned long long>(loop_reads), loop_secs);
  const size_t resident = be.ResidentBytes();
  std::fprintf(stderr,
               "perfbench: digest answers=%016llx resident_bytes=%zu "
               "rcm_cone=%zu pcm_cone=%zu cache_exact=%llu "
               "cache_subsumption=%llu "
               "cache_misses=%llu cache_negative=%llu\n",
               static_cast<unsigned long long>(digest.h), resident, rcm_cone,
               pcm_cone,
               static_cast<unsigned long long>(cache.reach_exact_hits),
               static_cast<unsigned long long>(cache.reach_subsumption_hits),
               static_cast<unsigned long long>(cache.reach_misses),
               static_cast<unsigned long long>(cache.match_negative_hits));
  if (!trace && (!EnoughTail(reach_us.all.size(), 0.99) ||
                 !EnoughTail(bmatch_us.all.size(), 0.99) ||
                 !EnoughTail(match_us.all.size(), 0.99) ||
                 !EnoughTail(update_ms.all.size(), 0.90))) {
    std::fprintf(stderr, "perfbench: too few samples for the percentiles\n");
    return 2;
  }

  std::vector<Metric> out;
  if (!trace) {
    out = {
        {"setup_s", Median(setup_secs), "s"},
        {"resident_bytes", static_cast<double>(resident), "B"},
        {"reach_p50_us", Percentile(reach_us.all, 0.50), "us"},
        {"reach_p99_us", Percentile(reach_us.all, 0.99), "us"},
        {"bmatch_p50_us", Percentile(bmatch_us.all, 0.50), "us"},
        {"bmatch_p99_us", Percentile(bmatch_us.all, 0.99), "us"},
        {"match_p50_us", Percentile(match_us.all, 0.50), "us"},
        {"match_p99_us", Percentile(match_us.all, 0.99), "us"},
        {"update_p50_ms", Percentile(update_ms.all, 0.50), "ms"},
        {"update_p90_ms", Percentile(update_ms.all, 0.90), "ms"},
        {"cold_start_ms", Median(cold_ms.all), "ms"},
        {"reads_per_s", reads_per_s, "1/s"},
        {"ok_share",
         1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_),
         "1"},
    };
    Emit(out);
    return correct_ ? 0 : 1;
  }

  // --- Traced run: per-layer metrics from the spans.
  // Medians over operations of per-operation self times; `per_call` for
  // the spans that time a block of calls.
  const auto ms = [&](const char* name) {
    return Median(tracer.SelfNs(name, false)) * 1e-6;
  };
  const auto us = [&](const char* name) {
    return Median(tracer.SelfNs(name, false)) * 1e-3;
  };
  const auto per_call_ns = [&](const char* name) {
    return Median(tracer.SelfNs(name, true));
  };
  const auto per_call_us = [&](const char* name) {
    return Median(tracer.SelfNs(name, true)) * 1e-3;
  };
  const auto pct_ms = [&](const char* name, double q) {
    return Percentile(tracer.SelfNs(name, false), q) * 1e-6;
  };
  const auto share = [](size_t num, size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const double route_tables_ms =
      std::max(0.0, ms("serve.router.first_reach") -
                        ms("serve.router.warm_reach"));
  out = {
      {"reach.compress_r_ms", ms("reach.compress_r"), "ms"},
      {"bisim.compress_b_ms", ms("bisim.compress_b"), "ms"},
      {"graph.partition_ms", ms("graph.partition"), "ms"},
      {"serve.manager.freeze_full_ms", ms("serve.manager.freeze_full"), "ms"},
      {"graph.apply_batch_us", us("graph.apply_batch"), "us"},
      {"inc.rcm_p50_ms", pct_ms("inc.rcm", 0.50), "ms"},
      {"inc.rcm_p90_ms", pct_ms("inc.rcm", 0.90), "ms"},
      {"inc.pcm_p50_ms", pct_ms("inc.pcm", 0.50), "ms"},
      {"inc.pcm_p90_ms", pct_ms("inc.pcm", 0.90), "ms"},
      {"inc.rcm_dirty_cone", static_cast<double>(rcm_total.DirtyConeSize()),
       "count"},
      {"inc.pcm_dirty_cone", static_cast<double>(pcm_total.DirtyConeSize()),
       "count"},
      {"inc.rcm_kept_share", share(rcm_total.kept_updates, effective_total),
       "1"},
      {"serve.manager.publish_ms", ms("serve.manager.publish"), "ms"},
      {"serve.manager.sides_frozen_share", share(sides_frozen, sides_total),
       "1"},
      {"serve.summary.build_ms", ms("serve.summary.build"), "ms"},
      {"serve.snapshot.pin_ns", per_call_ns("serve.pin_block"), "ns"},
      {"serve.cache.reach_ns", per_call_ns("serve.cache.reach"), "ns"},
      {"serve.snapshot.reach_ns", per_call_ns("serve.snapshot.reach"), "ns"},
      {"serve.cache.hit_rate", cache.ReachHitRate(), "1"},
      {"serve.cache.exact_hits", static_cast<double>(cache.reach_exact_hits),
       "count"},
      {"serve.cache.subsumption_hits",
       static_cast<double>(cache.reach_subsumption_hits), "count"},
      {"serve.cache.misses", static_cast<double>(cache.reach_misses), "count"},
      {"serve.cache.evictions",
       static_cast<double>(cache.reach_evictions + cache.match_evictions),
       "count"},
      {"serve.cache.negative_hits",
       static_cast<double>(cache.match_negative_hits), "count"},
      {"reach.eval_reach_us", per_call_us("reach.eval_reach"), "us"},
      {"pattern.bmatch_kernel_us", us("pattern.bmatch_kernel"), "us"},
      {"core.expand_us", us("core.expand"), "us"},
      {"serve.router.reach_us", per_call_us("serve.router.reach"), "us"},
      {"serve.router.local_share", be.LocalShare(stream_pairs), "1"},
      {"serve.router.route_tables_ms", route_tables_ms, "ms"},
      {"serve.router.stitch_ms", ms("serve.router.stitch"), "ms"},
      {"serve.router.stitch_reuse_ratio", be.StitchReuse(), "1"},
      {"storage.save_ms", ms("storage.save"), "ms"},
      {"storage.artifact_bytes", static_cast<double>(artifact_bytes), "B"},
      {"storage.open_verified_ms", ms("storage.open_verified"), "ms"},
      {"storage.open_trusted_ms", ms("storage.open_trusted"), "ms"},
      {"storage.load_shard_set_ms", ms("storage.load_shard_set"), "ms"},
      {"storage.first_reach_us", us("storage.first_reach"), "us"},
      {"serve.snapshot.reach_side_bytes",
       static_cast<double>(be.ReachSideBytes()), "B"},
      {"serve.snapshot.pattern_side_bytes",
       static_cast<double>(be.PatternSideBytes()), "B"},
      {"serve.summary.bytes", static_cast<double>(be.SummaryBytes()), "B"},
      {"reach.gr_nodes_start", static_cast<double>(gr_nodes_start), "count"},
      {"reach.gr_nodes_end", static_cast<double>(be.ReachGrNodes()), "count"},
      {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
      {"trace.overhead_reach_p50_us", reach_us.TracingOverhead(), "us"},
      {"trace.overhead_bmatch_p50_us", bmatch_us.TracingOverhead(), "us"},
      {"trace.overhead_match_p50_us", match_us.TracingOverhead(), "us"},
      {"trace.overhead_update_p50_ms", update_ms.TracingOverhead(), "ms"},
      {"trace.overhead_cold_start_ms", cold_ms.TracingOverhead(), "ms"},
  };
  if (!args_.trace_out.empty() && !tracer.WriteJsonLines(args_.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args_.trace_out.c_str());
    return 2;
  }
  Emit(out);
  return correct_ ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--scratch") {
      args->scratch = val;
    } else if (key == "--trace-out") {
      args->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  Spec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeSpec(args.workload, args.seconds, &spec)) {
    std::fprintf(stderr,
                 "usage: qpgc_perfbench --workload "
                 "social-uniform|grid-hot|social-sharded --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--trace-out FILE]\n");
    return 2;
  }
  // The client thread gets one CPU to itself where the OS allows; the
  // closed-loop readers share the rest.
  std::vector<int> cpus = AllowedCpus();
  std::vector<int> reader_cpus = cpus;
  if (!cpus.empty()) {
    if (PinCurrentThread({cpus.front()})) {
      if (cpus.size() > 1) reader_cpus.erase(reader_cpus.begin());
    } else {
      std::fprintf(stderr, "perfbench: client thread not pinned\n");
    }
  }
  const Graph base = spec.grid ? GridGraph() : SocialGraph();
  Run run(spec, args, std::move(reader_cpus));
  if (spec.sharded) {
    ShardedBackend be(base);
    return run.Execute(be, base);
  }
  UnshardedBackend be(base);
  return run.Execute(be, base);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
