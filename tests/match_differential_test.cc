// Copyright 2026 The QPGC Authors.
//
// Differential suite for the bounded-simulation kernel (pattern/match.h):
// Match, MatchFrom and BooleanMatch must give exactly the fixpoints of the
// straightforward oracle (tests/match_oracle.h) on every generator family,
// for bounds 1, 2, 3 and '*', on cyclic, self-loop and repeated-label
// patterns, from warm starts anywhere between the fixpoint and the label
// candidates, and on every view the serving tiers run it on: the dynamic
// Graph, CsrGraph, the mmap-backed MmapCsrGraph and the stitched sharded
// quotient. BooleanMatch(g, q) must equal Match(g, q).matched throughout.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pattern_scheme.h"
#include "gen/adversarial.h"
#include "gen/evolution.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "graph/csr.h"
#include "match_oracle.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"
#include "reach/compress_r.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"
#include "util/rng.h"

namespace qpgc {
namespace {

// One small representative of every generator family.
const std::vector<std::pair<std::string, Graph>>& Corpus() {
  static const auto* corpus = [] {
    auto* c = new std::vector<std::pair<std::string, Graph>>();
    c->emplace_back("uniform", GenerateUniform(120, 420, 4, 7));
    const auto zipf = [](Graph g, uint64_t seed) {
      AssignZipfLabels(g, 4, 1.1, seed);
      return g;
    };
    c->emplace_back("preferential",
                    zipf(PreferentialAttachment(150, 3, 0.5, 11), 12));
    c->emplace_back("copying", zipf(CopyingModel(140, 3, 0.6, 13), 14));
    c->emplace_back("p2p", zipf(LayeredRandom(140, 4, 2, 0.1, 15), 16));
    c->emplace_back("citation", zipf(CitationDag(140, 3, 0.7, 17, 0.05), 18));
    c->emplace_back("internet", zipf(InternetTopology(140, 0.2, 19), 20));
    c->emplace_back("densified", DensifiedGraph(100, 1.2, 1.1, 3, 1, 21));
    c->emplace_back("chain", LongChain(160, 2));
    c->emplace_back("layered", LayeredDag(30, 5, 3, 42));
    c->emplace_back("broom", Broom(50, 60));
    c->emplace_back("grid", zipf(DirectedGrid(11, 11), 22));
    c->emplace_back("tree", CompleteBinaryTree(7));
    return c;
  }();
  return *corpus;
}

// `shape` with every edge bound replaced by `bound`.
PatternQuery WithBound(const PatternQuery& shape, uint32_t bound) {
  PatternQuery q;
  for (uint32_t u = 0; u < shape.num_nodes(); ++u) q.AddNode(shape.label(u));
  for (const PatternEdge& e : shape.edges()) q.AddEdge(e.from, e.to, bound);
  return q;
}

// The pattern deck for one graph: random shapes, a cycle with a repeated
// label, a self-loop, and an all-one-label chain, each at bounds 1, 2, 3
// and '*', plus random mixed-bound patterns.
std::vector<PatternQuery> Deck(const Graph& g) {
  const std::vector<Label> labels = DistinctLabels(g);
  const auto label = [&](size_t i) { return labels[i % labels.size()]; };
  std::vector<PatternQuery> shapes;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    PatternGenOptions options;
    options.num_nodes = 3 + static_cast<uint32_t>(seed % 2);
    options.num_edges = options.num_nodes + 1;
    shapes.push_back(RandomPattern(labels, options, seed));
  }
  {
    PatternQuery cycle;  // a -> b -> c -> a, a and c share a label
    const uint32_t a = cycle.AddNode(label(0));
    const uint32_t b = cycle.AddNode(label(1));
    const uint32_t c = cycle.AddNode(label(0));
    cycle.AddEdge(a, b, 1);
    cycle.AddEdge(b, c, 1);
    cycle.AddEdge(c, a, 1);
    shapes.push_back(std::move(cycle));
  }
  {
    PatternQuery loop;  // a -> a, a -> b
    const uint32_t a = loop.AddNode(label(1));
    const uint32_t b = loop.AddNode(label(2));
    loop.AddEdge(a, a, 1);
    loop.AddEdge(a, b, 1);
    shapes.push_back(std::move(loop));
  }
  {
    PatternQuery same;  // a -> b -> c, one label
    const uint32_t a = same.AddNode(label(0));
    const uint32_t b = same.AddNode(label(0));
    const uint32_t c = same.AddNode(label(0));
    same.AddEdge(a, b, 1);
    same.AddEdge(b, c, 1);
    shapes.push_back(std::move(same));
  }
  std::vector<PatternQuery> deck;
  for (const PatternQuery& shape : shapes) {
    for (const uint32_t bound : {1u, 2u, 3u, kStarBound}) {
      deck.push_back(WithBound(shape, bound));
    }
  }
  for (uint64_t seed = 10; seed < 14; ++seed) {
    PatternGenOptions options;
    options.num_nodes = 4;
    options.num_edges = 5;
    options.max_bound = 3;
    options.star_probability = 0.25;
    deck.push_back(RandomPattern(labels, options, seed));
  }
  return deck;
}

// A random superset of the fixpoint inside the label candidates: every
// candidate outside the fixpoint is kept with probability `density`.
std::vector<std::vector<NodeId>> WarmStart(
    const std::vector<std::vector<NodeId>>& fixpoint,
    const std::vector<std::vector<NodeId>>& candidates, double density,
    Rng& rng) {
  std::vector<std::vector<NodeId>> warm(candidates.size());
  for (size_t u = 0; u < candidates.size(); ++u) {
    size_t f = 0;
    for (const NodeId v : candidates[u]) {
      const bool in_fixpoint = f < fixpoint[u].size() && fixpoint[u][f] == v;
      if (in_fixpoint) ++f;
      if (in_fixpoint || rng.UniformDouble() < density) warm[u].push_back(v);
    }
  }
  return warm;
}

// Checks Match, BooleanMatch and warm-started MatchFrom on `view` against
// the oracle on the same view; returns the oracle's answer.
template <GraphView G>
MatchResult ExpectKernelMatchesOracle(const G& view, const PatternQuery& q,
                                      const std::string& where,
                                      uint64_t seed) {
  const MatchResult want = match_oracle::Match(view, q);
  const MatchResult got = Match(view, q);
  EXPECT_EQ(got.matched, want.matched) << where << " " << q.DebugString();
  EXPECT_EQ(got.fixpoint_sets, want.fixpoint_sets)
      << where << " " << q.DebugString();
  EXPECT_EQ(got.match_sets, want.match_sets) << where;
  EXPECT_EQ(BooleanMatch(view, q), got.matched)
      << where << " " << q.DebugString();

  const std::vector<std::vector<NodeId>> candidates =
      match_oracle::LabelCandidates(view, q);
  Rng rng(seed);
  for (const double density : {0.0, 0.3, 1.0}) {
    const MatchResult warm = MatchFrom(
        view, q, WarmStart(want.fixpoint_sets, candidates, density, rng));
    EXPECT_EQ(warm.fixpoint_sets, want.fixpoint_sets)
        << where << " warm density " << density << " " << q.DebugString();
    EXPECT_EQ(warm.matched, want.matched) << where;
  }
  return want;
}

class MatchDifferential : public ::testing::TestWithParam<size_t> {
 protected:
  const std::string& name() const { return Corpus()[GetParam()].first; }
  const Graph& graph() const { return Corpus()[GetParam()].second; }
};

TEST_P(MatchDifferential, GraphAndCsrAgreeWithOracle) {
  const Graph& g = graph();
  const CsrGraph csr(g);
  const PatternCompression pc = CompressB(g);
  uint64_t seed = 1;
  for (const PatternQuery& q : Deck(g)) {
    const MatchResult on_g =
        ExpectKernelMatchesOracle(g, q, name() + "/graph", ++seed);
    ExpectKernelMatchesOracle(csr, q, name() + "/csr", ++seed);
    // Gr: the same kernel on the quotient, expanded by P, is Qp(G).
    const MatchResult on_gr =
        ExpectKernelMatchesOracle(pc.gr, q, name() + "/gr", ++seed);
    EXPECT_EQ(ExpandMatch(pc, on_gr), on_g) << name();
  }
}

TEST_P(MatchDifferential, MmapViewAgreesWithOracle) {
  const Graph& g = graph();
  ServingSnapshot snap;
  snap.Freeze(1, CompressR(g), CompressB(g));
  const std::string path =
      ::testing::TempDir() + "qpgc_match_differential_" + name() + ".snap";
  ASSERT_TRUE(storage::SaveSnapshot(snap, path).ok());
  Result<storage::MmapSnapshot> opened = storage::MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok());
  const storage::MmapSnapshot& mapped = opened.value();
  uint64_t seed = 100;
  for (const PatternQuery& q : Deck(g)) {
    ExpectKernelMatchesOracle(mapped.pattern_gr(), q, name() + "/mmap",
                              ++seed);
    const MatchResult want = match_oracle::Match(g, q);
    EXPECT_EQ(mapped.Match(q), want) << name();
    EXPECT_EQ(mapped.BooleanMatch(q), want.matched) << name();
    EXPECT_EQ(snap.Match(q), want) << name();
    EXPECT_EQ(snap.BooleanMatch(q), want.matched) << name();
  }
  std::remove(path.c_str());
}

TEST_P(MatchDifferential, StitchedQuotientAgreesWithOracle) {
  const Graph& g = graph();
  ShardedManagerOptions options;
  options.num_shards = 3;
  ShardedSnapshotManager mgr(g, options);
  const auto snaps = mgr.AcquireAll();
  const StitchedPatternQuotient st =
      BuildStitchedPatternQuotient(mgr.partition(), snaps);
  const ShardedQueryService service(mgr);
  const auto pins = service.Pin();
  uint64_t seed = 200;
  for (const PatternQuery& q : Deck(g)) {
    ExpectKernelMatchesOracle(st.gr, q, name() + "/stitched", ++seed);
    const MatchResult want = match_oracle::Match(g, q);
    EXPECT_EQ(pins->Match(q), want) << name();
    EXPECT_EQ(pins->BooleanMatch(q), want.matched) << name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MatchDifferential,
    ::testing::Range<size_t>(0, Corpus().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return Corpus()[info.param].first;
    });

// The scratch epoch wraps after ~2^31 prunes; a prune right after the wrap
// must not see stale stamps.
TEST(MatchScratchTest, EpochWrapClearsStaleStamps) {
  match_detail::MatchScratch scratch(4);
  scratch.epoch = UINT32_MAX - 3;
  scratch.near.assign(4, 2);
  scratch.hit.assign(4, 3);
  const uint32_t e = scratch.NextEpoch();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NE(scratch.near[i], e);
    EXPECT_NE(scratch.near[i], e + 1);
    EXPECT_NE(scratch.hit[i], e);
    EXPECT_NE(scratch.hit[i], e + 1);
  }
  EXPECT_GT(scratch.NextEpoch(), e + 1);
}

}  // namespace
}  // namespace qpgc
