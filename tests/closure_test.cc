// Copyright 2026 The QPGC Authors.

#include "graph/closure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/adversarial.h"
#include "gen/uniform.h"
#include "graph/condensation.h"
#include "graph/topology.h"
#include "graph/traversal.h"

namespace qpgc {
namespace {

TEST(ClosureTest, FullClosureNonEmptySemantics) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);  // cycle {0,1,2}
  g.AddEdge(2, 3);
  const BitMatrix c = FullClosure(g);
  EXPECT_TRUE(c.Test(0, 0));  // on cycle: reaches itself non-emptily
  EXPECT_TRUE(c.Test(0, 3));
  EXPECT_FALSE(c.Test(3, 3));  // leaf does not reach itself
  EXPECT_FALSE(c.Test(3, 0));
}

TEST(ClosureTest, BackwardClosureIsTranspose) {
  const Graph g = GenerateUniform(60, 150, 1, 5);
  const BitMatrix fwd = FullClosure(g, Direction::kForward);
  const BitMatrix bwd = FullClosure(g, Direction::kBackward);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(fwd.Test(u, v), bwd.Test(v, u));
    }
  }
}

TEST(ClosureTest, FullClosureMatchesBfs) {
  const Graph g = GenerateUniform(50, 120, 1, 6);
  const BitMatrix c = FullClosure(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(c.Test(u, v), BfsReaches(g, u, v, PathMode::kNonEmpty))
          << u << " -> " << v;
    }
  }
}

TEST(ClosureTest, DagClosureMatchesFullClosureOnDag) {
  // Random DAG via condensation of a random graph.
  const Graph g = GenerateUniform(80, 240, 1, 7);
  const Condensation cond = BuildCondensation(g);
  const Graph& dag = cond.dag;
  const BitMatrix blocked = DagClosure(dag, {});
  const BitMatrix reference = FullClosure(dag);
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      EXPECT_EQ(blocked.Test(u, v), reference.Test(u, v));
    }
  }
}

TEST(ClosureTest, SelfSeedAugmentation) {
  // DAG 0 -> 1; seed node 0 as "cyclic": its own bit must appear.
  Graph dag(2);
  dag.AddEdge(0, 1);
  const std::vector<uint8_t> seed = {1, 0};
  const BitMatrix c = DagClosure(dag, seed);
  EXPECT_TRUE(c.Test(0, 0));
  EXPECT_TRUE(c.Test(0, 1));
  EXPECT_FALSE(c.Test(1, 1));
}

TEST(ClosureTest, SelfLoopEdgeBehavesLikeSeed) {
  Graph dag(2);
  dag.AddEdge(0, 0);
  dag.AddEdge(0, 1);
  const BitMatrix c = DagClosure(dag, {});
  EXPECT_TRUE(c.Test(0, 0));
  EXPECT_FALSE(c.Test(1, 1));
}

TEST(ClosureTest, BlockedSweepEqualsFullWidth) {
  const Graph g = GenerateUniform(70, 200, 1, 8);
  const Condensation cond = BuildCondensation(g);
  const Graph& dag = cond.dag;
  const size_t n = dag.num_nodes();
  const auto order = ReverseTopologicalOrder(dag);
  const BitMatrix reference = DagClosure(dag, {});

  const size_t block = 17;  // deliberately odd block width
  for (size_t start = 0; start < n; start += block) {
    const size_t cols = std::min(block, n - start);
    BitMatrix out(n, cols);
    BlockDescendants(dag, order, {}, start, cols, Direction::kForward, out);
    for (NodeId u = 0; u < n; ++u) {
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(out.Test(u, c), reference.Test(u, start + c));
      }
    }
  }
}

// Every block start, both directions, self-seeds on a third of the nodes,
// and one output matrix reused across blocks of equal width. The DAGs are
// sparse (mostly isolated nodes, or a broom's bristles), so most rows of a
// block are empty and the sweep's zero-row skip carries most of the work.
TEST(ClosureTest, BlockDescendantsEqualsFullClosureWithEmptyRows) {
  std::vector<Graph> dags;
  dags.push_back(BuildCondensation(GenerateUniform(300, 90, 1, 21)).dag);
  dags.push_back(BuildCondensation(GenerateUniform(200, 260, 1, 22)).dag);
  dags.push_back(Broom(40, 150));
  for (const Graph& dag : dags) {
    const size_t n = dag.num_nodes();
    std::vector<uint8_t> seed(n, 0);
    for (NodeId v = 0; v < n; v += 3) seed[v] = 1;
    for (const Direction dir : {Direction::kForward, Direction::kBackward}) {
      const BitMatrix full = FullClosure(dag, dir);
      const auto order = dir == Direction::kForward
                             ? ReverseTopologicalOrder(dag)
                             : TopologicalOrder(dag);
      for (const size_t block :
           {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
        BitMatrix out(n, block);
        for (size_t start = 0; start < n; start += block) {
          const size_t cols = std::min(block, n - start);
          if (cols != out.cols()) out = BitMatrix(n, cols);
          BlockDescendants(dag, order, seed, start, cols, dir, out);
          for (NodeId u = 0; u < n; ++u) {
            for (size_t c = 0; c < cols; ++c) {
              const NodeId t = static_cast<NodeId>(start + c);
              const bool want = full.Test(u, t) || (u == t && seed[u]);
              ASSERT_EQ(out.Test(u, c), want)
                  << "n=" << n << " block=" << block << " u=" << u
                  << " t=" << t;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qpgc
