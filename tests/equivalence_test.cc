// Copyright 2026 The QPGC Authors.

#include "reach/equivalence.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"

namespace qpgc {
namespace {

TEST(EquivalenceTest, ParallelSiblingsMerge) {
  // 0 -> {2,3}, 1 -> {2,3}: nodes 0 and 1 share ancestors (none) and
  // descendants {2,3} — equivalent. 2 and 3 share ancestors {0,1} and
  // descendants (none) — equivalent.
  Graph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.num_classes, 2u);
  EXPECT_EQ(p.class_of[0], p.class_of[1]);
  EXPECT_EQ(p.class_of[2], p.class_of[3]);
  EXPECT_NE(p.class_of[0], p.class_of[2]);
}

TEST(EquivalenceTest, DifferentDescendantsSeparate) {
  // 0 -> 2, 1 -> 3: desc differ.
  Graph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_NE(p.class_of[0], p.class_of[1]);
}

TEST(EquivalenceTest, CyclicClassIsItsScc) {
  // Cycle {0,1} and a sibling trivial node 2 with the same DAG profile:
  // 3 -> {0, 2}, {0,1,2} -> 4. The cyclic pair must NOT merge with node 2
  // (members of a cyclic class reach themselves; 2 does not).
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(3, 0);
  g.AddEdge(3, 2);
  g.AddEdge(0, 4);
  g.AddEdge(2, 4);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.class_of[0], p.class_of[1]);  // same SCC
  EXPECT_NE(p.class_of[0], p.class_of[2]);  // augmentation separates
  EXPECT_TRUE(p.cyclic[p.class_of[0]]);
  EXPECT_FALSE(p.cyclic[p.class_of[2]]);
}

TEST(EquivalenceTest, IsolatedNodesMerge) {
  Graph g(3);
  g.AddEdge(0, 1);
  // Nodes 2 is isolated; node 1 is a sink with ancestor {0} — not equal.
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_NE(p.class_of[1], p.class_of[2]);
  Graph h(3);  // all isolated: one class
  const ReachPartition q = ComputeReachEquivalence(h);
  EXPECT_EQ(q.num_classes, 1u);
}

TEST(EquivalenceTest, MembersConsistentWithClassOf) {
  const Graph g = GenerateUniform(100, 300, 1, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  size_t total = 0;
  for (NodeId c = 0; c < p.num_classes; ++c) {
    total += p.members[c].size();
    for (NodeId v : p.members[c]) EXPECT_EQ(p.class_of[v], c);
  }
  EXPECT_EQ(total, g.num_nodes());
}

// The blocked refinement must agree exactly with the paper's per-node BFS
// reference, across generator families and block sizes.
class EquivalenceAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceAgreementTest, BlockedMatchesReference) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 4) {
    case 0:
      g = GenerateUniform(120, 420, 1, seed);
      break;
    case 1:
      g = PreferentialAttachment(120, 3, 0.5, seed);
      break;
    case 2:
      g = CitationDag(120, 4, 0.5, seed);
      break;
    default:
      g = LayeredRandom(120, 5, 3, 0.1, seed);
      break;
  }
  const ReachPartition fast = ComputeReachEquivalence(g, /*block_cols=*/19);
  const ReachPartition ref = ComputeReachEquivalenceRef(g);
  EXPECT_EQ(fast.CanonicalClasses(), ref.CanonicalClasses())
      << "seed=" << seed;
  // Cyclic flags must agree per class.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(fast.cyclic[fast.class_of[v]], ref.cyclic[ref.class_of[v]]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceAgreementTest,
                         ::testing::Range<uint64_t>(1, 17));

// k cycles {c, c'} and k trivial nodes t, all between one source and one
// sink: every cycle is its own class (it reaches itself), the trivial
// siblings form one class.
Graph CyclesBetweenSourceAndSink(size_t k) {
  Graph g(2 + 3 * k);
  const NodeId source = 0, sink = 1;
  for (size_t i = 0; i < k; ++i) {
    const NodeId c = static_cast<NodeId>(2 + 3 * i);
    g.AddEdge(c, c + 1);
    g.AddEdge(c + 1, c);
    g.AddEdge(source, c);
    g.AddEdge(source, c + 2);
    g.AddEdge(c + 1, sink);
    g.AddEdge(c + 2, sink);
  }
  return g;
}

// k gadgets a -> s, b -> s, p -> a with a sink s per gadget: a and b have
// equal descendants, so the forward pass leaves every (a, b) pair tied and
// only the backward pass (p is an ancestor of a alone) splits them.
Graph TiesOnlyBackwardSplits(size_t k) {
  Graph g(4 * k);
  for (size_t i = 0; i < k; ++i) {
    const NodeId a = static_cast<NodeId>(4 * i), b = a + 1, s = a + 2,
                 p = a + 3;
    g.AddEdge(a, s);
    g.AddEdge(b, s);
    g.AddEdge(p, a);
  }
  return g;
}

struct Family {
  std::string name;
  Graph g;
};

std::vector<Family> AgreementGraphs() {
  return {
      {"grid", DirectedGrid(17, 19)},
      {"chain", LongChain(300)},
      {"broom", Broom(100, 200)},
      {"layered_dag", LayeredDag(10, 30, 2, 5)},
      {"binary_tree", CompleteBinaryTree(8)},
      {"uniform", GenerateUniform(300, 900, 1, 11)},
      {"dense_uniform", GenerateUniform(200, 700, 1, 12)},
      {"preferential", PreferentialAttachment(300, 3, 0.5, 13)},
      {"citation", CitationDag(300, 4, 0.5, 14)},
      {"layered_random", LayeredRandom(300, 5, 3, 0.1, 15)},
      {"cycles", CyclesBetweenSourceAndSink(40)},
      {"backward_ties", TiesOnlyBackwardSplits(70)},
  };
}

// Every block width that leaves a partial last word (63, 65, 257), a full
// one (64), one-bit rows (1), and the default: the blocked refinement with
// its singleton skip and early exit must equal the reference exactly.
class EquivalenceBlockColsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EquivalenceBlockColsTest, MatchesReferenceOnEveryFamily) {
  const size_t block_cols = GetParam();
  for (const auto& [name, g] : AgreementGraphs()) {
    const ReachPartition fast = block_cols == 0
                                    ? ComputeReachEquivalence(g)
                                    : ComputeReachEquivalence(g, block_cols);
    const ReachPartition ref = ComputeReachEquivalenceRef(g);
    ASSERT_EQ(fast.CanonicalClasses(), ref.CanonicalClasses()) << name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(fast.cyclic[fast.class_of[v]], ref.cyclic[ref.class_of[v]])
          << name << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockCols, EquivalenceBlockColsTest,
    ::testing::Values(size_t{1}, size_t{63}, size_t{64}, size_t{65},
                      size_t{257}, size_t{0}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return info.param == 0 ? std::string("default")
                             : "cols" + std::to_string(info.param);
    });

TEST(EquivalenceTest, BackwardPassSplitsForwardTies) {
  const ReachPartition p = ComputeReachEquivalence(TiesOnlyBackwardSplits(3));
  EXPECT_EQ(p.num_classes, 12u);  // every node alone, although a ~fwd b
  const ReachPartition q =
      ComputeReachEquivalence(CyclesBetweenSourceAndSink(3));
  EXPECT_EQ(q.num_classes, 6u);  // source, sink, 3 cycles, the siblings
}

TEST(EquivalenceTest, EmptyGraph) {
  Graph g(0);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.num_classes, 0u);
}

}  // namespace
}  // namespace qpgc
