// Copyright 2026 The QPGC Authors.
//
// compressB (Section 4): graph pattern preserving compression <R, F, P>.
//   R — quotient of G by the maximum bisimulation Rb (labels preserved; all
//       quotient edges kept — the quotient is *stable*: every member of a
//       block has a successor in each successor block).
//   F — the identity: the same pattern query runs on Gr.
//   P — hypernode expansion: replace each [v] in the match by its members,
//       linear in the answer size. Boolean queries need no P.
// Theorem 4: Qp(G) = P(Qp(Gr)) for every bounded-simulation pattern.
//
// The compression pipeline is a GraphView template; the `const Graph&`
// entry point freezes a CsrGraph snapshot once and runs both the partition
// refinement and the quotient construction on the flat layout.

#ifndef QPGC_CORE_PATTERN_SCHEME_H_
#define QPGC_CORE_PATTERN_SCHEME_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bisim/engine.h"
#include "bisim/max_bisimulation.h"
#include "bisim/partition.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "pattern/match.h"
#include "pattern/pattern.h"

namespace qpgc {

/// Options for compressB.
struct CompressBOptions {
  /// Which maximum-bisimulation engine computes the partition (see
  /// bisim/engine.h; every engine yields the identical quotient).
  BisimEngine engine = BisimEngine::kPaigeTarjan;
};

/// The pattern preserving compression artifact.
struct PatternCompression {
  /// The compressed graph Gr: quotient by Rb, labels preserved.
  Graph gr;
  /// node_map[v] = R(v), the Gr-node (bisimulation block) of node v.
  std::vector<NodeId> node_map;
  /// members[c] = original nodes of block c (the inverse index P uses).
  std::vector<std::vector<NodeId>> members;
  /// |V| and |G| of the original, for ratio reporting.
  size_t original_num_nodes = 0;
  size_t original_size = 0;

  size_t size() const { return gr.size(); }
  /// PCr = |Gr| / |G|.
  double CompressionRatio() const {
    return original_size == 0 ? 1.0
                              : static_cast<double>(size()) /
                                    static_cast<double>(original_size);
  }
  size_t MemoryBytes() const;
};

/// Builds the compression from a precomputed bisimulation partition (used by
/// the incremental algorithm and tests).
template <GraphView G>
PatternCompression CompressBFromPartition(const G& g, const Partition& p) {
  PatternCompression pc;
  pc.original_num_nodes = g.num_nodes();
  pc.original_size = ViewSize(g);
  pc.node_map = p.block_of;
  pc.members.assign(p.num_blocks, {});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    pc.members[p.block_of[v]].push_back(v);
  }

  GraphBuilder builder(p.num_blocks);
  for (NodeId c = 0; c < p.num_blocks; ++c) {
    QPGC_CHECK(!pc.members[c].empty());
    builder.SetLabel(static_cast<NodeId>(c), g.label(pc.members[c][0]));
  }
  ForEachEdge(g, [&](NodeId u, NodeId v) {
    builder.AddEdge(p.block_of[u], p.block_of[v]);
  });
  pc.gr = builder.Build();
  return pc;
}

/// Computes Gr = R(G) via the maximum bisimulation, on any view.
template <GraphView G>
PatternCompression CompressB(const G& g, const CompressBOptions& options = {}) {
  return CompressBFromPartition(g, MaxBisimulation(g, options.engine));
}

// Non-template Graph entry points (compiled once in pattern_scheme.cc).
// CompressB freezes a CsrGraph snapshot and runs the pipeline on it.
PatternCompression CompressBFromPartition(const Graph& g, const Partition& p);
PatternCompression CompressB(const Graph& g, const CompressBOptions& options = {});

/// The post-processing function P over any member representation: expands
/// the block-level match `on_gr` through `members_of` (block id -> range of
/// member node ids, used only for size pre-reservation) and `node_map`
/// (node -> block; kInvalidNode marks nodes outside every expandable block
/// — sharded serving's ghost nodes). One pass over the node map: each block
/// carries a mask of the pattern nodes whose answer holds it, and every
/// node is appended to the sets its block's mask names, so the sets come
/// out ascending without a sort. Every node reads all ⌈|Q|/64⌉ mask words
/// of its block, so a call costs O((|V| + |Vr|)·⌈|Q|/64⌉ + |Qp(G)|), i.e.
/// O(|V| + |Qp(G)|) when |Q| <= 64. The fixpoint sets stay empty: P
/// expands answers only, and the block-level fixpoint is an
/// evaluation-internal artifact.
/// This single implementation serves both the artifact-level overloads
/// below (vector-of-vectors member index) and the frozen serving snapshot
/// (flattened member index; serve/snapshot.cc).
template <typename MembersFn>
MatchResult ExpandMatchWith(size_t num_blocks, std::span<const NodeId> node_map,
                            MembersFn&& members_of,
                            const MatchResult& on_gr) {
  MatchResult expanded;
  expanded.matched = on_gr.matched;
  const size_t num_sets = on_gr.match_sets.size();
  expanded.match_sets.resize(num_sets);
  if (!on_gr.matched || num_sets == 0) return expanded;

  // masks[block * words + u / 64] bit u % 64: block is in answer set u.
  const size_t words = (num_sets + 63) / 64;
  std::vector<uint64_t> masks(num_blocks * words, 0);
  for (size_t u = 0; u < num_sets; ++u) {
    size_t total = 0;
    for (const NodeId block : on_gr.match_sets[u]) {
      QPGC_CHECK(block < num_blocks);
      masks[block * words + u / 64] |= uint64_t{1} << (u % 64);
      total += members_of(block).size();
    }
    expanded.match_sets[u].reserve(total);
  }
  for (NodeId v = 0; v < node_map.size(); ++v) {
    const NodeId block = node_map[v];
    if (block == kInvalidNode) continue;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t m = masks[block * words + w]; m != 0; m &= m - 1) {
        expanded.match_sets[w * 64 + std::countr_zero(m)].push_back(v);
      }
    }
  }
  return expanded;
}

/// P from a batch compression artifact. Scans the whole node map:
/// O((|V| + |Vr|)·⌈|Q|/64⌉ + |Qp(G)|), see ExpandMatchWith.
MatchResult ExpandMatch(const PatternCompression& pc, const MatchResult& on_gr);

/// Same P from the raw quotient metadata (member index + node map) instead
/// of a PatternCompression (used by the incremental layer and tests).
MatchResult ExpandMatch(const std::vector<std::vector<NodeId>>& members,
                        const std::vector<NodeId>& node_map,
                        const MatchResult& on_gr);

/// Convenience: evaluate a pattern on the compressed graph (F = identity,
/// then Match on Gr, then P).
MatchResult MatchOnCompressed(const PatternCompression& pc,
                              const PatternQuery& q);

/// Boolean pattern query on the compressed graph — no P needed.
bool BooleanMatchOnCompressed(const PatternCompression& pc,
                              const PatternQuery& q);

}  // namespace qpgc

#endif  // QPGC_CORE_PATTERN_SCHEME_H_
