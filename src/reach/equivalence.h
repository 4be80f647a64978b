// Copyright 2026 The QPGC Authors.
//
// The reachability equivalence relation Re of Section 3.1: (u, v) in Re iff
// u and v have the same ancestors and the same descendants, where ancestor/
// descendant sets are taken over *non-empty* paths (Example 2 of the paper
// requires this: BSA1 ~ BSA2 although neither reaches the other; under
// reflexive semantics Re would degenerate to SCC equality).
//
// Structure theorem (used by the fast algorithm; property-tested):
//   Every Re-class is either (a) exactly one cyclic SCC, or (b) a set of
//   trivial (acyclic) SCC nodes with equal "augmented" ancestor/descendant
//   sets on the condensation DAG, where augmentation seeds a cyclic node's
//   own bit.
//   Proof sketch for (a): if u lies on a cycle then u ∈ desc(u) = desc(v)
//   and u ∈ anc(u) = anc(v), so u and v reach each other — same SCC.
//
// Two implementations:
//  * ComputeReachEquivalence — condensation + exact partition refinement on
//    blocked descendant/ancestor bitsets (refinement keys on the exact row
//    words, so no hash-collision risk). Blocks of `block_cols` target
//    columns are swept descendants first, then ancestors; each block costs
//    one closure sweep (graph/closure.h: O(|V_dag| + |E_dag|) plus
//    ⌈block_cols/64⌉ word ops per edge whose child row is non-empty) and
//    one refinement pass (O(|V_dag|) plus one word hash and at most one
//    row compare, O(⌈block_cols/64⌉), per node whose class is not yet a
//    singleton). Refinement stops as soon as every class is a singleton,
//    skipping the remaining blocks and directions. Worst case
//    O(|E_dag| * |V_dag| / 64) word ops with O(|V_dag| * block_cols / 8)
//    working memory. Templated over GraphView: only the SCC condensation
//    reads the input; the refinement runs on the condensation DAG.
//  * ComputeReachEquivalenceRef — the paper's own O(|V|(|V| + |E|)) method
//    (per-node BFS for ancestor and descendant sets), used as ground truth.

#ifndef QPGC_REACH_EQUIVALENCE_H_
#define QPGC_REACH_EQUIVALENCE_H_

#include <cstddef>
#include <vector>

#include "graph/condensation.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace qpgc {

/// A partition of V into reachability equivalence classes.
struct ReachPartition {
  /// class_of[v] = equivalence class of node v.
  std::vector<NodeId> class_of;
  /// Number of classes.
  size_t num_classes = 0;
  /// members[c] = nodes of class c, ascending.
  std::vector<std::vector<NodeId>> members;
  /// cyclic[c] = 1 iff the members of c lie on cycles (then c is one SCC).
  std::vector<uint8_t> cyclic;

  /// Canonical form for equality checks in tests: classes sorted by their
  /// smallest member.
  std::vector<std::vector<NodeId>> CanonicalClasses() const;
};

namespace reach_detail {

/// Groups DAG nodes by augmented ancestor AND descendant profiles. Returns
/// a class id per DAG node, numbered by first appearance in DAG node order,
/// so the ids depend only on the partition, not on when refinement stopped.
std::vector<NodeId> PartitionDagNodes(const Graph& dag,
                                      const std::vector<uint8_t>& cyclic,
                                      size_t block_cols);

/// Renumbers classes to be dense in order of first appearance and expands a
/// per-DAG-node partition to original nodes via the SCC map.
ReachPartition ExpandToNodes(size_t num_nodes, const Condensation& cond,
                             const std::vector<NodeId>& dag_cls);

}  // namespace reach_detail

/// Fast exact computation (condensation + blocked refinement).
template <GraphView G>
ReachPartition ComputeReachEquivalence(const G& g, size_t block_cols = 8192) {
  const Condensation cond = BuildCondensation(g);
  const std::vector<NodeId> dag_cls =
      reach_detail::PartitionDagNodes(cond.dag, cond.scc.cyclic, block_cols);
  return reach_detail::ExpandToNodes(g.num_nodes(), cond, dag_cls);
}

/// Non-template Graph overload (compiled once in equivalence.cc).
ReachPartition ComputeReachEquivalence(const Graph& g,
                                       size_t block_cols = 8192);

/// Reference computation (the paper's per-node BFS algorithm).
ReachPartition ComputeReachEquivalenceRef(const Graph& g);

}  // namespace qpgc

#endif  // QPGC_REACH_EQUIVALENCE_H_
