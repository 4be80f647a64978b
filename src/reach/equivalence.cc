// Copyright 2026 The QPGC Authors.

#include "reach/equivalence.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_map>

#include "graph/closure.h"
#include "graph/topology.h"
#include "util/bitset.h"
#include "util/hash.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

namespace {

// Key for refinement: (current class, exact row words). Keying on the exact
// words (not a hash of them) guarantees no two distinct profiles ever land in
// the same class. All keys of one pass borrow rows of the same BitMatrix, so
// they have equal length.
struct QPGC_GSL_POINTER RefineKey {
  NodeId cls;
  std::span<const Bitset::Word> row;  // borrows a row of the BitMatrix
  bool operator==(const RefineKey& o) const {
    return cls == o.cls &&
           std::memcmp(row.data(), o.row.data(), row.size_bytes()) == 0;
  }
};
struct RefineKeyHash {
  size_t operator()(const RefineKey& k) const {
    return static_cast<size_t>(
        HashCombine(Mix64(k.cls), HashWords(k.row.data(), k.row.size())));
  }
};

// One refinement pass: splits every current class by the content of `rows`.
// `cls` holds ids in [0, num_classes) and is updated in place; returns the
// new class count. New ids are handed out in order of first appearance. A
// node alone in its class cannot be split, so it takes the next id without a
// hash or a table probe: only members of shared classes pay O(row words).
size_t RefineByRows(const BitMatrix& rows, std::vector<NodeId>& cls,
                    size_t num_classes) {
  std::vector<uint32_t> class_size(num_classes, 0);
  for (const NodeId c : cls) ++class_size[c];
  size_t shared = 0;
  for (const NodeId c : cls) shared += class_size[c] > 1;

  std::unordered_map<RefineKey, NodeId, RefineKeyHash> remap;
  remap.reserve(shared);
  std::vector<NodeId> next(cls.size());
  NodeId next_id = 0;
  for (size_t v = 0; v < cls.size(); ++v) {
    if (class_size[cls[v]] == 1) {
      next[v] = next_id++;
      continue;
    }
    const RefineKey key{cls[v], rows.RowWords(v)};
    const auto [it, inserted] = remap.try_emplace(key, next_id);
    if (inserted) ++next_id;
    next[v] = it->second;
  }
  cls.swap(next);
  return next_id;
}

}  // namespace

namespace reach_detail {

std::vector<NodeId> PartitionDagNodes(const Graph& dag,
                                      const std::vector<uint8_t>& cyclic,
                                      size_t block_cols) {
  const size_t n = dag.num_nodes();
  std::vector<NodeId> cls(n, 0);
  if (n == 0) return cls;
  block_cols = std::min(block_cols, n);

  const std::vector<NodeId> rev_topo = ReverseTopologicalOrder(dag);
  std::vector<NodeId> topo;

  // Once every class is a singleton no later block or direction can split
  // anything, so both loops stop early. On a directed grid the descendant
  // blocks leave one tie (the two in-neighbors of the sink), which the
  // first ancestor block splits; the other ancestor blocks never run.
  size_t num_classes = 1;
  BitMatrix block(n, block_cols);
  for (int pass = 0; pass < 2 && num_classes < n; ++pass) {
    const Direction dir =
        pass == 0 ? Direction::kForward : Direction::kBackward;
    if (pass == 1) topo.assign(rev_topo.rbegin(), rev_topo.rend());
    const std::vector<NodeId>& order = pass == 0 ? rev_topo : topo;
    for (size_t start = 0; start < n && num_classes < n; start += block_cols) {
      const size_t cols = std::min(block_cols, n - start);
      if (cols != block.cols()) block = BitMatrix(n, cols);
      BlockDescendants(dag, order, cyclic, start, cols, dir, block);
      num_classes = RefineByRows(block, cls, num_classes);
    }
  }
  return cls;
}

ReachPartition ExpandToNodes(size_t num_nodes, const Condensation& cond,
                             const std::vector<NodeId>& dag_cls) {
  ReachPartition part;
  const size_t n = num_nodes;
  part.class_of.assign(n, kInvalidNode);

  std::vector<NodeId> dense(cond.scc.num_components, kInvalidNode);
  // First appearance in original-node order gives deterministic ids.
  NodeId next_id = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId dag_node = cond.scc.component[v];
    NodeId& d = dense[dag_cls[dag_node]];
    if (d == kInvalidNode) d = next_id++;
    part.class_of[v] = d;
  }
  part.num_classes = next_id;
  part.members.assign(next_id, {});
  part.cyclic.assign(next_id, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId c = part.class_of[v];
    part.members[c].push_back(v);
    if (cond.scc.cyclic[cond.scc.component[v]]) part.cyclic[c] = 1;
  }
  return part;
}

}  // namespace reach_detail

std::vector<std::vector<NodeId>> ReachPartition::CanonicalClasses() const {
  std::vector<std::vector<NodeId>> classes = members;
  std::sort(classes.begin(), classes.end());
  return classes;
}

ReachPartition ComputeReachEquivalence(const Graph& g, size_t block_cols) {
  return ComputeReachEquivalence<Graph>(g, block_cols);
}

ReachPartition ComputeReachEquivalenceRef(const Graph& g) {
  const size_t n = g.num_nodes();
  // Non-empty-path closures in both directions; a node on a cycle naturally
  // appears in its own row, matching the augmented definition.
  const BitMatrix desc = FullClosure(g, Direction::kForward);
  const BitMatrix anc = FullClosure(g, Direction::kBackward);

  std::vector<NodeId> cls(n, 0);
  if (n > 0) RefineByRows(anc, cls, RefineByRows(desc, cls, 1));

  ReachPartition part;
  part.class_of.assign(n, kInvalidNode);
  std::vector<NodeId> dense;
  NodeId next_id = 0;
  {
    std::vector<NodeId> remap(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      NodeId& d = remap[cls[v]];
      if (d == kInvalidNode) d = next_id++;
      part.class_of[v] = d;
    }
  }
  part.num_classes = next_id;
  part.members.assign(next_id, {});
  part.cyclic.assign(next_id, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId c = part.class_of[v];
    part.members[c].push_back(v);
    if (desc.Test(v, v)) part.cyclic[c] = 1;  // on a cycle
  }
  return part;
}

}  // namespace qpgc
