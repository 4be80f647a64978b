// Copyright 2026 The QPGC Authors.

#include "graph/closure.h"

#include <vector>

#include "graph/topology.h"

namespace qpgc {

BitMatrix FullClosure(const Graph& g, Direction dir) {
  const size_t n = g.num_nodes();
  BitMatrix closure(n, n);
  std::vector<uint8_t> visited(n, 0);
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    std::fill(visited.begin(), visited.end(), 0);
    queue.clear();
    // Non-empty paths: start from s's neighbors.
    const auto start = dir == Direction::kForward ? g.OutNeighbors(s)
                                                  : g.InNeighbors(s);
    for (NodeId w : start) {
      if (!visited[w]) {
        visited[w] = 1;
        closure.Set(s, w);
        queue.push_back(w);
      }
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      const NodeId x = queue[i];
      const auto nbrs = dir == Direction::kForward ? g.OutNeighbors(x)
                                                   : g.InNeighbors(x);
      for (NodeId w : nbrs) {
        if (!visited[w]) {
          visited[w] = 1;
          closure.Set(s, w);
          queue.push_back(w);
        }
      }
    }
  }
  return closure;
}

void BlockDescendants(const Graph& dag, std::span<const NodeId> order,
                      std::span<const uint8_t> self_seed, size_t block_start,
                      size_t block_cols, Direction dir, BitMatrix& out) {
  QPGC_CHECK(out.rows() == dag.num_nodes() && out.cols() == block_cols);
  out.Reset();
  const size_t block_end = block_start + block_cols;
  const auto in_block = [&](NodeId t) {
    return t >= block_start && t < block_end;
  };
  // nonempty[u] = row u has a set bit. The row of a node that reaches no
  // target of the block stays empty, and OR-ing an empty row is a no-op, so
  // only non-empty child rows are read.
  std::vector<uint8_t> nonempty(dag.num_nodes(), 0);
  for (const NodeId u : order) {
    const auto children =
        dir == Direction::kForward ? dag.OutNeighbors(u) : dag.InNeighbors(u);
    uint8_t any = 0;
    for (const NodeId c : children) {
      if (nonempty[c]) {
        out.OrRowInto(c, u);
        any = 1;
      }
      if (in_block(c)) {
        out.Set(u, c - block_start);
        any = 1;
      }
    }
    if (!self_seed.empty() && self_seed[u] && in_block(u)) {
      out.Set(u, u - block_start);
      any = 1;
    }
    nonempty[u] = any;
  }
}

BitMatrix DagClosure(const Graph& dag, std::span<const uint8_t> self_seed,
                     Direction dir) {
  const size_t n = dag.num_nodes();
  BitMatrix out(n, n);
  const std::vector<NodeId> order = dir == Direction::kForward
                                        ? ReverseTopologicalOrder(dag)
                                        : TopologicalOrder(dag);
  BlockDescendants(dag, order, self_seed, 0, n, dir, out);
  return out;
}

}  // namespace qpgc
