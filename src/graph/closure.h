// Copyright 2026 The QPGC Authors.
//
// Transitive-closure computation, in two flavors:
//
//  * FullClosure: one BFS per node, materializing the whole V x V closure as
//    a bit matrix. This is the paper's O(|V|(|V| + |E|)) reference procedure
//    (Section 3.2 computes Re exactly this way) — used for small graphs and
//    as the ground truth in property tests.
//
//  * BlockDescendants: the memory-bounded workhorse. For a DAG, computes for
//    *every* node its reachability bits into one block of target columns, by
//    a single sweep in reverse topological order (children before parents).
//    A sweep keeps one "row non-empty" flag per node and ORs only non-empty
//    child rows, so it costs O(|V| + |E|) plus ⌈block_cols/64⌉ word ops per
//    edge into a node that reaches the block (plus one clear of the block).
//    Sweeping over all blocks costs at most O(|E| * |V| / 64) word
//    operations but only O(|V| * block_cols / 8) bytes at a time, which is
//    what makes the equivalence-class refinement in reach/ and the
//    transitive reduction (graph/reduction.h) scale past the naive
//    algorithm.
//
// All closures here are *non-empty-path* closures: desc(u) contains u only
// when explicitly seeded (see `self_seed` — used to mark cyclic SCC nodes,
// the "augmented" sets of DESIGN.md §3).

#ifndef QPGC_GRAPH_CLOSURE_H_
#define QPGC_GRAPH_CLOSURE_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/traversal.h"
#include "util/bitset.h"

namespace qpgc {

/// Full non-empty-path closure of g: row u has bit v iff u reaches v via a
/// path of length >= 1. O(|V|(|V| + |E|)) time, |V|^2/8 bytes.
BitMatrix FullClosure(const Graph& g,
                      Direction dir = Direction::kForward);

/// Blocked DAG reachability. Fills `out` (rows = |V|, cols = block_cols) so
/// that row u has bit (t - block_start) iff u reaches DAG node t (non-empty
/// path) for t in [block_start, block_start + block_cols), OR u == t and
/// self_seed[u] is set (augmentation for cyclic SCC nodes).
///
/// `dir` selects descendants (kForward) or ancestors (kBackward).
/// `order` must be a traversal order with dependencies first: reverse
/// topological for kForward, topological for kBackward.
void BlockDescendants(const Graph& dag, std::span<const NodeId> order,
                      std::span<const uint8_t> self_seed, size_t block_start,
                      size_t block_cols, Direction dir, BitMatrix& out);

/// Descendant bitsets for a whole (small) DAG with augmentation, via a single
/// full-width blocked sweep. Convenience wrapper used on compressed graphs,
/// which are small enough for the full matrix.
BitMatrix DagClosure(const Graph& dag, std::span<const uint8_t> self_seed,
                     Direction dir = Direction::kForward);

}  // namespace qpgc

#endif  // QPGC_GRAPH_CLOSURE_H_
