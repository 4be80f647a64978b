// Copyright 2026 The QPGC Authors.
//
// Differential oracle for the bounded-simulation kernel in pattern/match.h:
// the straightforward downward fixpoint that kernel replaced. Every prune
// allocates a fresh |V| Bitset and runs a full depth-fe(u, u') bounded
// multi-source backward BFS from S(u'); candidate sets start from an
// O(|V|·|Q|) label scan. Slow, but simple enough to trust — tests compare
// the production kernel's fixpoints against it exactly.

#ifndef QPGC_TESTS_MATCH_ORACLE_H_
#define QPGC_TESTS_MATCH_ORACLE_H_

#include <deque>
#include <vector>

#include "graph/graph_view.h"
#include "graph/traversal.h"
#include "pattern/match.h"
#include "pattern/pattern.h"
#include "util/bitset.h"

namespace qpgc {
namespace match_oracle {

// Prunes S(e.from) to nodes with a non-empty path of length <= e.bound to a
// member of S(e.to). Returns true iff S(e.from) shrank.
template <GraphView G>
bool PruneByEdge(const G& g, const PatternEdge& e,
                 std::vector<std::vector<NodeId>>& sets) {
  const std::vector<NodeId>& targets = sets[e.to];
  std::vector<NodeId>& source = sets[e.from];
  if (source.empty()) return false;
  if (targets.empty()) {
    source.clear();
    return true;
  }
  const Bitset allowed =
      BoundedMultiSourceReach(g, targets, e.bound, Direction::kBackward);
  const size_t before = source.size();
  std::erase_if(source, [&](NodeId v) { return !allowed.Test(v); });
  return source.size() != before;
}

/// The greatest fixpoint from the given (sorted, superset-of-fixpoint)
/// candidate sets.
template <GraphView G>
MatchResult MatchFrom(const G& g, const PatternQuery& q,
                      std::vector<std::vector<NodeId>> candidates) {
  QPGC_CHECK(candidates.size() == q.num_nodes());
  MatchResult result;
  result.fixpoint_sets = std::move(candidates);

  // Worklist of pattern-edge ids whose *target* set changed (initially all).
  std::deque<uint32_t> worklist;
  std::vector<uint8_t> queued(q.num_edges(), 0);
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    worklist.push_back(e);
    queued[e] = 1;
  }

  while (!worklist.empty()) {
    const uint32_t eid = worklist.front();
    worklist.pop_front();
    queued[eid] = 0;
    const PatternEdge& e = q.edge(eid);
    if (match_oracle::PruneByEdge(g, e, result.fixpoint_sets)) {
      // S(e.from) shrank: every edge whose target is e.from must re-check.
      for (uint32_t other : q.in_edges(e.from)) {
        if (!queued[other]) {
          worklist.push_back(other);
          queued[other] = 1;
        }
      }
    }
  }

  result.matched = true;
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    if (result.fixpoint_sets[u].empty()) {
      result.matched = false;
      break;
    }
  }
  result.match_sets = result.matched
                          ? result.fixpoint_sets
                          : std::vector<std::vector<NodeId>>(q.num_nodes());
  return result;
}

/// The label-candidate sets S(u) = {v : fv(u) = label(v)}.
template <GraphView G>
std::vector<std::vector<NodeId>> LabelCandidates(const G& g,
                                                 const PatternQuery& q) {
  std::vector<std::vector<NodeId>> candidates(q.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      if (q.label(u) == g.label(v)) candidates[u].push_back(v);
    }
  }
  return candidates;
}

/// The maximum match of q in g.
template <GraphView G>
MatchResult Match(const G& g, const PatternQuery& q) {
  return match_oracle::MatchFrom(g, q, match_oracle::LabelCandidates(g, q));
}

}  // namespace match_oracle
}  // namespace qpgc

#endif  // QPGC_TESTS_MATCH_ORACLE_H_
