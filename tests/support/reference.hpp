#pragma once
// Reference oracles shared by the test suites: Dijkstra distances, exact
// APSP-based LE lists and the structural LE-list validator (previously
// copied per suite), and the unfused LE algebra.

#include <vector>

#include "src/algebra/distance_map.hpp"
#include "src/frt/le_lists.hpp"
#include "src/graph/graph.hpp"

namespace pmte::test {

/// Reference single-source distances (binary-heap Dijkstra).
[[nodiscard]] std::vector<Weight> dijkstra_reference(const Graph& g,
                                                     Vertex source);

/// Brute-force LE lists from exact APSP: per vertex collect every finite
/// (rank, distance) pair and apply the least-element filter — Θ(n² log n).
[[nodiscard]] std::vector<DistanceMap> brute_force_le_lists(
    const Graph& g, const VertexOrder& order);

/// The LE algebra of Definition 7.3 without fused filtering: relax and
/// aggregate build the plain union (merge_min) and filter() applies r once
/// per vertex.  LeListAlgebra filters inside every merge instead; by the
/// congruence of r (Lemma 7.5) both must reach bit-identical states with
/// identical relaxation and iteration counts — only `work` may differ.
/// With test::mbf_step(…, apply_filter = false) (mbf_reference.hpp) this is
/// also the raw product A x.
struct MergeThenFilterLeAlgebra {
  using State = DistanceMap;

  [[nodiscard]] State bottom() const { return DistanceMap{}; }

  void relax(State& acc, Weight w, Vertex /*from*/, Vertex /*to*/,
             const State& x_from) const {
    acc.merge_min(x_from, w);
  }

  void aggregate(State& acc, const State& y) const { acc.merge_min(y); }

  void filter(State& x) const { x.keep_least_elements(); }

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }
};

static_assert(OracleAlgebra<MergeThenFilterLeAlgebra>);

/// Structural LE-list invariants: staircase property, own entry at
/// distance 0, rank-0 vertex present (connected graphs).  Reports gtest
/// failures on violation.
void expect_valid_le_lists(const std::vector<DistanceMap>& lists,
                           const VertexOrder& order);

}  // namespace pmte::test
