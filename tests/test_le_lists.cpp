// Tests for LE lists (Section 7.2): pipeline agreement, structural
// invariants, and the O(log n) length bound (Lemma 7.6).
#include <gtest/gtest.h>

#include <cmath>

#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/oracle/mbf_oracle.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

using test::brute_force_le_lists;
using test::expect_valid_le_lists;

class LePipelines : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph random_graph() {
    Rng rng(GetParam());
    return make_gnm(48, 110, {1.0, 6.0}, rng);
  }
};

TEST_P(LePipelines, IterationMatchesBruteForce) {
  const auto g = random_graph();
  Rng rng(GetParam() + 1);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const auto le = le_lists_iteration(g, order);
  EXPECT_TRUE(le.converged);
  expect_valid_le_lists(le.lists, order);
  const auto brute = brute_force_le_lists(g, order);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(approx_equal(le.lists[v], brute[v])) << "vertex " << v;
  }
}

TEST_P(LePipelines, SequentialMatchesIteration) {
  const auto g = random_graph();
  Rng rng(GetParam() + 2);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const auto a = le_lists_iteration(g, order);
  const auto b = le_lists_sequential(g, order);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(approx_equal(a.lists[v], b.lists[v])) << "vertex " << v;
  }
}

TEST_P(LePipelines, MetricPipelineMatchesOnCompleteGraph) {
  Rng rng(GetParam() + 3);
  const auto g = make_complete(30, {1.0, 9.0}, rng);
  const auto order = VertexOrder::random(30, rng);
  const auto apsp = exact_apsp(g);
  const auto a = le_lists_from_metric(apsp, order);
  const auto b = le_lists_sequential(g, order);
  for (Vertex v = 0; v < 30; ++v) {
    EXPECT_TRUE(approx_equal(a.lists[v], b.lists[v])) << "vertex " << v;
  }
  EXPECT_EQ(a.iterations, 1U);  // a metric is a graph of SPD 1
}

INSTANTIATE_TEST_SUITE_P(Seeds, LePipelines,
                         ::testing::Values(501, 502, 503, 504, 505, 506));

TEST(LeLists, IterationCountTracksSpd) {
  // On a path graph the fixpoint needs Θ(n) iterations (Section 8.1's
  // weakness that motivates the oracle).
  const auto g = make_path(60);
  Rng rng(1);
  const auto order = VertexOrder::random(60, rng);
  const auto le = le_lists_iteration(g, order);
  EXPECT_TRUE(le.converged);
  EXPECT_GE(le.iterations, 30U);
}

TEST(LeLists, LengthIsLogarithmic) {
  // Lemma 7.6: E[|list|] ≈ H_n ≈ ln n; check the mean over vertices on a
  // few permutations and a generous whp-style max.
  Rng rng(2);
  const Vertex n = 400;
  const auto g = make_gnm(n, 1200, {1.0, 3.0}, rng);
  const double ln_n = std::log(static_cast<double>(n));
  for (int trial = 0; trial < 3; ++trial) {
    const auto order = VertexOrder::random(n, rng);
    const auto le = le_lists_sequential(g, order);
    double total = 0.0;
    std::size_t worst = 0;
    for (const auto& l : le.lists) {
      total += static_cast<double>(l.size());
      worst = std::max(worst, l.size());
    }
    EXPECT_LT(total / n, 3.0 * ln_n);
    EXPECT_LT(static_cast<double>(worst), 8.0 * ln_n);
  }
}

TEST(LeLists, RankZeroListIsSingleton) {
  // The minimum-order vertex dominates everything: its own list is {(0,0)}.
  Rng rng(3);
  const auto g = make_gnm(25, 60, {1.0, 2.0}, rng);
  const auto order = VertexOrder::random(25, rng);
  const auto le = le_lists_sequential(g, order);
  const Vertex lowest = order.vertex_of[0];
  ASSERT_EQ(le.lists[lowest].size(), 1U);
  EXPECT_DOUBLE_EQ(le.lists[lowest].at(0), 0.0);
}

TEST(LeLists, IdentityOrderOnPath) {
  // With the identity order on a path 0-1-2-…, vertex v's list is exactly
  // {(w, v−w) : w ≤ v}: every left vertex is strictly closer than all
  // smaller ids, while every right vertex is dominated (the identity order
  // is the worst case — length Θ(n), unlike random orders, Lemma 7.6).
  const auto g = make_path(10);
  const auto order = VertexOrder::identity(10);
  const auto le = le_lists_sequential(g, order);
  for (Vertex v = 0; v < 10; ++v) {
    ASSERT_EQ(le.lists[v].size(), static_cast<std::size_t>(v) + 1)
        << "vertex " << v;
    for (Vertex w = 0; w <= v; ++w) {
      EXPECT_DOUBLE_EQ(le.lists[v].at(w), static_cast<double>(v - w));
    }
  }
}

TEST(LeLists, FusedMergeMatchesMergeThenFilter) {
  // LeListAlgebra filters inside every merge; the reference algebra merges
  // the plain union and filters once per vertex.  By the congruence of r
  // (Lemma 7.5) the engine and oracle fixpoints, relaxations and
  // iterations must be bit-identical at every thread count — only the
  // logical work may fall, since fused accumulators carry no dominated
  // entries.
  const int restore = num_threads();
  const auto corpus = test::small_graph_corpus(50, 7300);
  const LeListAlgebra fused;
  const test::MergeThenFilterLeAlgebra reference;
  const auto expect_same = [](const auto& a, const auto& b,
                              const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t v = 0; v < a.size(); ++v) {
      EXPECT_EQ(a[v], b[v]) << what << " vertex " << v;
    }
  };
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    for (const auto& c : corpus) {
      const std::string what = c.name + " @ " + std::to_string(threads);
      Rng rng(c.seed + 1);
      const auto order = VertexOrder::random(c.graph.num_vertices(), rng);
      const auto x0 = le_initial_state(order);
      const Vertex n = c.graph.num_vertices();

      const WorkDepthScope ref_engine;
      const auto ref_run = mbf_run(c.graph, reference, x0, n);
      const auto ref_relax = ref_engine.relaxations_delta();
      const auto ref_work = ref_engine.work_delta();
      const WorkDepthScope fused_engine;
      const auto run = mbf_run(c.graph, fused, x0, n);
      ASSERT_TRUE(run.reached_fixpoint) << what;
      EXPECT_EQ(run.iterations, ref_run.iterations) << what;
      EXPECT_EQ(fused_engine.relaxations_delta(), ref_relax) << what;
      EXPECT_LE(fused_engine.work_delta(), ref_work) << what;
      expect_same(run.states, ref_run.states, "engine " + what);

      // The oracle also aggregates per-level outputs with the fused ⊕.
      const auto h = test::make_test_simgraph(c.graph, c.seed,
                                              /*exact_hopset=*/false,
                                              /*eps_hat=*/0.07);
      const unsigned cap = default_h_iteration_cap(n);
      OracleStats ref_stats;
      OracleStats stats;
      const WorkDepthScope ref_oracle;
      const auto ref_h = oracle_run(h, reference, x0, cap, &ref_stats);
      const auto ref_h_relax = ref_oracle.relaxations_delta();
      const WorkDepthScope fused_oracle;
      const auto on_h = oracle_run(h, fused, x0, cap, &stats);
      ASSERT_TRUE(on_h.reached_fixpoint) << what;
      EXPECT_EQ(on_h.iterations, ref_h.iterations) << what;
      EXPECT_EQ(stats.base_iterations, ref_stats.base_iterations) << what;
      EXPECT_EQ(stats.levels_skipped, ref_stats.levels_skipped) << what;
      EXPECT_EQ(stats.levels_warm, ref_stats.levels_warm) << what;
      EXPECT_EQ(stats.levels_full, ref_stats.levels_full) << what;
      EXPECT_EQ(fused_oracle.relaxations_delta(), ref_h_relax) << what;
      expect_same(on_h.states, ref_h.states, "oracle " + what);
    }
  }
  set_num_threads(restore);
}

TEST(LeLists, OrderSizeMismatchThrows) {
  const auto g = make_path(5);
  const auto order = VertexOrder::identity(4);
  EXPECT_THROW((void)le_lists_iteration(g, order), std::logic_error);
  EXPECT_THROW((void)le_lists_sequential(g, order), std::logic_error);
}

}  // namespace
}  // namespace pmte
