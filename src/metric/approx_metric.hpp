#pragma once
// Approximate metric construction (Section 6).
//
// Theorem 6.1: querying the oracle with APSP on the simulated graph H
// yields a (1+o(1))-approximate metric of G at polylog depth — the first
// consequence of the oracle machinery and a template for how to use it.
//
// Theorem 6.2: preceding the construction with a Baswana–Sen (2k−1)-spanner
// trades approximation for work: an O(1)-approximate metric at Õ(n^{2+ε})
// work.

#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/hopset/hopset.hpp"
#include "src/util/rng.hpp"

namespace pmte {

struct MetricResult {
  std::vector<Weight> dist;      ///< row-major n×n
  unsigned h_iterations = 0;     ///< oracle iterations on H
  unsigned base_iterations = 0;  ///< MBF iterations on G'
  std::uint64_t work = 0;
  double seconds = 0.0;
  std::size_t hopset_edges = 0;
  std::size_t spanner_edges = 0;  ///< 0 when no spanner stage ran
};

struct ApproxMetricOptions {
  double eps_hat = 0.0;  ///< 0 → auto 1/⌈log₂ n⌉² (resolve_eps_hat)
  HubHopSetParams hopset;
};

/// Theorem 6.1 pipeline: hop set → H → oracle APSP.
[[nodiscard]] MetricResult approximate_metric(const Graph& g,
                                              const ApproxMetricOptions& opts,
                                              Rng& rng);

/// Theorem 6.2 pipeline: (2k−1)-spanner → Theorem 6.1 on the spanner.
[[nodiscard]] MetricResult approximate_metric_spanner(
    const Graph& g, unsigned spanner_k, const ApproxMetricOptions& opts,
    Rng& rng);

/// max over finite pairs of approx/exact (≥ 1) — the measured stretch.
[[nodiscard]] double metric_stretch(const std::vector<Weight>& approx,
                                    const std::vector<Weight>& exact);

}  // namespace pmte
