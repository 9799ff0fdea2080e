#pragma once
// The P-H per-tree driver (Theorem 7.9): draws β and the vertex order
// (sample_frt_randomness), runs the LE-list oracle on H to its fixpoint
// and builds the FRT tree.  sample_frt_oracle_on (pipelines.cpp) is this
// driver used once: it reads the tree, lists and oracle stats and drops
// the rest.  The dynamic-update path (docs/DYNAMIC.md) *retains* the
// oracle with its per-level state caches, the order, β, and the current
// LE lists, so an edge-weight change of G' costs only the level re-runs
// the change actually reaches (MbfOracle::update):
//
//   decrease — the caches warm-restart with the edge endpoints seeded
//              into every level's frontier; iteration continues in place
//              and converges to the new least fixpoint, which is unique,
//              so the lists are bit-identical to a full re-run.
//   increase — the caches reset and the oracle re-runs from r^V x⁽⁰⁾
//              (restart(), the constructor's own first run), bit-identical
//              to a freshly built driver on the new weights.
//
// The tree (and hence the serving index) is rebuilt only when the LE
// lists or the minimum-edge-weight hint actually changed — FrtTree::build
// is a deterministic function of (lists, order, β, hint, rule), so an
// unchanged input means an unchanged tree.
//
// Ownership: the simulated graph H is shared and *mutable elsewhere* —
// the owner (serve::DynamicEnsemble) applies each weight change to the
// shared graph once, then calls apply_update on every maintainer.
// DynamicFrt never mutates H itself.  Not copyable/movable: the retained
// oracle points at internal members.

#include <utility>
#include <vector>

#include "src/frt/pipelines.hpp"

namespace pmte {

class DynamicFrt {
 public:
  /// Draws β then the order from `rng`, runs the LE oracle to its
  /// fixpoint and builds the tree.  Oracle pipeline only (`opts.mbf` feeds
  /// the retained oracle); `h` must outlive the maintainer.
  DynamicFrt(const SimulatedGraph& h, Rng& rng, const FrtOptions& opts = {});

  DynamicFrt(const DynamicFrt&) = delete;
  DynamicFrt& operator=(const DynamicFrt&) = delete;

  /// Absorb one already-applied G' edge-weight change (the owner mutates
  /// the shared graph *before* this call; `edge` carries the old weight).
  /// Re-runs the retained oracle to the new fixpoint — incrementally after
  /// a decrease, from scratch after an increase — and rebuilds the tree
  /// when the lists or the distance hint changed.  Returns whether the
  /// tree changed (the caller's serving index must then be rebuilt).
  bool apply_update(const WeightedEdge& edge, Weight new_weight);

  [[nodiscard]] const FrtTree& tree() const noexcept { return tree_; }
  [[nodiscard]] const std::vector<DistanceMap>& lists() const noexcept {
    return states_;
  }
  /// Hand the tree to a build-once caller (sample_frt_oracle_on); the
  /// maintainer is not used afterwards.
  [[nodiscard]] FrtTree take_tree() && { return std::move(tree_); }
  [[nodiscard]] const VertexOrder& order() const noexcept {
    return draw_.order;
  }
  [[nodiscard]] double beta() const noexcept { return draw_.beta; }
  /// Whether the last oracle run drained its changed set within the cap.
  [[nodiscard]] bool converged() const noexcept { return converged_; }
  /// Cumulative H-iterations across the initial build and every update.
  [[nodiscard]] unsigned iterations() const noexcept { return iterations_; }
  /// Cumulative level-run ledger of the retained oracle (skips/warm/full).
  [[nodiscard]] const OracleStats& oracle_stats() const noexcept {
    return oracle_.stats();
  }
  /// Whether the last apply_update took the incremental (decrease) path.
  [[nodiscard]] bool last_update_incremental() const noexcept {
    return last_incremental_;
  }

 private:
  /// MbfOracle::run_to_fixpoint on the *retained* oracle, under
  /// le_lists_oracle's iteration cap (default_h_iteration_cap when
  /// opts.max_iterations is 0).  `changed0` as there: nullptr for fresh
  /// runs, empty for post-update continuations.
  void run_to_fixpoint(const std::vector<Vertex>* changed0);
  /// A fresh run from r^V x⁽⁰⁾ on the oracle's current caches (new, or
  /// just invalidated): the first build and every increase.
  void restart();

  const SimulatedGraph* h_;
  FrtOptions opts_;
  LeListAlgebra alg_;
  FrtRandomness draw_;
  MbfOracle<LeListAlgebra> oracle_;
  std::vector<DistanceMap> states_;  ///< current LE lists (keys are ranks)
  Weight hint_ = 1.0;                ///< dist-min hint the tree was built with
  FrtTree tree_;
  bool converged_ = false;
  bool last_incremental_ = false;
  unsigned iterations_ = 0;
};

}  // namespace pmte
