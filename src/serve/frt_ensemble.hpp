#pragma once
// Ensemble of independently-seeded FRT serving indices.
//
// A single FRT tree only guarantees O(log n) *expected* stretch; serving
// systems (Blelloch–Gu–Sun, PAPERS.md) recover the practical quality by
// querying k independent trees and aggregating.  FrtEnsemble builds k
// FrtIndex instances over the same graph:
//
//   Randomness  — per-tree RNG streams derive from one master seed via
//                 split_seed(master, 1 + t) (stream 0 feeds the shared
//                 hop-set / simulated-graph randomness of the oracle
//                 pipeline).  Each tree is a fixed function of (graph,
//                 master, t), so the ensemble is reproducible regardless
//                 of build order and thread count.
//   Build       — trees build in parallel (parallel_for over slots; the
//                 per-tree engine loops detect the enclosing region and
//                 run serially).  The oracle pipeline shares one simulated
//                 graph across all trees, amortising the hop set.
//   Queries     — query(u, v, policy) aggregates the k O(1) index lookups
//                 with `min` (tightest dominating estimate; every tree
//                 dominates dist_G, hence so does the min) or `median`
//                 (robust distance-weighted-stretch estimate; the upper
//                 median for even k, so it stays dominating too).
//   Batches     — query_batch answers a pair list via
//                 parallel_for_balanced and reports deterministic logical
//                 counters (pairs, per-tree lookups, sparse-table probes)
//                 for the CI bench gate; outputs are bit-identical across
//                 thread counts.
//   Hot pairs   — an optional caller-owned HotPairCache short-circuits
//                 repeated pairs (Zipf traffic): a serial classification
//                 pass decides hit/fill/bypass per pair, fills compute
//                 once in parallel, everything else is an array read.
//                 Served values are bit-identical with the cache on or
//                 off, and the hit/miss counters are deterministic at any
//                 thread count (see hot_pair_cache.hpp).
//
// save() persists the whole ensemble (master seed + every index) in the
// versioned binary format; round-trips are exact.  Both loads share one
// parse path: load(istream) reads the stream into an owned aligned image,
// load_mapped(path) mmaps the file, and either image is parsed in place —
// every index's persisted arrays become views into it and only the
// derived tables are rebuilt.  A mapped load copies zero bulk bytes (the
// load-path counters in serialize.hpp prove it).  The ensemble owns its
// image via shared_ptr, so registry entries, tenants, and copies of the
// shared_ptr keep it alive for as long as any query can touch it; served
// doubles and all logical counters are bit-identical between the two
// load paths.
//
// Query path layout: alongside the per-index arrays the ensemble keeps a
// structure-of-arrays copy of the leaf tour positions (leaf_pos_soa_,
// [vertex·k + tree]) so the min-over-k inner loop reads its k inputs
// contiguously, plus a two-phase kernel that software-prefetches the k
// sparse-table rows before consuming them (see frt_ensemble.cpp).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/frt/pipelines.hpp"
#include "src/serve/frt_index.hpp"
#include "src/serve/hot_pair_cache.hpp"

namespace pmte::serve {

/// Which sampling pipeline produces the ensemble's trees.
enum class EnsemblePipeline { oracle, direct, sequential };

/// How per-tree distances collapse into one served value.
enum class AggregatePolicy { min, median };

struct EnsembleOptions {
  std::size_t trees = 8;
  EnsemblePipeline pipeline = EnsemblePipeline::oracle;
  FrtOptions frt;  ///< weight rule, ε̂, hop-set, engine tunables
};

/// Deterministic build accounting, summed over all trees (WorkDepth
/// logical-op deltas — thread-count independent; wall time is not).
struct EnsembleBuildStats {
  std::uint64_t work = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t edges_touched = 0;
  std::uint64_t iterations = 0;    ///< top-level MBF iterations, summed
  std::uint64_t index_nodes = 0;   ///< flat nodes across all indices
  double seconds = 0.0;
};

class FrtEnsemble {
 public:
  FrtEnsemble() = default;

  /// Build `opts.trees` indices over `g` from one master seed.
  [[nodiscard]] static FrtEnsemble build(const Graph& g,
                                         std::uint64_t master_seed,
                                         const EnsembleOptions& opts = {});

  /// Assemble a servable ensemble from already-built indices — the
  /// dynamic-maintenance snapshot path (serve::DynamicEnsemble rebuilds
  /// only the indices whose trees an update changed and re-wraps them
  /// all).  `graph_fingerprint` must be fingerprint() of the graph the
  /// indices currently embed; with indices equal to build()'s the result
  /// compares == to build()'s and carries the same registry fingerprint.
  /// Build stats are not populated (nothing was built here).
  [[nodiscard]] static FrtEnsemble assemble(std::vector<FrtIndex> indices,
                                            std::uint64_t master_seed,
                                            std::uint64_t graph_fingerprint);

  [[nodiscard]] std::size_t num_trees() const noexcept {
    return indices_.size();
  }
  [[nodiscard]] Vertex num_vertices() const noexcept {
    return indices_.empty() ? 0 : indices_.front().num_leaves();
  }
  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return master_seed_;
  }
  /// Fingerprint of the graph this ensemble was built over (persisted, so
  /// loaders can refuse to serve a different graph's distances).
  [[nodiscard]] std::uint64_t graph_fingerprint() const noexcept {
    return graph_fingerprint_;
  }

  /// FNV-1a over (n, every half-edge's target and weight bits) — a cheap
  /// structural identity for "same graph as at build time" checks.
  [[nodiscard]] static std::uint64_t fingerprint(const Graph& g);

  /// Registry identity of this ensemble: serve::registry_fingerprint over
  /// its serialized prelude (header + master seed + graph fingerprint +
  /// tree count).  A pure function of the deterministic build inputs, so a
  /// freshly built ensemble and its save→load round-trip fingerprint
  /// identically; the many-tenant server keys its EnsembleRegistry on it.
  [[nodiscard]] std::uint64_t registry_fingerprint() const noexcept;
  [[nodiscard]] const FrtIndex& index(std::size_t t) const {
    return indices_[t];
  }
  /// Whether this ensemble serves straight from a file mapping.
  [[nodiscard]] bool is_mapped() const noexcept {
    return image_ != nullptr && image_->is_mapped();
  }
  /// Size of the backing mapping in bytes (0 when not mapped).
  [[nodiscard]] std::size_t mapped_bytes() const noexcept {
    return is_mapped() ? image_->size() : 0;
  }
  [[nodiscard]] const EnsembleBuildStats& build_stats() const noexcept {
    return stats_;
  }

  /// Aggregated point query: k O(1) lookups + the policy fold.
  [[nodiscard]] Weight query(Vertex u, Vertex v,
                             AggregatePolicy policy) const;

  /// Deterministic logical counters of one batch (the bench-gate metrics).
  /// With a cache, tree_lookups / lca_probes count only the aggregates
  /// actually computed (fills + bypasses) — the quantity the cache saves.
  struct BatchStats {
    std::uint64_t pairs = 0;
    std::uint64_t tree_lookups = 0;  ///< computed pairs × trees
    std::uint64_t lca_probes = 0;    ///< sparse-table probes (u≠v only)
    std::uint64_t cache_hits = 0;    ///< pairs served from the cache
    std::uint64_t cache_misses = 0;  ///< cacheable pairs computed
    std::uint64_t cache_admissions = 0;  ///< misses that claimed a slot
    std::uint64_t cache_conflicts = 0;   ///< misses bypassed (slot taken)
  };

  /// Answer `pairs` into `out` (resized to match) under `policy`, in
  /// parallel via parallel_for_balanced.  Outputs and the returned
  /// counters are bit-identical across thread counts.  An optional
  /// caller-owned `cache` short-circuits repeated pairs; served values are
  /// bit-identical with and without it (one cache per query stream — the
  /// classification pass mutates it, so no concurrent batches).
  BatchStats query_batch(const std::vector<std::pair<Vertex, Vertex>>& pairs,
                         AggregatePolicy policy, std::vector<Weight>& out,
                         HotPairCache* cache = nullptr) const;

  /// Persist through the versioned format (one position-tracking writer
  /// spans the whole artefact).
  void save(std::ostream& os) const;
  /// Read `is` to its end into an owned aligned image and parse it in
  /// place (the from_image path below).  Sections count as copied.
  [[nodiscard]] static FrtEnsemble load(std::istream& is);
  /// Zero-copy load: mmap `path` and parse it in place, so every index's
  /// persisted arrays point straight at the mapping.  Sections count as
  /// mapped.
  [[nodiscard]] static FrtEnsemble load_mapped(const std::string& path);

  friend bool operator==(const FrtEnsemble& a, const FrtEnsemble& b) {
    return a.master_seed_ == b.master_seed_ &&
           a.graph_fingerprint_ == b.graph_fingerprint_ &&
           a.indices_ == b.indices_;
  }

 private:
  /// The one load path: pin `image`, parse the ensemble artefact in it.
  [[nodiscard]] static FrtEnsemble from_image(ArtefactImage image);
  /// Rebuild the derived structure-of-arrays query layout (leaf_pos_soa_).
  /// Every path that produces a servable ensemble (build/assemble/load)
  /// ends here.
  void finalize_query_layout();

  std::vector<FrtIndex> indices_;
  std::uint64_t master_seed_ = 0;
  std::uint64_t graph_fingerprint_ = 0;
  EnsembleBuildStats stats_{};  // build-time only; not persisted
  // Derived: leaf tour positions interleaved [vertex·k + tree] so the
  // batch kernel's per-pair loop over trees reads contiguous words.
  std::vector<std::uint32_t> leaf_pos_soa_;
  // Keeps a loaded image alive for the indices' views (null when the
  // ensemble owns its arrays).  shared_ptr: registry entries and tenant
  // references all pin the same image.
  std::shared_ptr<const ArtefactImage> image_;
};

[[nodiscard]] AggregatePolicy parse_policy(const std::string& name);
[[nodiscard]] const char* policy_name(AggregatePolicy policy) noexcept;

}  // namespace pmte::serve
