#pragma once
// Flat, read-only serving index over one FRT tree.
//
// FrtTree is a build-time structure: nodes own std::vector children, and
// distance() walks tuple suffixes — fine for construction-side checks, too
// pointer-heavy for query traffic.  FrtIndex compacts a finished tree into
// a handful of flat arrays sized once at build time:
//
//   euler_node_ / euler_level_   Euler tour of the tree (2·nodes − 1
//                                positions); the tour visits a node once
//                                per child boundary, so the LCA of two
//                                leaves is the maximum-level node between
//                                their tour positions.
//   sparse_                      sparse-table RMQ (range *max* of
//                                euler_level_, ⌈log₂⌉ rows): any range
//                                query is 2 table probes → O(1) LCA.
//   wdepth_                      per-node prefix sum of root-path edge
//                                weights, so in general
//                                dist_T(u,v) = wdepth[u] + wdepth[v]
//                                              − 2·wdepth[lca].
//   dist_by_lca_level_           the same quantity specialised to FRT
//                                trees: all leaves sit at level 0 and edge
//                                weights are uniform per level, so
//                                2·(wdepth[leaf] − wdepth[lca]) depends
//                                only on the LCA level.  The table is
//                                copied verbatim from
//                                FrtTree::distance_by_lca_level(), which
//                                makes distance() bit-identical to
//                                FrtTree::distance — no re-derived
//                                floating-point sums.
//   edge_weight_by_level_        per-level parent-edge weight, copied
//                                verbatim from FrtTree::edge_weight(l); the
//                                apps' flat tree walks (buy-at-bulk flow
//                                pricing) read it instead of per-node
//                                parent_edge fields.
//
// distance() is O(1): two array reads to map leaves to tour positions, two
// sparse-table probes, one compare, one table lookup.  No allocation, no
// pointer chasing; the index is immutable after build, so concurrent
// queries from any number of threads are safe.
//
// Beyond point queries the index exposes the flat tree *structure* so the
// applications (src/apps/) never touch FrtTree's pointer-based nodes on
// their query paths: euler_nodes()/euler_levels() (the tour itself),
// children(id) (CSR adjacency derived from the tour, in the source tree's
// child order), leaf_vertex(id), and root().  Node ids are the source
// tree's numbering, and parents always precede children, so iterating ids
// descending is a valid bottom-up (children-first) order.
//
// save()/load() persist every non-derived array through the versioned
// binary format of serialize.hpp (normative layout: docs/FORMAT.md); the
// sparse table and the CSR/leaf-vertex maps are rebuilt deterministically
// on load, so save→load→save is byte-identical.  The persisted arrays are
// ArraySections — owned vectors after build() or a standalone load(),
// zero-copy views into an ArtefactImage after parse() (only the derived
// tables are materialised then; the image's owner keeps it alive, see
// FrtEnsemble).  Queries read through the view either way, so served
// doubles are bit-identical however the index was loaded.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "src/frt/frt_tree.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/types.hpp"

namespace pmte::serve {

class FrtIndex {
 public:
  using NodeId = FrtTree::NodeId;

  FrtIndex() = default;

  /// Flatten a built FRT tree.  O(nodes·log nodes) time and space (the
  /// sparse table dominates).
  [[nodiscard]] static FrtIndex build(const FrtTree& tree);

  [[nodiscard]] Vertex num_leaves() const noexcept {
    return static_cast<Vertex>(leaf_pos_.size());
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return node_level_.size();
  }
  [[nodiscard]] unsigned num_levels() const noexcept { return levels_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] bool empty() const noexcept { return node_level_.empty(); }
  /// Whether the persisted arrays view a loaded image (zero-copy parse).
  [[nodiscard]] bool is_view() const noexcept {
    return node_level_.is_view();
  }

  /// Tree distance between the leaves of u and v — O(1), two sparse-table
  /// probes (kLcaProbesPerQuery), no per-query allocation.  Bit-identical
  /// to FrtTree::distance of the source tree.
  [[nodiscard]] Weight distance(Vertex u, Vertex v) const;

  /// Lowest common ancestor of the leaves of u and v (node id of the
  /// source tree's numbering) and its level.
  [[nodiscard]] NodeId lca(Vertex u, Vertex v) const;
  [[nodiscard]] unsigned lca_level(Vertex u, Vertex v) const;

  /// Root-path weight prefix sum of a node (0 at the root).
  [[nodiscard]] Weight weighted_depth(NodeId id) const {
    return wdepth_[id];
  }
  [[nodiscard]] unsigned level(NodeId id) const { return node_level_[id]; }

  /// dist_T for an LCA at `level` (copied from the source tree).
  [[nodiscard]] Weight distance_at_lca_level(unsigned lvl) const {
    return dist_by_lca_level_[lvl];
  }
  /// The full LCA-level distance table (levels_ entries, strictly
  /// increasing; entry 0 is 0.0).
  [[nodiscard]] std::span<const Weight> distance_by_lca_level()
      const noexcept {
    return dist_by_lca_level_;
  }

  /// Weight of the edge from a level-`lvl` node to its parent, copied
  /// verbatim from FrtTree::edge_weight(lvl).  The root level has no
  /// parent edge; reading it returns the tree's value anyway (uniform-rule
  /// extrapolation) — callers skip the root explicitly.
  [[nodiscard]] Weight edge_weight(unsigned lvl) const {
    return edge_weight_by_level_[lvl];
  }

  // --- Flat structure (query-path substitute for FrtTree::Node) ---------

  /// Root node id (the first tour position).
  [[nodiscard]] NodeId root() const { return euler_node_.front(); }

  /// Children of `id` in the source tree's child order — a CSR view
  /// derived from the Euler tour, no per-node heap vectors.
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const {
    return {child_list_.data() + child_offset_[id],
            child_offset_[id + 1] - child_offset_[id]};
  }

  /// Original graph vertex of a leaf node (no_vertex() for inner nodes).
  [[nodiscard]] Vertex leaf_vertex(NodeId id) const {
    return node_leaf_vertex_[id];
  }

  /// Leaf node id of a graph vertex (inverse of leaf_vertex on leaves).
  [[nodiscard]] NodeId leaf_node(Vertex v) const {
    return euler_node_[leaf_pos_[v]];
  }

  /// Euler tour views (tour position → node id / level).
  [[nodiscard]] std::span<const std::uint32_t> euler_nodes() const noexcept {
    return euler_node_;
  }
  [[nodiscard]] std::span<const std::uint32_t> euler_levels() const noexcept {
    return euler_level_;
  }

  // --- Query-kernel internals (FrtEnsemble's SoA batch kernel) -----------

  /// Per-vertex leaf tour positions (vertex → tour position).
  [[nodiscard]] std::span<const std::uint32_t> leaf_positions()
      const noexcept {
    return leaf_pos_;
  }
  /// The RMQ sparse table, row-major with stride euler_levels().size():
  /// row j, column i holds the tour position of the max level in
  /// [i, i + 2^j).  Derived (never persisted) and rebuilt on every load.
  [[nodiscard]] std::span<const std::uint32_t> sparse_table()
      const noexcept {
    return sparse_;
  }

  /// Sparse-table probes per u ≠ v distance query (u == v costs none).
  /// bench_serve's deterministic counters are multiples of this.
  static constexpr std::uint64_t kLcaProbesPerQuery = 2;

  /// Structural validation of the flat arrays (tour shape, leaf positions,
  /// wdepth consistency with dist_by_lca_level_).  Throws on violation.
  void validate() const;

  /// Persist through the versioned format.  save_into shares one
  /// position-tracking writer across an enclosing artefact (FrtEnsemble
  /// embeds k index artefacts in one file); save wraps it for standalone
  /// files.
  void save(std::ostream& os) const;
  void save_into(BinaryWriter& w) const;
  /// The index parser, shared by every load path: the persisted arrays
  /// become views into the reader's image; only the derived tables
  /// (sparse RMQ, children CSR, leaf maps) are materialised.  The caller
  /// owns the image and keeps it alive for the index's lifetime
  /// (FrtEnsemble holds it).
  [[nodiscard]] static FrtIndex parse(ImageReader& r);
  /// Standalone stream load: parse the stream's image, then copy the
  /// arrays into owned storage (nothing else would keep the image alive).
  [[nodiscard]] static FrtIndex load(std::istream& is);

  /// Equality over the persisted state (derived tables excluded — they are
  /// a function of it).  Backs the round-trip tests; sections compare by
  /// content, so a parsed index equals its freshly built twin.
  friend bool operator==(const FrtIndex& a, const FrtIndex& b) {
    return a.levels_ == b.levels_ && a.beta_ == b.beta_ &&
           a.node_level_ == b.node_level_ && a.wdepth_ == b.wdepth_ &&
           a.euler_node_ == b.euler_node_ &&
           a.euler_level_ == b.euler_level_ && a.leaf_pos_ == b.leaf_pos_ &&
           a.dist_by_lca_level_ == b.dist_by_lca_level_ &&
           a.edge_weight_by_level_ == b.edge_weight_by_level_;
  }

 private:
  /// Tour position of the maximum-level node in the inclusive position
  /// range spanned by a and b (the LCA when a, b are leaf positions).
  [[nodiscard]] std::uint32_t lca_pos(std::uint32_t a, std::uint32_t b) const;

  /// (Re)derive the sparse table from the Euler arrays.
  void build_sparse_table();
  /// (Re)derive the children CSR and leaf-vertex map from the tour.
  void build_structure_maps();

  unsigned levels_ = 1;
  double beta_ = 1.0;
  // Persisted arrays: owned after build()/load(), image views after
  // parse() (see ArraySection).
  ArraySection<std::uint32_t> node_level_;   // node → level
  ArraySection<Weight> wdepth_;              // node → root-path weight
  ArraySection<std::uint32_t> euler_node_;   // tour position → node
  ArraySection<std::uint32_t> euler_level_;  // tour position → level
  ArraySection<std::uint32_t> leaf_pos_;     // vertex → tour position
  ArraySection<Weight> dist_by_lca_level_;   // LCA level → dist_T
  ArraySection<Weight> edge_weight_by_level_;  // level → parent-edge weight
  // Derived, rebuilt on load: row j holds, per position i, the tour
  // position of the max level in [i, i + 2^j); row-major, stride = tour
  // length.
  std::vector<std::uint32_t> sparse_;
  unsigned sparse_rows_ = 0;
  // Derived, rebuilt on load: children in CSR layout (source child order)
  // and the leaf-node → graph-vertex inverse of leaf_pos_.
  std::vector<std::uint32_t> child_offset_;      // node → first child slot
  std::vector<NodeId> child_list_;               // concatenated children
  std::vector<Vertex> node_leaf_vertex_;         // node → vertex (leaves)
};

}  // namespace pmte::serve
