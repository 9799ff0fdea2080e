#include "src/serve/frt_index.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/assertions.hpp"

namespace pmte::serve {

FrtIndex FrtIndex::build(const FrtTree& tree) {
  const std::size_t nodes = tree.num_nodes();
  PMTE_CHECK(nodes >= 1, "FrtIndex: empty tree");
  PMTE_CHECK(nodes <= 0x7fffffffULL, "FrtIndex: tree too large for u32 ids");
  PMTE_OBS_SPAN("index.build", static_cast<std::int64_t>(nodes), "nodes");

  FrtIndex idx;
  idx.levels_ = tree.num_levels();
  idx.beta_ = tree.beta();
  idx.dist_by_lca_level_ = tree.distance_by_lca_level();
  // Build into plain vectors, then hand them to the owned-or-viewed
  // sections once finished (ArraySection is read-only by design).
  std::vector<Weight> edge_weight(idx.levels_);
  for (unsigned l = 0; l < idx.levels_; ++l) {
    edge_weight[l] = tree.edge_weight(l);
  }
  idx.edge_weight_by_level_ = std::move(edge_weight);

  std::vector<std::uint32_t> node_level(nodes);
  std::vector<Weight> wdepth(nodes);
  for (NodeId id = 0; id < nodes; ++id) {
    const auto& nd = tree.node(id);
    node_level[id] = nd.level;
    // Nodes are created top-down (parents precede children), so parents'
    // prefix sums are ready when a child is reached.
    wdepth[id] = nd.parent == FrtTree::invalid_node
                     ? 0.0
                     : wdepth[nd.parent] + nd.parent_edge;
  }
  idx.node_level_ = std::move(node_level);
  idx.wdepth_ = std::move(wdepth);

  // Euler tour: visit a node, recurse into each child, revisit after each
  // return → 2·nodes − 1 positions.  Iterative via an explicit stack of
  // (node, next-child) frames; tree height is num_levels so the stack is
  // tiny, but the explicit form also records revisit positions naturally.
  const std::size_t tour_len = 2 * nodes - 1;
  std::vector<std::uint32_t> euler_node;
  std::vector<std::uint32_t> euler_level;
  euler_node.reserve(tour_len);
  euler_level.reserve(tour_len);
  std::vector<std::uint32_t> leaf_pos(tree.num_leaves(), 0);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.reserve(idx.levels_ + 1);
  stack.emplace_back(tree.root(), 0);
  auto visit = [&](NodeId id) {
    const auto& nd = tree.node(id);
    if (nd.leaf_vertex != no_vertex()) {
      leaf_pos[nd.leaf_vertex] =
          static_cast<std::uint32_t>(euler_node.size());
    }
    euler_node.push_back(id);
    euler_level.push_back(nd.level);
  };
  visit(tree.root());
  while (!stack.empty()) {
    auto& [id, next_child] = stack.back();
    const auto& children = tree.node(id).children;
    if (next_child == children.size()) {
      stack.pop_back();
      if (!stack.empty()) visit(stack.back().first);
      continue;
    }
    const NodeId child = children[next_child++];
    stack.emplace_back(child, 0);
    visit(child);
  }
  PMTE_CHECK(euler_node.size() == tour_len,
             "FrtIndex: malformed Euler tour");
  idx.euler_node_ = std::move(euler_node);
  idx.euler_level_ = std::move(euler_level);
  idx.leaf_pos_ = std::move(leaf_pos);

  idx.build_sparse_table();
  idx.build_structure_maps();
  return idx;
}

void FrtIndex::build_structure_maps() {
  const std::size_t nodes = node_level_.size();
  // Children CSR from the tour: position i is a child visit of position
  // i−1 exactly when the level drops by 1 (a revisit rises by 1).  Tour
  // order of a node's child visits equals the source tree's child order,
  // so the CSR preserves it — the apps' flat walks fold floating-point
  // sums in the same order as the pointer-based reference.
  child_offset_.assign(nodes + 1, 0);
  for (std::size_t i = 1; i < euler_node_.size(); ++i) {
    if (euler_level_[i] + 1 == euler_level_[i - 1]) {
      ++child_offset_[euler_node_[i - 1] + 1];
    }
  }
  for (std::size_t id = 0; id < nodes; ++id) {
    child_offset_[id + 1] += child_offset_[id];
  }
  child_list_.assign(euler_node_.empty() ? 0 : (euler_node_.size() - 1) / 2,
                     0);
  std::vector<std::uint32_t> cursor(child_offset_.begin(),
                                    child_offset_.end() - 1);
  for (std::size_t i = 1; i < euler_node_.size(); ++i) {
    if (euler_level_[i] + 1 == euler_level_[i - 1]) {
      child_list_[cursor[euler_node_[i - 1]]++] = euler_node_[i];
    }
  }
  node_leaf_vertex_.assign(nodes, no_vertex());
  for (std::size_t v = 0; v < leaf_pos_.size(); ++v) {
    node_leaf_vertex_[euler_node_[leaf_pos_[v]]] = static_cast<Vertex>(v);
  }
}

void FrtIndex::build_sparse_table() {
  const std::size_t len = euler_level_.size();
  // Rows 0..⌊log₂ len⌋: a range of length L is answered from row
  // ⌊log₂ L⌋ ≤ ⌊log₂ len⌋, so bit_width(len) rows exactly suffice.
  sparse_rows_ = static_cast<unsigned>(std::bit_width(len));
  sparse_.assign(static_cast<std::size_t>(sparse_rows_) * len, 0);
  for (std::size_t i = 0; i < len; ++i) {
    sparse_[i] = static_cast<std::uint32_t>(i);
  }
  for (unsigned j = 1; j < sparse_rows_; ++j) {
    const std::uint32_t* prev = sparse_.data() + (j - 1) * len;
    std::uint32_t* row = sparse_.data() + static_cast<std::size_t>(j) * len;
    const std::size_t half = std::size_t{1} << (j - 1);
    for (std::size_t i = 0; i + 2 * half <= len; ++i) {
      const std::uint32_t a = prev[i];
      const std::uint32_t b = prev[i + half];
      row[i] = euler_level_[a] >= euler_level_[b] ? a : b;
    }
  }
}

std::uint32_t FrtIndex::lca_pos(std::uint32_t a, std::uint32_t b) const {
  if (a > b) std::swap(a, b);
  const std::uint32_t len = b - a + 1;
  const unsigned k = static_cast<unsigned>(std::bit_width(len)) - 1U;
  const std::uint32_t* row =
      sparse_.data() + static_cast<std::size_t>(k) * euler_level_.size();
  const std::uint32_t p1 = row[a];
  const std::uint32_t p2 = row[b + 1 - (std::uint32_t{1} << k)];
  // Every node strictly between two leaf visits is a descendant of their
  // LCA except the LCA itself, so the max level is unique — either probe
  // winning returns the same node.
  return euler_level_[p1] >= euler_level_[p2] ? p1 : p2;
}

Weight FrtIndex::distance(Vertex u, Vertex v) const {
  PMTE_CHECK(u < leaf_pos_.size() && v < leaf_pos_.size(),
             "FrtIndex::distance: vertex out of range");
  if (u == v) return 0.0;
  const std::uint32_t pos = lca_pos(leaf_pos_[u], leaf_pos_[v]);
  return dist_by_lca_level_[euler_level_[pos]];
}

FrtIndex::NodeId FrtIndex::lca(Vertex u, Vertex v) const {
  PMTE_CHECK(u < leaf_pos_.size() && v < leaf_pos_.size(),
             "FrtIndex::lca: vertex out of range");
  return euler_node_[lca_pos(leaf_pos_[u], leaf_pos_[v])];
}

unsigned FrtIndex::lca_level(Vertex u, Vertex v) const {
  PMTE_CHECK(u < leaf_pos_.size() && v < leaf_pos_.size(),
             "FrtIndex::lca_level: vertex out of range");
  return euler_level_[lca_pos(leaf_pos_[u], leaf_pos_[v])];
}

void FrtIndex::validate() const {
  const std::size_t nodes = node_level_.size();
  PMTE_CHECK(nodes >= 1, "FrtIndex: empty");
  PMTE_CHECK(euler_node_.size() == 2 * nodes - 1,
             "FrtIndex: Euler tour length mismatch");
  PMTE_CHECK(euler_level_.size() == euler_node_.size(),
             "FrtIndex: Euler arrays disagree");
  PMTE_CHECK(wdepth_.size() == nodes, "FrtIndex: wdepth size mismatch");
  PMTE_CHECK(dist_by_lca_level_.size() == levels_,
             "FrtIndex: level table size mismatch");
  for (std::size_t i = 0; i < euler_node_.size(); ++i) {
    PMTE_CHECK(euler_node_[i] < nodes, "FrtIndex: tour node out of range");
    PMTE_CHECK(euler_level_[i] == node_level_[euler_node_[i]],
               "FrtIndex: tour level mismatch");
    if (i > 0) {
      const unsigned a = euler_level_[i - 1];
      const unsigned b = euler_level_[i];
      PMTE_CHECK(a + 1 == b || b + 1 == a,
                 "FrtIndex: tour levels must change by exactly 1");
    }
  }
  // The tour must be a closed DFS of a tree: every node except the first
  // position's (the root) is entered by exactly one down-step.  ±1 level
  // steps alone do not guarantee this, and build_structure_maps() sizes
  // its child CSR to N−1 down-steps — a crafted file re-entering a node
  // would overflow it.
  {
    std::vector<std::uint32_t> child_entries(nodes, 0);
    for (std::size_t i = 1; i < euler_node_.size(); ++i) {
      if (euler_level_[i] + 1 == euler_level_[i - 1]) {
        ++child_entries[euler_node_[i]];
      }
    }
    for (std::size_t id = 0; id < nodes; ++id) {
      const std::uint32_t expected = id == euler_node_[0] ? 0 : 1;
      PMTE_CHECK(child_entries[id] == expected,
                 "FrtIndex: tour is not a single DFS of a tree");
    }
  }
  PMTE_CHECK(!leaf_pos_.empty(), "FrtIndex: no leaves");
  std::vector<bool> position_used(euler_node_.size(), false);
  for (std::size_t v = 0; v < leaf_pos_.size(); ++v) {
    PMTE_CHECK(leaf_pos_[v] < euler_node_.size(),
               "FrtIndex: leaf position out of range");
    PMTE_CHECK(euler_level_[leaf_pos_[v]] == 0,
               "FrtIndex: leaf position not at level 0");
    // Injectivity: aliased leaf positions would silently serve distance 0
    // for distinct vertices — reject the file instead.
    PMTE_CHECK(!position_used[leaf_pos_[v]],
               "FrtIndex: two vertices share a leaf position");
    position_used[leaf_pos_[v]] = true;
  }
  std::size_t level0_nodes = 0;
  for (std::size_t id = 0; id < nodes; ++id) {
    level0_nodes += node_level_[id] == 0 ? 1 : 0;
  }
  PMTE_CHECK(level0_nodes == leaf_pos_.size(),
             "FrtIndex: leaf count does not match level-0 node count");
  for (std::size_t id = 0; id < nodes; ++id) {
    PMTE_CHECK(node_level_[id] < levels_, "FrtIndex: node level out of range");
    PMTE_CHECK(wdepth_[id] >= 0.0 && is_finite(wdepth_[id]),
               "FrtIndex: bad weighted depth");
  }
  for (unsigned l = 1; l < levels_; ++l) {
    PMTE_CHECK(dist_by_lca_level_[l] > dist_by_lca_level_[l - 1],
               "FrtIndex: LCA distance table not increasing");
  }
  PMTE_CHECK(edge_weight_by_level_.size() == levels_,
             "FrtIndex: edge weight table size mismatch");
  for (unsigned l = 0; l < levels_; ++l) {
    PMTE_CHECK(edge_weight_by_level_[l] > 0.0 &&
                   is_finite(edge_weight_by_level_[l]),
               "FrtIndex: bad per-level edge weight");
    // dist_by_lca_level_ is Σ_{l'<l} 2·w_{l'} accumulated ascending, so the
    // two persisted tables must agree exactly.
    if (l + 1 < levels_) {
      PMTE_CHECK(dist_by_lca_level_[l + 1] ==
                     dist_by_lca_level_[l] + 2.0 * edge_weight_by_level_[l],
                 "FrtIndex: edge weights inconsistent with LCA table");
    }
  }
  // Cross-check the two distance representations: for every node,
  // 2·(wdepth[leaf] − wdepth[node]) must equal the LCA-level table entry
  // (up to summation-order rounding — the table accumulates bottom-up,
  // wdepth top-down).
  const Weight wleaf = wdepth_[euler_node_[leaf_pos_[0]]];
  for (std::size_t id = 0; id < nodes; ++id) {
    const Weight via_wdepth = 2.0 * (wleaf - wdepth_[id]);
    const Weight via_table = dist_by_lca_level_[node_level_[id]];
    PMTE_CHECK(std::abs(via_wdepth - via_table) <=
                   1e-9 * (1.0 + std::abs(via_table)),
               "FrtIndex: wdepth inconsistent with LCA distance table");
  }
}

// Field order is normative — docs/FORMAT.md documents this exact layout.
void FrtIndex::save_into(BinaryWriter& w) const {
  w.magic(kIndexMagic);
  w.u32(levels_);
  w.f64(beta_);
  w.vec_u32(node_level_);
  w.vec_f64(wdepth_);
  w.vec_u32(euler_node_);
  w.vec_u32(euler_level_);
  w.vec_u32(leaf_pos_);
  w.vec_f64(dist_by_lca_level_);
  w.vec_f64(edge_weight_by_level_);
}

void FrtIndex::save(std::ostream& os) const {
  BinaryWriter w(os);
  save_into(w);
}

FrtIndex FrtIndex::parse(ImageReader& r) {
  r.expect_magic(kIndexMagic);
  FrtIndex idx;
  idx.levels_ = r.u32();
  idx.beta_ = r.f64();
  // The bulk arrays stay in the image — zero bytes copied; only the
  // derived tables below (sparse RMQ, CSR, leaf maps) allocate.
  using U32Section = ArraySection<std::uint32_t>;
  using F64Section = ArraySection<Weight>;
  idx.node_level_ = U32Section::view_of(r.view_u32());
  idx.wdepth_ = F64Section::view_of(r.view_f64());
  idx.euler_node_ = U32Section::view_of(r.view_u32());
  idx.euler_level_ = U32Section::view_of(r.view_u32());
  idx.leaf_pos_ = U32Section::view_of(r.view_u32());
  idx.dist_by_lca_level_ = F64Section::view_of(r.view_f64());
  idx.edge_weight_by_level_ = F64Section::view_of(r.view_f64());
  idx.validate();
  idx.build_sparse_table();
  idx.build_structure_maps();
  return idx;
}

FrtIndex FrtIndex::load(std::istream& is) {
  const ArtefactImage image = ArtefactImage::read(is);
  ImageReader r(image.bytes(), image.is_mapped());
  // The parsed sections view `image`, which dies here; the copy owns its
  // arrays (ArraySection copies deep).
  const FrtIndex viewing = parse(r);
  FrtIndex owned(viewing);
  return owned;
}

}  // namespace pmte::serve
