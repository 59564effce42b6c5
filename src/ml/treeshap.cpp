#include "ml/treeshap.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace icn::ml {
namespace {

/// Most rows per chunk of forest_shap_batch. Each chunk walks the trees in
/// index order and keeps one leaf memo per tree, so larger chunks hit the
/// memo more often and smaller ones balance the pool better. A chunk also
/// holds at most one lane's share of the rows, so a small batch still spreads
/// over the pool. A memo entry is a pure function of its key, so the chunking
/// never changes a bit either way.
constexpr std::size_t kShapRowsPerChunk = 96;

/// Deepest leaf whose hot/cold decisions fit the memo key's 64-bit mask.
/// Deeper leaves (max_depth is settable) are computed and never cached.
constexpr std::size_t kMaxMemoDepth = 64;

/// One element of the TreeSHAP feature path (Lundberg Alg. 2).
struct PathElement {
  int d = -1;      ///< Feature index (-1 for the root placeholder).
  double z = 1.0;  ///< Fraction of "zero" (missing-feature) paths that flow through.
  double o = 1.0;  ///< Fraction of "one" (present-feature) paths that flow through.
  double w = 0.0;  ///< Permutation weight of subsets of this size.
};

/// Non-owning path over caller storage with room for one more element.
struct Path {
  PathElement* data = nullptr;
  std::size_t size = 0;

  PathElement& operator[](std::size_t i) { return data[i]; }
  const PathElement& operator[](std::size_t i) const { return data[i]; }
};

/// Grows the path by one split (EXTEND of Alg. 2). The caller guarantees one
/// element of spare capacity.
void extend(Path& m, double pz, double po, int pi) {
  const std::size_t l = m.size;
  m.data[l] = PathElement{pi, pz, po, l == 0 ? 1.0 : 0.0};
  m.size = l + 1;
  for (std::size_t i = l; i-- > 0;) {
    m[i + 1].w += po * m[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    m[i].w = pz * m[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

/// Removes path element i, restoring the weights (UNWIND of Alg. 2).
void unwind(Path& m, std::size_t i) {
  const std::size_t depth = m.size;
  const double o_i = m[i].o;
  const double z_i = m[i].z;
  double n = m[depth - 1].w;
  for (std::size_t j = depth - 1; j-- > 0;) {
    if (o_i != 0.0) {
      const double t = m[j].w;
      m[j].w = n * static_cast<double>(depth) /
               (static_cast<double>(j + 1) * o_i);
      n = t - m[j].w * z_i * static_cast<double>(depth - 1 - j) /
                  static_cast<double>(depth);
    } else {
      m[j].w = m[j].w * static_cast<double>(depth) /
               (z_i * static_cast<double>(depth - 1 - j));
    }
  }
  for (std::size_t j = i; j + 1 < depth; ++j) {
    m[j].d = m[j + 1].d;
    m[j].z = m[j + 1].z;
    m[j].o = m[j + 1].o;
  }
  --m.size;
}

/// One path element's share of a leaf: the leaf adds scale * value[c] to
/// phi(feature, c) for every class c.
struct Scaled {
  double scale = 0.0;
  std::size_t feature = 0;
};

/// Adds a leaf's (feature, scale) list to phi in element order. Forced
/// inline, like the walk's per-leaf steps: a call per leaf is measurable in
/// the one-row walk.
[[gnu::always_inline]] inline void scatter(const Scaled* s, std::size_t count,
                                           std::span<const double> value,
                                           Matrix& phi) {
  for (std::size_t k = 0; k < count; ++k) {
    const double scale = s[k].scale;
    double* row = phi.data().data() + s[k].feature * phi.cols();
    for (std::size_t c = 0; c < value.size(); ++c) {
      row[c] += scale * value[c];
    }
  }
}

/// Per-tree memo of leaf contributions for one chunk of rows. The key is
/// (leaf, hot/cold bit of every ancestor) and the entry is the leaf's
/// (feature, scale) list: the path's cover ratios, feature order and weights
/// depend on x only through those bits, so an entry is a pure function of its
/// key. Flat open addressing: a slot holds entry index + 1 (0 = empty), the
/// keys and lists live in entry order.
class LeafMemo {
 public:
  /// Empties the memo for the next tree, keeping its storage. The table
  /// starts at four slots per tree node and doubles whenever it is half full.
  void reset(std::size_t nodes) {
    keys_.clear();
    starts_.assign(1, 0);
    scaled_.clear();
    slots_.assign(std::max(slots_.size(), std::bit_ceil(4 * nodes)), 0);
  }

  /// Slot where (leaf, bits) lives or would be inserted.
  std::uint32_t* probe(std::uint32_t leaf, std::uint64_t bits) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(leaf, bits) & mask;
    for (;; i = (i + 1) & mask) {
      const std::uint32_t e = slots_[i];
      if (e == 0) return &slots_[i];
      const Key& k = keys_[e - 1];
      if (k.bits == bits && k.leaf == leaf) return &slots_[i];
    }
  }

  /// The list of a slot probe() found occupied.
  std::span<const Scaled> entry(std::uint32_t slot) const {
    return {scaled_.data() + starts_[slot - 1],
            starts_[slot] - starts_[slot - 1]};
  }

  /// Fills the empty slot probe() returned with a new entry.
  void insert(std::uint32_t* slot, std::uint32_t leaf, std::uint64_t bits,
              std::span<const Scaled> list) {
    keys_.push_back(Key{bits, leaf});
    scaled_.insert(scaled_.end(), list.begin(), list.end());
    starts_.push_back(static_cast<std::uint32_t>(scaled_.size()));
    *slot = static_cast<std::uint32_t>(keys_.size());
    if (2 * keys_.size() > slots_.size()) grow();
  }

 private:
  struct Key {
    std::uint64_t bits = 0;
    std::uint32_t leaf = 0;
  };

  static std::size_t hash(std::uint32_t leaf, std::uint64_t bits) {
    const std::uint64_t h =
        (bits ^ (std::uint64_t{leaf} * 0x9E3779B97F4A7C15ULL)) *
        0xD6E8FEB86659FD93ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  void grow() {
    slots_.assign(2 * slots_.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < keys_.size(); ++e) {
      std::size_t i = hash(keys_[e].leaf, keys_[e].bits) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Key> keys_;
  std::vector<std::uint32_t> starts_;  ///< Entry e's list: [starts_[e], starts_[e+1]).
  std::vector<Scaled> scaled_;
};

/// Alg. 2 over one tree as an explicit hot-first DFS. A leaf's contribution
/// comes from the memo when its key is there; otherwise the walk builds the
/// leaf's path from per-level snapshots (level l holds the path after node
/// l's extend and unwind). Snapshots are lazy: entering a node at level l
/// invalidates levels >= l, and a miss recomputes only the levels below the
/// deepest one still valid. So a walk without memo hits does the recursion's
/// work, and ancestors of leaves that hit are never computed. The buffers
/// grow to the deepest level a walk reaches and serve every later tree.
class TreeWalk {
 public:
  TreeWalk() { reserve(16); }

  /// Adds the tree's SHAP values at x into phi (M x K), through `memo` when
  /// one is given.
  void run(const DecisionTree& tree, std::span<const double> x, Matrix& phi,
           LeafMemo* memo) {
    nodes_ = tree.nodes().data();
    x_ = x;
    phi_ = &phi;
    memo_ = memo;
    valid_ = 0;
    visit(0, 0, 0, true);
  }

 private:
  /// The current path's node at one level, and its snapshot's bookkeeping.
  struct Level {
    int node = 0;
    bool hot = false;       ///< Whether the node is its parent's hot child.
    std::size_t size = 0;   ///< Elements in the level's snapshot.
    double in_z = 1.0;      ///< The node's incoming z after its unwind.
    double in_o = 1.0;      ///< The node's incoming o after its unwind.
  };

  /// Makes room for `levels` levels. Level l's snapshot starts at
  /// l * (l + 1) / 2 whatever the capacity, so growing keeps every snapshot
  /// in place.
  void reserve(std::size_t levels) {
    cap_ = std::max(levels, 2 * cap_);
    snaps_.resize(cap_ * (cap_ + 1) / 2);  // level l holds <= l + 1 elements
    levels_.resize(cap_);
    lanes_.resize(4 * cap_);
    lane_.resize(cap_);
    leaf_.resize(cap_);
  }

  void visit(int node_id, std::size_t level, std::uint64_t bits, bool hot) {
    if (level >= cap_) reserve(level + 1);
    levels_[level].node = node_id;
    levels_[level].hot = hot;
    valid_ = std::min(valid_, level);
    const TreeNode& node = nodes_[node_id];
    if (node.is_leaf()) {
      leaf(node, node_id, level, bits);
      return;
    }
    const bool go_left =
        x_[static_cast<std::size_t>(node.feature)] <= node.threshold;
    const std::uint64_t hot_bit =
        level < kMaxMemoDepth ? std::uint64_t{1} << level : 0;
    visit(go_left ? node.left : node.right, level + 1, bits | hot_bit, true);
    visit(go_left ? node.right : node.left, level + 1, bits, false);
  }

  /// Adds one leaf's contribution: the memo's entry on a hit, else the
  /// computed list, remembered when the key can hold the leaf's level.
  void leaf(const TreeNode& node, int node_id, std::size_t level,
            std::uint64_t bits) {
    std::uint32_t* slot = nullptr;
    const auto id = static_cast<std::uint32_t>(node_id);
    if (memo_ != nullptr && level <= kMaxMemoDepth) {
      slot = memo_->probe(id, bits);
      if (*slot != 0) {
        const auto hit = memo_->entry(*slot);
        scatter(hit.data(), hit.size(), node.value, *phi_);
        return;
      }
    }
    materialise(level);
    const std::size_t count = leaf_scales(level);
    if (slot != nullptr) memo_->insert(slot, id, bits, {leaf_.data(), count});
    scatter(leaf_.data(), count, node.value, *phi_);
  }

  Path snapshot(std::size_t level) {
    return Path{snaps_.data() + level * (level + 1) / 2, levels_[level].size};
  }

  /// Brings the snapshots of levels valid_ .. level up to date.
  [[gnu::always_inline]] void materialise(std::size_t level) {
    for (std::size_t l = valid_; l <= level; ++l) {
      Level& at = levels_[l];
      const TreeNode& node = nodes_[at.node];
      Path m{snaps_.data() + l * (l + 1) / 2, 0};
      if (l == 0) {
        extend(m, 1.0, 1.0, -1);
      } else {
        const Level& up_level = levels_[l - 1];
        const TreeNode& parent = nodes_[up_level.node];
        const Path up = snapshot(l - 1);
        std::memcpy(m.data, up.data, up.size * sizeof(PathElement));
        m.size = up.size;
        extend(m, up_level.in_z * node.cover / parent.cover,
               at.hot ? up_level.in_o : 0.0, parent.feature);
      }
      if (!node.is_leaf()) {
        // If this feature already appeared on the path, undo its element
        // first so each feature is unique on the path.
        double incoming_z = 1.0;
        double incoming_o = 1.0;
        for (std::size_t i = 1; i < m.size; ++i) {
          if (m[i].d == node.feature) {
            incoming_z = m[i].z;
            incoming_o = m[i].o;
            unwind(m, i);
            break;
          }
        }
        at.in_z = incoming_z;
        at.in_o = incoming_o;
      }
      at.size = m.size;
    }
    valid_ = level + 1;
  }

  /// Writes the (feature, scale) list of the leaf at `level` into leaf_ and
  /// returns its length. For every path element i >= 1 the scale is
  /// unwound_sum(m, i) * (o_i - z_i), where unwound_sum(m, i) is the sum of
  /// the weights unwind(m, i) would produce. All of a leaf's sums run
  /// together: the loop over j is outside and the elements are lanes inside
  /// it, so their divisions overlap instead of each waiting on the one
  /// before. Each lane still performs exactly the operations of its own sum,
  /// in the same order. Elements with o != 0 and with o == 0 take different
  /// recurrences and sit in separate contiguous lane ranges.
  [[gnu::always_inline]] std::size_t leaf_scales(std::size_t level) {
    const Path m = snapshot(level);
    const std::size_t depth = m.size;
    if (depth < 2) return 0;
    const std::size_t count = depth - 1;  // elements 1 .. depth-1
    double* const o = lanes_.data();
    double* const z = o + cap_;
    double* const n = z + cap_;
    double* const total = n + cap_;
    std::size_t ones = 0;
    for (std::size_t i = 1; i < depth; ++i) ones += m[i].o != 0.0;
    std::size_t next_one = 0;
    std::size_t next_zero = ones;
    for (std::size_t i = 1; i < depth; ++i) {
      const std::size_t l = m[i].o != 0.0 ? next_one++ : next_zero++;
      lane_[i - 1] = l;
      o[l] = m[i].o;
      z[l] = m[i].z;
      n[l] = m[depth - 1].w;
      total[l] = 0.0;
    }
    const double d = static_cast<double>(depth);
    for (std::size_t j = depth - 1; j-- > 0;) {
      const double w = m[j].w;
      const double j1 = static_cast<double>(j + 1);
      const double rest = static_cast<double>(depth - 1 - j);
      for (std::size_t l = 0; l < ones; ++l) {
        const double t = n[l] * d / (j1 * o[l]);
        total[l] += t;
        n[l] = w - t * z[l] * rest / d;
      }
      for (std::size_t l = ones; l < count; ++l) {
        total[l] += w * d / (z[l] * rest);
      }
    }
    for (std::size_t i = 1; i < depth; ++i) {
      leaf_[i - 1] = Scaled{total[lane_[i - 1]] * (m[i].o - m[i].z),
                            static_cast<std::size_t>(m[i].d)};
    }
    return count;
  }

  const TreeNode* nodes_ = nullptr;
  std::size_t cap_ = 0;              ///< Levels the buffers hold.
  std::vector<PathElement> snaps_;   ///< Triangle of per-level snapshots.
  std::vector<Level> levels_;
  std::vector<double> lanes_;        ///< leaf_scales' o, z, n, total lanes.
  std::vector<std::size_t> lane_;    ///< Element -> lane.
  std::vector<Scaled> leaf_;         ///< The current leaf's list.
  std::size_t valid_ = 0;   ///< Levels 0 .. valid_-1 hold current snapshots.
  std::span<const double> x_;
  Matrix* phi_ = nullptr;
  LeafMemo* memo_ = nullptr;
};

/// forest_shap of rows lo .. hi-1 of the row-major x (m columns), added into
/// the zeroed M x K matrices out[lo .. hi-1]. Tree-major: the trees run in
/// index order and each tree visits every row before the next tree starts,
/// sharing one leaf memo across the rows. Per row this is the row-major sum
/// exactly: every tree's values accumulate from zero in the walk's leaf
/// order, the trees add into the row in index order, and the mean scales
/// last. A single row skips the memo, which a one-row walk could never hit.
void explain_rows(const RandomForest& forest, const double* x, std::size_t m,
                  std::size_t lo, std::size_t hi, Matrix* out) {
  Matrix phi(m, static_cast<std::size_t>(forest.num_classes()));
  const std::span<double> tree_phi = phi.data();  // one tree's values, one row
  const bool batch = hi - lo > 1;
  LeafMemo memo;
  TreeWalk walk;
  for (const DecisionTree& tree : forest.trees()) {
    if (batch) memo.reset(tree.nodes().size());
    for (std::size_t r = lo; r < hi; ++r) {
      std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
      walk.run(tree, {x + r * m, m}, phi, batch ? &memo : nullptr);
      double* const acc = out[r].data().data();
      for (std::size_t c = 0; c < tree_phi.size(); ++c) acc[c] += tree_phi[c];
    }
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (std::size_t r = lo; r < hi; ++r) {
    for (auto& v : out[r].data()) v *= inv;
  }
}

std::vector<double> conditional_expectation_impl(
    const std::vector<TreeNode>& nodes, int node_id, std::span<const double> x,
    const std::vector<bool>& present) {
  const TreeNode& node = nodes[static_cast<std::size_t>(node_id)];
  if (node.is_leaf()) return node.value;
  const auto f = static_cast<std::size_t>(node.feature);
  if (present[f]) {
    const int next = x[f] <= node.threshold ? node.left : node.right;
    return conditional_expectation_impl(nodes, next, x, present);
  }
  const auto left =
      conditional_expectation_impl(nodes, node.left, x, present);
  const auto right =
      conditional_expectation_impl(nodes, node.right, x, present);
  const double wl = nodes[static_cast<std::size_t>(node.left)].cover;
  const double wr = nodes[static_cast<std::size_t>(node.right)].cover;
  std::vector<double> out(left.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = (wl * left[c] + wr * right[c]) / (wl + wr);
  }
  return out;
}

/// Features the tree was fitted on: its importance vector has one slot each.
/// The walk reads x[f] and writes phi row f for every split feature f, so x
/// must be exactly this wide.
std::size_t training_width(const DecisionTree& tree) {
  return tree.impurity_importance().size();
}

}  // namespace

Matrix tree_shap(const DecisionTree& tree, std::span<const double> x) {
  ICN_REQUIRE(tree.is_fitted(), "tree_shap on unfitted tree");
  ICN_REQUIRE(x.size() == training_width(tree), "tree_shap feature count");
  Matrix phi(x.size(), static_cast<std::size_t>(tree.num_classes()));
  TreeWalk().run(tree, x, phi, nullptr);
  return phi;
}

std::vector<double> tree_base_values(const DecisionTree& tree) {
  ICN_REQUIRE(tree.is_fitted(), "base values on unfitted tree");
  // Node values are cover-weighted class distributions, so the root value is
  // exactly the cover-weighted mean over leaves.
  return tree.nodes().front().value;
}

Matrix forest_shap(const RandomForest& forest, std::span<const double> x) {
  ICN_REQUIRE(forest.is_fitted(), "forest_shap on unfitted forest");
  ICN_REQUIRE(x.size() == training_width(forest.trees().front()),
              "forest_shap feature count");
  Matrix out(x.size(), static_cast<std::size_t>(forest.num_classes()));
  explain_rows(forest, x.data(), x.size(), 0, 1, &out);
  return out;
}

std::vector<Matrix> forest_shap_batch(const RandomForest& forest,
                                      const Matrix& x) {
  ICN_REQUIRE(forest.is_fitted(), "forest_shap_batch on unfitted forest");
  ICN_REQUIRE(x.cols() == training_width(forest.trees().front()),
              "forest_shap_batch feature count");
  std::vector<Matrix> out(
      x.rows(),
      Matrix(x.cols(), static_cast<std::size_t>(forest.num_classes())));
  const std::size_t lanes = icn::util::ThreadPool::active().num_threads();
  const std::size_t rows_per_chunk = std::clamp(
      (x.rows() + lanes - 1) / lanes, std::size_t{1}, kShapRowsPerChunk);
  icn::util::parallel_for(0, x.rows(), rows_per_chunk,
                          [&](std::size_t lo, std::size_t hi) {
                            explain_rows(forest, x.data().data(), x.cols(), lo,
                                         hi, out.data());
                          });
  return out;
}

std::vector<double> forest_base_values(const RandomForest& forest) {
  ICN_REQUIRE(forest.is_fitted(), "base values on unfitted forest");
  std::vector<double> base(static_cast<std::size_t>(forest.num_classes()),
                           0.0);
  for (const auto& tree : forest.trees()) {
    const auto b = tree_base_values(tree);
    for (std::size_t c = 0; c < base.size(); ++c) base[c] += b[c];
  }
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  for (auto& v : base) v *= inv;
  return base;
}

std::vector<double> tree_conditional_expectation(
    const DecisionTree& tree, std::span<const double> x,
    const std::vector<bool>& present) {
  ICN_REQUIRE(tree.is_fitted(), "conditional expectation on unfitted tree");
  ICN_REQUIRE(x.size() == training_width(tree),
              "conditional expectation feature count");
  ICN_REQUIRE(present.size() == x.size(), "present mask size");
  return conditional_expectation_impl(tree.nodes(), 0, x, present);
}

}  // namespace icn::ml
