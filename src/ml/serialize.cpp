// Serialization of the ML models (see ml/serialize.hpp).
#include "ml/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "io/serialize.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/ridge.hpp"
#include "ml/tree.hpp"

namespace varpred::ml {
namespace {

constexpr std::uint64_t kKnnFormatVersion = 1;
// Tree, forest and GBT records. v2 dropped the row and feature sampling
// settings (and the tree and GBT seeds) v1 carried; v1 records are
// rejected.
constexpr std::uint64_t kTreeFormatVersion = 2;

// A packed node index (feature, child, leaf offset or depth): it must be an
// integral, finite double within int32 range.
std::int32_t packed_index(double value) {
  VARPRED_CHECK_ARG(std::isfinite(value) && value == std::trunc(value) &&
                        value >= INT32_MIN && value <= INT32_MAX,
                    "node index is not an int32");
  return static_cast<std::int32_t>(value);
}

// Node i of an n-node tree with `feature` (-1 marks a leaf): an internal
// node's children must lie in range and come after it. The builders append
// a node's children after the node, so this holds for every saved tree,
// and it guarantees that predict's walk from the root ends.
void check_links(std::size_t i, std::size_t n, std::int32_t feature,
                 std::int32_t left, std::int32_t right) {
  VARPRED_CHECK_ARG(feature >= -1, "node feature index out of range");
  if (feature < 0) return;
  const auto after = [&](std::int32_t child) {
    return child >= 0 && static_cast<std::size_t>(child) > i &&
           static_cast<std::size_t>(child) < n;
  };
  VARPRED_CHECK_ARG(after(left) && after(right),
                    "node child index out of range");
}

void save_scaler(io::Writer& w, const StandardScaler& scaler) {
  w.boolean("fitted", scaler.fitted());
  if (scaler.fitted()) {
    w.vec("means", scaler.means());
    w.vec("scales", scaler.scales());
  }
}

StandardScaler load_scaler(io::Reader& r) {
  if (!r.boolean("fitted")) return StandardScaler{};
  auto means = r.vec("means");
  auto scales = r.vec("scales");
  return StandardScaler::from_params(std::move(means), std::move(scales));
}

}  // namespace

void save_matrix(io::Writer& writer, const std::string& name,
                 const Matrix& matrix) {
  writer.u64(name + ".rows", matrix.rows());
  writer.u64(name + ".cols", matrix.cols());
  writer.vec(name + ".data", matrix.data());
}

Matrix load_matrix(io::Reader& reader, const std::string& name) {
  const auto rows = static_cast<std::size_t>(reader.u64(name + ".rows"));
  const auto cols = static_cast<std::size_t>(reader.u64(name + ".cols"));
  const auto data = reader.vec(name + ".data");
  // Divide rather than multiply: rows * cols can wrap to the payload size.
  VARPRED_CHECK_ARG((rows == 0 || cols <= data.size() / rows) &&
                        data.size() == rows * cols,
                    "matrix payload size mismatch for " + name);
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out(r, c) = data[r * cols + c];
  }
  return out;
}

// --- kNN --------------------------------------------------------------

void KnnRegressor::save(std::ostream& out) const {
  io::Writer w(out);
  w.tag("varpred.knn");
  w.u64("version", kKnnFormatVersion);
  w.u64("k", params_.k);
  w.u64("metric", static_cast<std::uint64_t>(params_.metric));
  w.u64("weighting", static_cast<std::uint64_t>(params_.weighting));
  w.boolean("standardize", params_.standardize);
  w.boolean("trained", trained_);
  if (trained_) {
    save_scaler(w, scaler_);
    save_matrix(w, "x", x_);
    save_matrix(w, "y", y_);
  }
}

KnnRegressor KnnRegressor::load(std::istream& in) {
  io::Reader r(in);
  r.tag("varpred.knn");
  const auto version = r.u64("version");
  VARPRED_CHECK_ARG(version == kKnnFormatVersion, "unsupported knn version");
  KnnParams params;
  params.k = static_cast<std::size_t>(r.u64("k"));
  const auto metric = r.u64("metric");
  VARPRED_CHECK_ARG(metric <= static_cast<std::uint64_t>(Metric::kManhattan),
                    "knn metric out of range");
  params.metric = static_cast<Metric>(metric);
  const auto weighting = r.u64("weighting");
  VARPRED_CHECK_ARG(
      weighting <= static_cast<std::uint64_t>(KnnWeighting::kDistance),
      "knn weighting out of range");
  params.weighting = static_cast<KnnWeighting>(weighting);
  params.standardize = r.boolean("standardize");
  KnnRegressor model(params);
  if (r.boolean("trained")) {
    model.scaler_ = load_scaler(r);
    model.x_ = load_matrix(r, "x");
    model.y_ = load_matrix(r, "y");
    // The same shapes fit() guarantees: predict averages rows of y for
    // neighbours found in x, and standardizes queries to x's width.
    VARPRED_CHECK_ARG(model.x_.rows() == model.y_.rows(),
                      "knn x/y row count mismatch");
    VARPRED_CHECK_ARG(model.x_.rows() >= 1, "knn record has no rows");
    VARPRED_CHECK_ARG(!model.scaler_.fitted() ||
                          model.scaler_.means().size() == model.x_.cols(),
                      "knn scaler width differs from x");
    model.trained_ = true;
  }
  return model;
}

// --- Regression tree ---------------------------------------------------

void RegressionTree::save(std::ostream& out) const {
  io::Writer w(out);
  w.tag("varpred.tree");
  w.u64("version", kTreeFormatVersion);
  w.u64("max_depth", params_.max_depth);
  w.u64("min_samples_leaf", params_.min_samples_leaf);
  w.u64("min_samples_split", params_.min_samples_split);
  w.u64("n_outputs", n_outputs_);
  w.u64("n_nodes", nodes_.size());
  std::vector<double> packed;
  packed.reserve(nodes_.size() * 6);
  for (const auto& node : nodes_) {
    packed.push_back(node.feature);
    packed.push_back(node.threshold);
    packed.push_back(node.left);
    packed.push_back(node.right);
    packed.push_back(node.value_offset);
    packed.push_back(node.node_depth);
  }
  w.vec("nodes", packed);
  w.vec("leaves", leaf_values_);
}

RegressionTree RegressionTree::load(std::istream& in) {
  io::Reader r(in);
  r.tag("varpred.tree");
  VARPRED_CHECK_ARG(r.u64("version") == kTreeFormatVersion,
                    "unsupported tree version");
  TreeParams params;
  params.max_depth = static_cast<std::size_t>(r.u64("max_depth"));
  params.min_samples_leaf =
      static_cast<std::size_t>(r.u64("min_samples_leaf"));
  params.min_samples_split =
      static_cast<std::size_t>(r.u64("min_samples_split"));
  RegressionTree tree(params);
  tree.n_outputs_ = static_cast<std::size_t>(r.u64("n_outputs"));
  const auto n_nodes = static_cast<std::size_t>(r.u64("n_nodes"));
  const auto packed = r.vec("nodes");
  VARPRED_CHECK_ARG(packed.size() % 6 == 0 && packed.size() / 6 == n_nodes,
                    "tree node payload size");
  tree.leaf_values_ = r.vec("leaves");
  tree.nodes_.resize(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    auto& node = tree.nodes_[i];
    node.feature = packed_index(packed[i * 6 + 0]);
    node.threshold = packed[i * 6 + 1];
    node.left = packed_index(packed[i * 6 + 2]);
    node.right = packed_index(packed[i * 6 + 3]);
    node.value_offset = packed_index(packed[i * 6 + 4]);
    node.node_depth = packed_index(packed[i * 6 + 5]);
    check_links(i, n_nodes, node.feature, node.left, node.right);
    if (node.feature < 0) {
      // value_offset + n_outputs <= leaves, without overflow.
      const std::size_t n_leaf_values = tree.leaf_values_.size();
      VARPRED_CHECK_ARG(node.value_offset >= 0 &&
                            tree.n_outputs_ <= n_leaf_values &&
                            static_cast<std::size_t>(node.value_offset) <=
                                n_leaf_values - tree.n_outputs_,
                        "leaf value offset out of range");
    }
  }
  return tree;
}

// --- Random forest ------------------------------------------------------

void RandomForest::save(std::ostream& out) const {
  io::Writer w(out);
  w.tag("varpred.forest");
  w.u64("version", kTreeFormatVersion);
  w.u64("n_trees", params_.n_trees);
  w.u64("seed", params_.seed);
  w.u64("n_outputs", n_outputs_);
  w.u64("trained_trees", trees_.size());
  for (const auto& tree : trees_) tree.save(out);
}

RandomForest RandomForest::load(std::istream& in) {
  io::Reader r(in);
  r.tag("varpred.forest");
  VARPRED_CHECK_ARG(r.u64("version") == kTreeFormatVersion,
                    "unsupported forest version");
  ForestParams params;
  params.n_trees = static_cast<std::size_t>(r.u64("n_trees"));
  params.seed = r.u64("seed");
  RandomForest forest(params);
  forest.n_outputs_ = static_cast<std::size_t>(r.u64("n_outputs"));
  const auto n = static_cast<std::size_t>(r.u64("trained_trees"));
  forest.trees_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    forest.trees_.push_back(RegressionTree::load(in));
    // predict sums n_outputs values from every tree.
    VARPRED_CHECK_ARG(forest.trees_.back().trained() &&
                          forest.trees_.back().output_count() ==
                              forest.n_outputs_,
                      "forest tree does not match the forest's outputs");
  }
  return forest;
}

// --- Gradient boosting ---------------------------------------------------

void GradientBoosting::save(std::ostream& out) const {
  io::Writer w(out);
  w.tag("varpred.gbt");
  w.u64("version", kTreeFormatVersion);
  w.u64("n_rounds", params_.n_rounds);
  w.f64("learning_rate", params_.learning_rate);
  w.u64("max_depth", params_.max_depth);
  w.f64("lambda", params_.lambda);
  w.f64("gamma", params_.gamma);
  w.f64("min_child_weight", params_.min_child_weight);
  w.u64("n_ensembles", ensembles_.size());
  for (const auto& ens : ensembles_) {
    w.f64("base_score", ens.base_score);
    w.u64("n_trees", ens.trees.size());
    for (const auto& tree : ens.trees) {
      std::vector<double> packed;
      packed.reserve(tree.nodes.size() * 5);
      for (const auto& node : tree.nodes) {
        packed.push_back(node.feature);
        packed.push_back(node.threshold);
        packed.push_back(node.left);
        packed.push_back(node.right);
        packed.push_back(node.weight);
      }
      w.vec("tree", packed);
    }
  }
}

GradientBoosting GradientBoosting::load(std::istream& in) {
  io::Reader r(in);
  r.tag("varpred.gbt");
  VARPRED_CHECK_ARG(r.u64("version") == kTreeFormatVersion,
                    "unsupported gbt version");
  GbtParams params;
  params.n_rounds = static_cast<std::size_t>(r.u64("n_rounds"));
  params.learning_rate = r.f64("learning_rate");
  params.max_depth = static_cast<std::size_t>(r.u64("max_depth"));
  params.lambda = r.f64("lambda");
  params.gamma = r.f64("gamma");
  params.min_child_weight = r.f64("min_child_weight");
  GradientBoosting gbt(params);
  const auto n_ens = static_cast<std::size_t>(r.u64("n_ensembles"));
  gbt.ensembles_.resize(n_ens);
  for (auto& ens : gbt.ensembles_) {
    ens.base_score = r.f64("base_score");
    const auto n_trees = static_cast<std::size_t>(r.u64("n_trees"));
    ens.trees.resize(n_trees);
    for (auto& tree : ens.trees) {
      const auto packed = r.vec("tree");
      VARPRED_CHECK_ARG(!packed.empty() && packed.size() % 5 == 0,
                        "gbt tree payload size");
      tree.nodes.resize(packed.size() / 5);
      for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
        auto& node = tree.nodes[i];
        node.feature = packed_index(packed[i * 5 + 0]);
        node.threshold = packed[i * 5 + 1];
        node.left = packed_index(packed[i * 5 + 2]);
        node.right = packed_index(packed[i * 5 + 3]);
        node.weight = packed[i * 5 + 4];
        check_links(i, tree.nodes.size(), node.feature, node.left,
                    node.right);
      }
    }
  }
  return gbt;
}

// --- Dispatcher -----------------------------------------------------------

std::unique_ptr<Regressor> load_regressor(std::istream& in) {
  // Peek the type tag, then rewind so the concrete loader sees it again.
  const auto start = in.tellg();
  std::string tag;
  in >> tag;
  VARPRED_CHECK_ARG(!tag.empty(), "empty model stream");
  in.clear();
  in.seekg(start);
  if (tag == "varpred.knn") {
    return std::make_unique<KnnRegressor>(KnnRegressor::load(in));
  }
  if (tag == "varpred.tree") {
    return std::make_unique<RegressionTree>(RegressionTree::load(in));
  }
  if (tag == "varpred.forest") {
    return std::make_unique<RandomForest>(RandomForest::load(in));
  }
  if (tag == "varpred.gbt") {
    return std::make_unique<GradientBoosting>(GradientBoosting::load(in));
  }
  if (tag == "varpred.ridge") {
    return std::make_unique<RidgeRegressor>(RidgeRegressor::load(in));
  }
  VARPRED_CHECK_ARG(false, "unknown model tag: " + tag);
}

}  // namespace varpred::ml
