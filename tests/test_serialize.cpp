// Tests for model/predictor serialization: exact round trips for every
// model type, the type-dispatching loader, predictor-level round trips, and
// failure behaviour on malformed input.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/crosssystem.hpp"
#include "core/predictor.hpp"
#include "io/serialize.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/ridge.hpp"
#include "ml/serialize.hpp"
#include "ml/tree.hpp"

namespace varpred {
namespace {

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.uniform(-3.0, 3.0);
    }
  }
  return m;
}

TEST(SerializePrimitives, WriterReaderRoundTrip) {
  std::stringstream ss;
  io::Writer w(ss);
  w.tag("header");
  w.u64("count", 42);
  w.i64("offset", -7);
  w.f64("pi", 3.141592653589793);
  w.f64("tiny", 1e-300);
  w.boolean("flag", true);
  w.text("name", "hello world, with: punctuation");
  const std::vector<double> xs = {1.0, -2.5, 1e17, 0.1};
  w.vec("xs", xs);

  io::Reader r(ss);
  r.tag("header");
  EXPECT_EQ(r.u64("count"), 42u);
  EXPECT_EQ(r.i64("offset"), -7);
  EXPECT_DOUBLE_EQ(r.f64("pi"), 3.141592653589793);
  EXPECT_DOUBLE_EQ(r.f64("tiny"), 1e-300);
  EXPECT_TRUE(r.boolean("flag"));
  EXPECT_EQ(r.text("name"), "hello world, with: punctuation");
  EXPECT_EQ(r.vec("xs"), xs);
}

TEST(SerializePrimitives, LabelMismatchThrows) {
  std::stringstream ss;
  io::Writer w(ss);
  w.u64("alpha", 1);
  io::Reader r(ss);
  EXPECT_THROW(r.u64("beta"), std::invalid_argument);
}

TEST(SerializePrimitives, VecU64RoundTripsFullRange) {
  std::stringstream ss;
  io::Writer w(ss);
  const std::vector<std::uint64_t> ids = {0, 1, 4294967296ULL,
                                          18446744073709551615ULL};
  w.vec_u64("ids", ids);
  w.vec_u64("none", std::vector<std::uint64_t>{});
  io::Reader r(ss);
  EXPECT_EQ(r.vec_u64("ids"), ids);
  EXPECT_TRUE(r.vec_u64("none").empty());
  // A negative element is not a u64.
  std::stringstream bad("ids 2 5 -1");
  io::Reader rb(bad);
  EXPECT_THROW(rb.vec_u64("ids"), std::invalid_argument);
}

TEST(SerializePrimitives, PeekDoesNotConsume) {
  std::stringstream ss;
  io::Writer w(ss);
  w.tag("forest");
  w.u64("trees", 3);
  io::Reader r(ss);
  EXPECT_EQ(r.peek(), "forest");
  EXPECT_EQ(r.peek(), "forest");
  r.tag("forest");
  EXPECT_EQ(r.peek(), "trees");
  EXPECT_EQ(r.u64("trees"), 3u);
  EXPECT_EQ(r.peek(), "");  // end of stream
}

TEST(SerializePrimitives, TruncatedStreamThrows) {
  std::stringstream ss("xs 5 1.0 2.0");
  io::Reader r(ss);
  EXPECT_THROW(r.vec("xs"), std::invalid_argument);
}

TEST(SerializeMatrix, RoundTripExact) {
  const auto m = random_matrix(7, 5, 1);
  std::stringstream ss;
  io::Writer w(ss);
  ml::save_matrix(w, "m", m);
  io::Reader r(ss);
  const auto back = ml::load_matrix(r, "m");
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      EXPECT_DOUBLE_EQ(back(i, j), m(i, j));
    }
  }
}

// A matrix record with the given dimensions and payload.
std::string matrix_record(std::uint64_t rows, std::uint64_t cols,
                          const std::vector<double>& data) {
  std::ostringstream out;
  io::Writer w(out);
  w.u64("m.rows", rows);
  w.u64("m.cols", cols);
  w.vec("m.data", data);
  return out.str();
}

TEST(SerializeMatrix, RejectsDimensionsWhoseProductWraps) {
  // 2^32 * 2^32 wraps to 0 and (2^63 + 1) * 2 wraps to 2: both products
  // equal the payload size, and a multiply-only check would then fill a
  // matrix far past its buffer.
  const std::uint64_t two_32 = std::uint64_t{1} << 32;
  const std::uint64_t two_63_plus_1 = (std::uint64_t{1} << 63) + 1;
  for (const auto& [rows, cols, data] :
       {std::tuple{two_32, two_32, std::vector<double>{}},
        std::tuple{two_63_plus_1, std::uint64_t{2},
                   std::vector<double>{1.0, 2.0}},
        std::tuple{std::uint64_t{2}, two_63_plus_1,
                   std::vector<double>{1.0, 2.0}}}) {
    std::stringstream in(matrix_record(rows, cols, data));
    io::Reader r(in);
    EXPECT_THROW(ml::load_matrix(r, "m"), std::invalid_argument)
        << rows << " x " << cols;
  }
  // An empty matrix of either shape still loads.
  for (const auto& [rows, cols] :
       {std::pair{std::uint64_t{0}, two_32},
        std::pair{std::uint64_t{3}, std::uint64_t{0}}}) {
    std::stringstream in(matrix_record(rows, cols, {}));
    io::Reader r(in);
    EXPECT_EQ(ml::load_matrix(r, "m").rows(), rows);
  }
}

template <typename Model>
void expect_identical_predictions(const Model& a, const ml::Regressor& b,
                                  std::size_t n_features) {
  const auto queries = random_matrix(20, n_features, 99);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_EQ(a.predict(queries.row(q)), b.predict(queries.row(q)));
  }
}

TEST(SerializeModels, KnnRoundTrip) {
  ml::KnnParams params;
  params.k = 7;
  params.metric = ml::Metric::kEuclidean;
  params.weighting = ml::KnnWeighting::kDistance;
  ml::KnnRegressor knn(params);
  knn.fit(random_matrix(40, 6, 2), random_matrix(40, 3, 3));

  std::stringstream ss;
  knn.save(ss);
  const auto back = ml::KnnRegressor::load(ss);
  EXPECT_EQ(back.params().k, 7u);
  EXPECT_EQ(back.params().metric, ml::Metric::kEuclidean);
  expect_identical_predictions(knn, back, 6);
}

TEST(SerializeModels, UntrainedKnnRoundTrips) {
  ml::KnnRegressor knn;
  std::stringstream ss;
  knn.save(ss);
  const auto back = ml::KnnRegressor::load(ss);
  EXPECT_FALSE(back.trained());
}

TEST(SerializeModels, TreeRoundTrip) {
  ml::TreeParams params;
  params.max_depth = 5;
  ml::RegressionTree tree(params);
  tree.fit(random_matrix(60, 4, 4), random_matrix(60, 2, 5));

  std::stringstream ss;
  tree.save(ss);
  const auto back = ml::RegressionTree::load(ss);
  EXPECT_EQ(back.node_count(), tree.node_count());
  EXPECT_EQ(back.leaf_count(), tree.leaf_count());
  expect_identical_predictions(tree, back, 4);
}

TEST(SerializeModels, ForestRoundTrip) {
  ml::ForestParams params;
  params.n_trees = 12;
  params.seed = 9;
  ml::RandomForest forest(params);
  forest.fit(random_matrix(50, 5, 6), random_matrix(50, 2, 7));

  std::stringstream ss;
  forest.save(ss);
  const auto back = ml::RandomForest::load(ss);
  EXPECT_EQ(back.tree_count(), 12u);
  expect_identical_predictions(forest, back, 5);
}

TEST(SerializeModels, GbtRoundTrip) {
  ml::GbtParams params;
  params.n_rounds = 15;
  ml::GradientBoosting gbt(params);
  gbt.fit(random_matrix(50, 5, 8), random_matrix(50, 3, 9));

  std::stringstream ss;
  gbt.save(ss);
  const auto back = ml::GradientBoosting::load(ss);
  expect_identical_predictions(gbt, back, 5);
}

TEST(SerializeModels, DispatcherRestoresEveryType) {
  const auto x = random_matrix(30, 4, 10);
  const auto y = random_matrix(30, 2, 11);
  std::vector<std::unique_ptr<ml::Regressor>> models;
  models.push_back(std::make_unique<ml::KnnRegressor>());
  models.push_back(std::make_unique<ml::RegressionTree>());
  models.push_back(std::make_unique<ml::RandomForest>(
      ml::ForestParams{.n_trees = 5, .tree = {}, .seed = 2}));
  models.push_back(std::make_unique<ml::GradientBoosting>(
      ml::GbtParams{.n_rounds = 5}));
  for (auto& model : models) {
    model->fit(x, y);
    std::stringstream ss;
    model->save(ss);
    const auto back = ml::load_regressor(ss);
    EXPECT_EQ(back->name(), model->name());
    for (std::size_t q = 0; q < 5; ++q) {
      EXPECT_EQ(back->predict(x.row(q)), model->predict(x.row(q)))
          << model->name();
    }
  }
}

TEST(SerializeModels, DispatcherRejectsGarbage) {
  std::stringstream ss("not.a.model 1 2 3");
  EXPECT_THROW(ml::load_regressor(ss), std::invalid_argument);
  std::stringstream empty("");
  EXPECT_THROW(ml::load_regressor(empty), std::invalid_argument);
}

TEST(SerializePredictors, FewRunsRoundTrip) {
  const auto corpus =
      measure::build_corpus(measure::SystemModel::intel(), 60, 7);
  core::FewRunsConfig config;
  config.n_probe_runs = 5;
  core::FewRunsPredictor predictor(config);
  predictor.train_all(corpus);

  std::stringstream ss;
  predictor.save(ss);
  auto back = core::FewRunsPredictor::load(ss);
  EXPECT_TRUE(back.trained());
  EXPECT_EQ(back.config().n_probe_runs, 5u);
  EXPECT_EQ(back.config().repr, config.repr);

  const std::vector<std::size_t> probe = {0, 1, 2, 3, 4};
  Rng r1(3);
  Rng r2(3);
  EXPECT_EQ(
      predictor.predict_distribution(corpus.benchmarks[0], probe, 200, r1),
      back.predict_distribution(corpus.benchmarks[0], probe, 200, r2));
}

TEST(SerializePredictors, CrossSystemRoundTrip) {
  const auto amd = measure::build_corpus(measure::SystemModel::amd(), 60, 7);
  const auto intel =
      measure::build_corpus(measure::SystemModel::intel(), 60, 7);
  core::CrossSystemPredictor predictor;
  predictor.train_all(amd, intel);

  std::stringstream ss;
  predictor.save(ss);
  auto back = core::CrossSystemPredictor::load(ss);
  EXPECT_TRUE(back.trained());

  Rng r1(4);
  Rng r2(4);
  EXPECT_EQ(predictor.predict_distribution(amd.benchmarks[2], 200, r1),
            back.predict_distribution(amd.benchmarks[2], 200, r2));
}

// An artifact's body with one recorded field replaced, under a fresh
// checksum, so the predictor loader itself sees the new value.
std::string with_field(const std::string& artifact, const std::string& from,
                       const std::string& to) {
  std::istringstream in(artifact);
  std::string body = io::read_checksummed(in);
  const std::size_t at = body.find("\n" + from + "\n");
  EXPECT_NE(at, std::string::npos);
  body.replace(at + 1, from.size(), to);
  std::ostringstream out;
  io::write_checksummed(out, body);
  return out.str();
}

TEST(SerializePredictors, LoadersRejectOutOfRangeKinds) {
  const auto amd = measure::build_corpus(measure::SystemModel::amd(), 40, 7);
  const auto intel =
      measure::build_corpus(measure::SystemModel::intel(), 40, 7);
  core::FewRunsConfig config;
  config.n_probe_runs = 5;
  core::FewRunsPredictor few(config);
  few.train_all(intel);
  core::CrossSystemPredictor cross;
  cross.train_all(amd, intel);
  std::stringstream few_out;
  few.save(few_out);
  std::stringstream cross_out;
  cross.save(cross_out);

  // Ridge (3) and Quantile (3) are the last kinds. 4 and 7 used to load
  // as kinds, and 2^32 + 2 wrapped onto Pearson.
  for (const std::string bad : {"model 4", "model 7", "repr 4294967298"}) {
    const std::string field = bad.substr(0, bad.find(' '));
    const std::string pristine = field == "model" ? "model 0" : "repr 2";
    std::stringstream few_in(with_field(few_out.str(), pristine, bad));
    EXPECT_THROW(core::FewRunsPredictor::load(few_in), std::invalid_argument)
        << bad;
    std::stringstream cross_in(with_field(cross_out.str(), pristine, bad));
    EXPECT_THROW(core::CrossSystemPredictor::load(cross_in),
                 std::invalid_argument)
        << bad;
  }
  // The rewrite itself keeps a valid artifact valid.
  std::stringstream same(with_field(few_out.str(), "model 0", "model 3"));
  EXPECT_EQ(core::FewRunsPredictor::load(same).config().model,
            core::ModelKind::kRidge);
}

TEST(SerializePredictors, UntrainedSaveThrows) {
  core::FewRunsPredictor predictor;
  std::stringstream ss;
  EXPECT_THROW(predictor.save(ss), std::invalid_argument);
  core::CrossSystemPredictor cross;
  EXPECT_THROW(cross.save(ss), std::invalid_argument);
}


// Lax numeric parses used to turn corrupted tokens into silent zeros; the
// Reader must now reject any token it did not fully consume.
TEST(SerializePrimitives, CorruptNumericTokenThrows) {
  {
    std::stringstream ss("pi 3.14garbage\n");
    io::Reader r(ss);
    EXPECT_THROW(r.f64("pi"), std::invalid_argument);
  }
  {
    std::stringstream ss("count 4x2\n");
    io::Reader r(ss);
    EXPECT_THROW(r.u64("count"), std::invalid_argument);
  }
  {
    std::stringstream ss("offset --7\n");
    io::Reader r(ss);
    EXPECT_THROW(r.i64("offset"), std::invalid_argument);
  }
  {
    // Corrupt element inside a vector payload.
    std::stringstream ss("xs 3 1.0 2.0e 3.0\n");
    io::Reader r(ss);
    EXPECT_THROW(r.vec("xs"), std::invalid_argument);
  }
  {
    // Corrupt length prefix: must not be read as zero elements.
    std::stringstream ss("xs 3e 1.0 2.0 3.0\n");
    io::Reader r(ss);
    EXPECT_THROW(r.vec("xs"), std::invalid_argument);
  }
}

TEST(SerializeModels, CorruptedIntegerFieldInSavedTreeThrows) {
  ml::RegressionTree tree;
  tree.fit(random_matrix(40, 4, 31), random_matrix(40, 2, 32));
  std::stringstream ss;
  tree.save(ss);
  std::string doc = ss.str();
  const auto pos = doc.find("n_nodes ");
  ASSERT_NE(pos, std::string::npos);
  doc.insert(pos + 8, "x");  // "n_nodes 13" -> "n_nodes x13"
  std::stringstream corrupted(doc);
  EXPECT_THROW(ml::RegressionTree::load(corrupted), std::invalid_argument);
}

TEST(SerializeModels, CorruptedNumericFieldInSavedGbtThrows) {
  ml::GbtParams gp;
  gp.n_rounds = 4;
  ml::GradientBoosting gbt(gp);
  gbt.fit(random_matrix(40, 4, 33), random_matrix(40, 1, 34));
  std::stringstream ss;
  gbt.save(ss);
  std::string doc = ss.str();
  const auto pos = doc.find("learning_rate ");
  ASSERT_NE(pos, std::string::npos);
  doc.insert(pos + 14, "x");  // "learning_rate 0.1" -> "learning_rate x0.1"
  std::stringstream corrupted(doc);
  EXPECT_THROW(ml::GradientBoosting::load(corrupted), std::invalid_argument);
}

// Hand-made tree, forest and GBT records. A model file's checksum guards
// against corruption, not against a crafted record (anyone can recompute
// it), so the loaders check every node index themselves: a record that
// would send predict out of bounds or around a cycle fails at load.

// A version-2 tree record over one feature: `nodes` packs (feature,
// threshold, left, right, value_offset, depth) per node.
std::string tree_record(const std::vector<double>& nodes,
                        const std::vector<double>& leaves,
                        std::uint64_t n_outputs = 1) {
  std::ostringstream out;
  io::Writer w(out);
  w.tag("varpred.tree");
  w.u64("version", 2);
  w.u64("max_depth", 1);
  w.u64("min_samples_leaf", 1);
  w.u64("min_samples_split", 2);
  w.u64("n_outputs", n_outputs);
  w.u64("n_nodes", nodes.size() / 6);
  w.vec("nodes", nodes);
  w.vec("leaves", leaves);
  return out.str();
}

// The stump x0 <= 0.5 ? 0 : 1 as packed tree nodes.
std::vector<double> stump_nodes() {
  return {0, 0.5, 1, 2, -1, 0,     // root
          -1, 0, -1, -1, 0, 1,     // leaf: value 0
          -1, 0, -1, -1, 1, 1};    // leaf: value 1
}

// A version-2 GBT record with one single-output ensemble of one tree:
// `nodes` packs (feature, threshold, left, right, weight) per node.
std::string gbt_record(const std::vector<double>& nodes) {
  std::ostringstream out;
  io::Writer w(out);
  w.tag("varpred.gbt");
  w.u64("version", 2);
  w.u64("n_rounds", 1);
  w.f64("learning_rate", 1.0);
  w.u64("max_depth", 1);
  w.f64("lambda", 1.0);
  w.f64("gamma", 0.0);
  w.f64("min_child_weight", 1.0);
  w.u64("n_ensembles", 1);
  w.f64("base_score", 0.5);
  w.u64("n_trees", 1);
  w.vec("tree", nodes);
  return out.str();
}

// The stump x0 <= 0.5 ? -0.25 : 0.25 as packed GBT nodes.
std::vector<double> gbt_stump_nodes() {
  return {0, 0.5, 1, 2, 0,         // root
          -1, 0, -1, -1, -0.25,    // leaf
          -1, 0, -1, -1, 0.25};    // leaf
}

// Loads `record` through the concrete loader and through the dispatcher.
template <typename Model>
void expect_rejected(const std::string& record) {
  std::stringstream direct(record);
  EXPECT_THROW(Model::load(direct), std::invalid_argument);
  std::stringstream dispatched(record);
  EXPECT_THROW(ml::load_regressor(dispatched), std::invalid_argument);
}

TEST(ModelRecords, HandMadeTreeAndGbtRecordsLoadAndPredict) {
  std::stringstream tree_in(tree_record(stump_nodes(), {0.0, 1.0}));
  const auto tree = ml::RegressionTree::load(tree_in);
  EXPECT_EQ(tree.predict(std::vector<double>{0.2}),
            std::vector<double>{0.0});
  EXPECT_EQ(tree.predict(std::vector<double>{0.9}),
            std::vector<double>{1.0});
  std::stringstream gbt_in(gbt_record(gbt_stump_nodes()));
  const auto gbt = ml::GradientBoosting::load(gbt_in);
  EXPECT_EQ(gbt.predict(std::vector<double>{0.2}),
            std::vector<double>{0.25});
  EXPECT_EQ(gbt.predict(std::vector<double>{0.9}),
            std::vector<double>{0.75});
}

TEST(ModelRecords, TreeRejectsChildThatDoesNotComeAfterItsNode) {
  auto self = stump_nodes();
  self[2] = 0;  // the root is its own left child: predict would never end
  expect_rejected<ml::RegressionTree>(tree_record(self, {0.0, 1.0}));
  // Node 1 made internal, pointing back at the root.
  auto back = stump_nodes();
  back[6] = 0;
  back[8] = 0;
  back[9] = 2;
  expect_rejected<ml::RegressionTree>(tree_record(back, {0.0, 1.0}));
}

TEST(ModelRecords, TreeRejectsOutOfRangeChild) {
  for (const double child : {99999.0, 3.0, -1.0}) {
    auto nodes = stump_nodes();
    nodes[2] = child;
    expect_rejected<ml::RegressionTree>(tree_record(nodes, {0.0, 1.0}));
    nodes = stump_nodes();
    nodes[3] = child;
    expect_rejected<ml::RegressionTree>(tree_record(nodes, {0.0, 1.0}));
  }
}

TEST(ModelRecords, TreeRejectsOutOfRangeLeafOffset) {
  for (const double offset : {2.0, -1.0, 1e6}) {
    auto nodes = stump_nodes();
    nodes[16] = offset;
    expect_rejected<ml::RegressionTree>(tree_record(nodes, {0.0, 1.0}));
  }
  // Two outputs per leaf: the second leaf's values would end past the
  // leaves, and an output count near 2^64 must not wrap the bound.
  expect_rejected<ml::RegressionTree>(
      tree_record(stump_nodes(), {0.0, 1.0}, 2));
  expect_rejected<ml::RegressionTree>(tree_record(
      stump_nodes(), {0.0, 1.0}, std::numeric_limits<std::uint64_t>::max()));
}

TEST(ModelRecords, TreeRejectsNonIntegralOrOutOfRangeIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Each field that holds an index: feature, left, right, value_offset and
  // depth, of the root or of a leaf.
  for (const std::size_t field : {0U, 2U, 3U, 10U, 16U, 17U}) {
    for (const double bad : {0.5, 1.5, 3e9, -3e9, nan, inf}) {
      auto nodes = stump_nodes();
      nodes[field] = bad;
      expect_rejected<ml::RegressionTree>(tree_record(nodes, {0.0, 1.0}));
    }
  }
  // A feature below the leaf marker -1.
  auto nodes = stump_nodes();
  nodes[0] = -2;
  expect_rejected<ml::RegressionTree>(tree_record(nodes, {0.0, 1.0}));
}

TEST(ModelRecords, TreeRejectsNodeCountThatDisagreesWithPayload) {
  for (const std::uint64_t n_nodes : {std::uint64_t{2}, std::uint64_t{4},
                                      // 6 * n_nodes wraps to 18.
                                      (std::uint64_t{1} << 63) + 3}) {
    std::string record = tree_record(stump_nodes(), {0.0, 1.0});
    const std::string field = "n_nodes 3\n";
    const auto pos = record.find(field);
    ASSERT_NE(pos, std::string::npos);
    record.replace(pos, field.size(),
                   "n_nodes " + std::to_string(n_nodes) + "\n");
    expect_rejected<ml::RegressionTree>(record);
  }
}

TEST(ModelRecords, ForestRejectsTreeOfAnotherOutputWidth) {
  // predict sums n_outputs values from every tree; a one-output tree in a
  // two-output forest would be read past its leaf.
  const auto forest_record = [](std::uint64_t n_outputs) {
    std::ostringstream out;
    io::Writer w(out);
    w.tag("varpred.forest");
    w.u64("version", 2);
    w.u64("n_trees", 1);
    w.u64("seed", 2);
    w.u64("n_outputs", n_outputs);
    w.u64("trained_trees", 1);
    return out.str() + tree_record(stump_nodes(), {0.0, 1.0});
  };
  std::stringstream good(forest_record(1));
  EXPECT_EQ(ml::RandomForest::load(good).predict(std::vector<double>{0.9}),
            std::vector<double>{1.0});
  expect_rejected<ml::RandomForest>(forest_record(2));
}

TEST(ModelRecords, GbtRejectsChildThatDoesNotComeAfterItsNode) {
  auto self = gbt_stump_nodes();
  self[3] = 0;  // the root is its own right child
  expect_rejected<ml::GradientBoosting>(gbt_record(self));
  auto back = gbt_stump_nodes();
  back[10] = 0;  // node 2 made internal, pointing back at node 1
  back[12] = 1;
  back[13] = 1;
  expect_rejected<ml::GradientBoosting>(gbt_record(back));
}

TEST(ModelRecords, GbtRejectsOutOfRangeChild) {
  for (const double child : {99999.0, 3.0, -1.0}) {
    auto nodes = gbt_stump_nodes();
    nodes[2] = child;
    expect_rejected<ml::GradientBoosting>(gbt_record(nodes));
  }
}

TEST(ModelRecords, GbtRejectsNonIntegralOrOutOfRangeIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t field : {0U, 2U, 3U, 5U}) {
    for (const double bad : {0.5, 3e9, nan}) {
      auto nodes = gbt_stump_nodes();
      nodes[field] = bad;
      expect_rejected<ml::GradientBoosting>(gbt_record(nodes));
    }
  }
}

TEST(ModelRecords, GbtRejectsEmptyTree) {
  expect_rejected<ml::GradientBoosting>(gbt_record({}));
}

TEST(ModelRecords, GbtPredictRejectsOutOfRangeFeature) {
  // A well-formed record may still split on a feature the query lacks.
  auto nodes = gbt_stump_nodes();
  nodes[0] = 3;
  std::stringstream in(gbt_record(nodes));
  const auto gbt = ml::GradientBoosting::load(in);
  EXPECT_THROW(gbt.predict(std::vector<double>{0.2}), CheckError);
  EXPECT_EQ(gbt.predict(std::vector<double>{0, 0, 0, 0.9}),
            std::vector<double>{0.75});
}

// Hand-made kNN and ridge records: the loaders check the enum fields and
// every shape predict indexes by, as fit() would have left them.

// A trained version-1 kNN record; a scaler of width `scaler_width` is written
// when that is nonzero.
struct KnnRecord {
  std::uint64_t metric = 1;     // Euclidean
  std::uint64_t weighting = 0;  // uniform
  std::size_t scaler_width = 2;
  ml::Matrix x = random_matrix(3, 2, 51);
  ml::Matrix y = random_matrix(3, 1, 52);

  std::string str() const {
    std::ostringstream out;
    io::Writer w(out);
    w.tag("varpred.knn");
    w.u64("version", 1);
    w.u64("k", 2);
    w.u64("metric", metric);
    w.u64("weighting", weighting);
    w.boolean("standardize", scaler_width != 0);
    w.boolean("trained", true);
    w.boolean("fitted", scaler_width != 0);
    if (scaler_width != 0) {
      w.vec("means", std::vector<double>(scaler_width, 0.0));
      w.vec("scales", std::vector<double>(scaler_width, 1.0));
    }
    ml::save_matrix(w, "x", x);
    ml::save_matrix(w, "y", y);
    return out.str();
  }
};

// A trained version-1 ridge record: 2 features by 3 outputs when every
// length agrees with `weights`; a scaler of width `scaler_width` is written
// when that is nonzero.
struct RidgeRecord {
  std::size_t scaler_width = 2;
  std::size_t center = 2;
  ml::Matrix weights = random_matrix(2, 3, 53);
  std::size_t intercepts = 3;

  std::string str() const {
    std::ostringstream out;
    io::Writer w(out);
    w.tag("varpred.ridge");
    w.u64("version", 1);
    w.f64("lambda", 1.0);
    w.boolean("standardize", scaler_width != 0);
    w.boolean("trained", true);
    w.boolean("scaled", scaler_width != 0);
    if (scaler_width != 0) {
      w.vec("means", std::vector<double>(scaler_width, 0.0));
      w.vec("scales", std::vector<double>(scaler_width, 1.0));
    }
    w.vec("center", std::vector<double>(center, 0.0));
    ml::save_matrix(w, "weights", weights);
    w.vec("intercepts", std::vector<double>(intercepts, 0.5));
    return out.str();
  }
};

TEST(ModelRecords, HandMadeKnnAndRidgeRecordsLoadAndPredict) {
  std::stringstream knn_in(KnnRecord{}.str());
  EXPECT_EQ(ml::KnnRegressor::load(knn_in)
                .predict(std::vector<double>{0.1, 0.2})
                .size(),
            1U);
  std::stringstream ridge_in(RidgeRecord{}.str());
  EXPECT_EQ(ml::RidgeRegressor::load(ridge_in)
                .predict(std::vector<double>{0.1, 0.2})
                .size(),
            3U);
}

TEST(ModelRecords, KnnRejectsOutOfRangeMetric) {
  for (const std::uint64_t metric :
       {std::uint64_t{3}, std::uint64_t{7},
        std::numeric_limits<std::uint64_t>::max()}) {
    expect_rejected<ml::KnnRegressor>(KnnRecord{.metric = metric}.str());
  }
}

TEST(ModelRecords, KnnRejectsOutOfRangeWeighting) {
  // Weighting 7 used to predict silently with uniform weights.
  for (const std::uint64_t weighting : {std::uint64_t{2}, std::uint64_t{7}}) {
    expect_rejected<ml::KnnRegressor>(
        KnnRecord{.weighting = weighting}.str());
  }
}

TEST(ModelRecords, KnnRejectsXAndYOfDifferentRowCounts) {
  expect_rejected<ml::KnnRegressor>(
      KnnRecord{.y = random_matrix(2, 1, 54)}.str());
  expect_rejected<ml::KnnRegressor>(
      KnnRecord{.y = random_matrix(4, 1, 54)}.str());
}

TEST(ModelRecords, KnnRejectsTrainedRecordWithoutRows) {
  expect_rejected<ml::KnnRegressor>(
      KnnRecord{.x = ml::Matrix(0, 2), .y = ml::Matrix(0, 1)}.str());
}

TEST(ModelRecords, KnnRejectsScalerOfAnotherWidth) {
  expect_rejected<ml::KnnRegressor>(KnnRecord{.scaler_width = 1}.str());
  expect_rejected<ml::KnnRegressor>(KnnRecord{.scaler_width = 3}.str());
}

TEST(ModelRecords, RidgeRejectsCenterOfAnotherLength) {
  expect_rejected<ml::RidgeRegressor>(RidgeRecord{.center = 1}.str());
  expect_rejected<ml::RidgeRegressor>(RidgeRecord{.center = 3}.str());
}

TEST(ModelRecords, RidgeRejectsScalerOfAnotherWidth) {
  expect_rejected<ml::RidgeRegressor>(RidgeRecord{.scaler_width = 1}.str());
  expect_rejected<ml::RidgeRegressor>(RidgeRecord{.scaler_width = 3}.str());
}

TEST(ModelRecords, RidgeRejectsInterceptsOfAnotherLength) {
  expect_rejected<ml::RidgeRegressor>(RidgeRecord{.intercepts = 2}.str());
  expect_rejected<ml::RidgeRegressor>(RidgeRecord{.intercepts = 4}.str());
}

TEST(ModelRecords, Version1TreeForestAndGbtRecordsAreRejected) {
  // Version 1 carried the sampling fields (tree max_features and seed,
  // forest bootstrap and feature_fraction, GBT subsample, colsample and
  // seed).
  const std::string v1_tree =
      "varpred.tree\nversion 1\nmax_depth 1\nmin_samples_leaf 1\n"
      "min_samples_split 2\nmax_features 0\nseed 1\nn_outputs 1\n"
      "n_nodes 3\nnodes 18 0 0.5 1 2 -1 0 -1 0 -1 -1 0 1 -1 0 -1 -1 1 1\n"
      "leaves 2 0 1\n";
  expect_rejected<ml::RegressionTree>(v1_tree);
  expect_rejected<ml::RandomForest>(
      "varpred.forest\nversion 1\nn_trees 1\nbootstrap 1\n"
      "feature_fraction 1\nseed 2\nn_outputs 1\ntrained_trees 1\n" +
      v1_tree);
  expect_rejected<ml::GradientBoosting>(
      "varpred.gbt\nversion 1\nn_rounds 1\nlearning_rate 0.1\nmax_depth 1\n"
      "lambda 1\ngamma 0\nmin_child_weight 1\nsubsample 1\ncolsample 1\n"
      "seed 3\nn_ensembles 1\nbase_score 0.5\nn_trees 1\n"
      "tree 15 0 0.5 1 2 0 -1 0 -1 -1 -0.25 -1 0 -1 -1 0.25\n");
}

TEST(ModelRecords, FormatVersions) {
  // Tree, forest and GBT records are at version 2; kNN and ridge records
  // did not change and stay at version 1.
  const auto x = random_matrix(20, 2, 41);
  const auto y = random_matrix(20, 1, 42);
  std::vector<std::unique_ptr<ml::Regressor>> models;
  models.push_back(std::make_unique<ml::KnnRegressor>());
  models.push_back(std::make_unique<ml::RidgeRegressor>());
  models.push_back(std::make_unique<ml::RegressionTree>());
  models.push_back(std::make_unique<ml::RandomForest>(
      ml::ForestParams{.n_trees = 2, .tree = {}, .seed = 2}));
  models.push_back(std::make_unique<ml::GradientBoosting>(
      ml::GbtParams{.n_rounds = 2}));
  const char* versions[] = {"1", "1", "2", "2", "2"};
  for (std::size_t i = 0; i < models.size(); ++i) {
    models[i]->fit(x, y);
    std::stringstream ss;
    models[i]->save(ss);
    std::string tag;
    std::string label;
    std::string version;
    ss >> tag >> label >> version;
    EXPECT_EQ(label, "version") << tag;
    EXPECT_EQ(version, versions[i]) << tag;
  }
}

// Model artifacts carry an FNV-1a checksum trailer (serialization v2) so a
// corrupt or truncated file is rejected at load time instead of being
// deserialized into a silently-wrong predictor.
TEST(SerializeChecksum, RoundTripPreservesBody) {
  const std::string body = "alpha 1\nbeta 2.5\n";
  std::stringstream ss;
  io::write_checksummed(ss, body);
  EXPECT_EQ(io::read_checksummed(ss), body);
}

TEST(SerializeChecksum, FlippedByteDetected) {
  std::stringstream ss;
  io::write_checksummed(ss, "alpha 1\nbeta 2.5\n");
  std::string doc = ss.str();
  const auto pos = doc.find("2.5");
  ASSERT_NE(pos, std::string::npos);
  doc[pos] = '3';  // single-character body corruption
  std::stringstream corrupted(doc);
  EXPECT_THROW(io::read_checksummed(corrupted), std::invalid_argument);
}

TEST(SerializeChecksum, MissingTrailerDetected) {
  std::stringstream ss("alpha 1\nbeta 2.5\n");  // no checksum line at all
  EXPECT_THROW(io::read_checksummed(ss), std::invalid_argument);
}

TEST(SerializeChecksum, GarbageTrailerDetected) {
  std::stringstream ss("alpha 1\nchecksum nothexdigits!\n");
  EXPECT_THROW(io::read_checksummed(ss), std::invalid_argument);
}

TEST(SerializeChecksum, CorruptPredictorArtifactRejected) {
  const auto amd = measure::build_corpus(measure::SystemModel::amd(), 40, 7);
  const auto intel =
      measure::build_corpus(measure::SystemModel::intel(), 40, 7);
  core::CrossSystemPredictor predictor;
  predictor.train_all(amd, intel);

  std::stringstream ss;
  predictor.save(ss);
  std::string doc = ss.str();

  // Pristine artifact loads; a one-byte flip in the middle does not.
  {
    std::stringstream ok(doc);
    EXPECT_TRUE(core::CrossSystemPredictor::load(ok).trained());
  }
  std::string flipped = doc;
  flipped[flipped.size() / 2] ^= 0x01;
  std::stringstream bad(flipped);
  EXPECT_THROW(core::CrossSystemPredictor::load(bad),
               std::invalid_argument);

  // Truncation loses the trailer entirely.
  std::stringstream truncated(doc.substr(0, doc.size() / 2));
  EXPECT_THROW(core::CrossSystemPredictor::load(truncated),
               std::invalid_argument);
}

}  // namespace
}  // namespace varpred
