#include "ml/ridge.hpp"

#include <istream>
#include <ostream>

#include "common/linalg.hpp"
#include "io/serialize.hpp"
#include "ml/serialize.hpp"

namespace varpred::ml {

RidgeRegressor::RidgeRegressor(RidgeParams params) : params_(params) {
  VARPRED_CHECK_ARG(params_.lambda >= 0.0, "lambda must be >= 0");
}

void RidgeRegressor::fit(const Matrix& x_raw, const Matrix& y,
                         const SortedColumns* /*presorted*/) {
  VARPRED_CHECK_ARG(x_raw.rows() == y.rows(), "X/Y row count mismatch");
  VARPRED_CHECK_ARG(x_raw.rows() >= 2, "need at least two training rows");

  Matrix x = x_raw;
  if (params_.standardize) {
    scaler_.fit(x_raw);
    x = scaler_.transform(x_raw);
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t outputs = y.cols();

  // Center the (possibly scaled) features so the intercept is exact: the
  // dual solve below regularizes the slope but must not penalize the mean.
  center_.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = x.row(i);
    for (std::size_t f = 0; f < d; ++f) center_[f] += row[f];
  }
  for (auto& c : center_) c /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = x.row(i);
    for (std::size_t f = 0; f < d; ++f) row[f] -= center_[f];
  }

  // Dual form (valid for any d, cheap for wide feature vectors):
  //   alpha = (X X^T + lambda I)^-1 (y - mean(y));  w = X^T alpha.
  std::vector<double> gram(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto ri = x.row(i);
    for (std::size_t j = i; j < n; ++j) {
      const double g = dot(ri, x.row(j));
      gram[i * n + j] = g;
      gram[j * n + i] = g;
    }
    gram[i * n + i] += std::max(params_.lambda, 1e-10);
  }

  intercepts_.assign(outputs, 0.0);
  weights_ = Matrix(d, outputs);
  for (std::size_t out = 0; out < outputs; ++out) {
    double mean_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean_y += y(i, out);
    mean_y /= static_cast<double>(n);
    intercepts_[out] = mean_y;

    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = y(i, out) - mean_y;
    const auto alpha = solve_dense(gram, rhs, n);
    for (std::size_t f = 0; f < d; ++f) {
      double w = 0.0;
      for (std::size_t i = 0; i < n; ++i) w += x(i, f) * alpha[i];
      weights_(f, out) = w;
    }
  }
  trained_ = true;
}

std::vector<double> RidgeRegressor::predict(
    std::span<const double> row) const {
  VARPRED_CHECK(trained_, "predict before fit");
  std::vector<double> q =
      params_.standardize ? scaler_.transform_row(row)
                          : std::vector<double>(row.begin(), row.end());
  VARPRED_CHECK_ARG(q.size() == weights_.rows(), "feature count mismatch");
  for (std::size_t f = 0; f < q.size(); ++f) q[f] -= center_[f];
  std::vector<double> out(intercepts_);
  for (std::size_t f = 0; f < weights_.rows(); ++f) {
    const double xv = q[f];
    if (xv == 0.0) continue;
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] += xv * weights_(f, c);
    }
  }
  return out;
}

std::unique_ptr<Regressor> RidgeRegressor::clone() const {
  return std::make_unique<RidgeRegressor>(*this);
}

void RidgeRegressor::save(std::ostream& out) const {
  io::Writer w(out);
  w.tag("varpred.ridge");
  w.u64("version", 1);
  w.f64("lambda", params_.lambda);
  w.boolean("standardize", params_.standardize);
  w.boolean("trained", trained_);
  if (trained_) {
    w.boolean("scaled", scaler_.fitted());
    if (scaler_.fitted()) {
      w.vec("means", scaler_.means());
      w.vec("scales", scaler_.scales());
    }
    w.vec("center", center_);
    save_matrix(w, "weights", weights_);
    w.vec("intercepts", intercepts_);
  }
}

RidgeRegressor RidgeRegressor::load(std::istream& in) {
  io::Reader r(in);
  r.tag("varpred.ridge");
  VARPRED_CHECK_ARG(r.u64("version") == 1, "unsupported ridge version");
  RidgeParams params;
  params.lambda = r.f64("lambda");
  params.standardize = r.boolean("standardize");
  RidgeRegressor model(params);
  if (r.boolean("trained")) {
    if (r.boolean("scaled")) {
      auto means = r.vec("means");
      auto scales = r.vec("scales");
      model.scaler_ =
          StandardScaler::from_params(std::move(means), std::move(scales));
    }
    model.center_ = r.vec("center");
    model.weights_ = load_matrix(r, "weights");
    model.intercepts_ = r.vec("intercepts");
    // predict indexes center and the scaler by feature (weights rows) and
    // intercepts by output (weights columns).
    const std::size_t features = model.weights_.rows();
    VARPRED_CHECK_ARG(model.center_.size() == features,
                      "ridge center size differs from weights rows");
    VARPRED_CHECK_ARG(!model.scaler_.fitted() ||
                          model.scaler_.means().size() == features,
                      "ridge scaler width differs from weights rows");
    VARPRED_CHECK_ARG(model.intercepts_.size() == model.weights_.cols(),
                      "ridge intercepts size differs from weights columns");
    model.trained_ = true;
  }
  return model;
}

}  // namespace varpred::ml
