// Abstract multi-output regressor interface. The prediction pipeline trains
// one of three concrete models (kNN, random forest, gradient boosting) to map
// application-profile feature vectors to encoded distribution vectors.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace varpred::ml {

struct SortedColumns;

/// Multi-output regressor: fit(X, Y) then predict a Y-row for an X-row.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on rows of X (features) against rows of Y (targets).
  /// `presorted`, when non-null, must be the presorted column orders of X
  /// (see ml/sorted_columns.hpp). Purely an acceleration: tree learners
  /// check its dimensions against X, skip their per-fit column sorts and
  /// build byte-identical trees from it; kNN and ridge ignore it. It is
  /// read during this call only.
  virtual void fit(const Matrix& x, const Matrix& y,
                   const SortedColumns* presorted) = 0;

  /// fit(x, y, nullptr): the learner sorts its own columns if it needs to.
  void fit(const Matrix& x, const Matrix& y) { fit(x, y, nullptr); }

  /// Predicts the target vector for one feature row.
  virtual std::vector<double> predict(std::span<const double> row) const = 0;

  /// Predicts for every row of X.
  Matrix predict_batch(const Matrix& x) const;

  /// Trains on (x, y) and predicts one `query` row: bit for bit
  /// fit(x, y, presorted) then predict(query). The default does exactly
  /// that. A learner whose prediction for one row needs only part of the
  /// model may grow just that part (RandomForest grows each tree's path to
  /// the query's leaf); it then keeps no model, so trained() is false
  /// afterwards. For fits that serve a single query, such as a
  /// leave-one-out fold.
  virtual std::vector<double> fit_predict(const Matrix& x, const Matrix& y,
                                          const SortedColumns* presorted,
                                          std::span<const double> query);

  /// Deep copy (for per-fold training in cross-validation).
  virtual std::unique_ptr<Regressor> clone() const = 0;

  /// Short display name ("kNN", "RF", "XGBoost").
  virtual std::string name() const = 0;

  virtual bool trained() const = 0;

  /// Serializes the trained model (see io/serialize.hpp for the format).
  /// Use ml::load_regressor() to restore a model of unknown concrete type.
  virtual void save(std::ostream& out) const = 0;
};

}  // namespace varpred::ml
