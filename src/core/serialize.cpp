// Serialization of the trained predictors (see io/serialize.hpp for the
// format). A serialized predictor carries its configuration, the source
// system's identity, and the trained model, so it can be shipped and loaded
// without access to the training corpus. Since format version 2 every
// model file ends in an FNV-1a checksum trailer over the body bytes, so a
// truncated or bit-flipped artifact fails at load with a clear error
// instead of deserializing into a model that emits garbage predictions
// (the serving registry depends on this).
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "core/crosssystem.hpp"
#include "core/predictor.hpp"
#include "io/serialize.hpp"
#include "ml/serialize.hpp"

namespace varpred::core {
namespace {

constexpr std::uint64_t kPredictorVersion = 2;  ///< v2: checksum trailer

// A recorded kind, range-checked on the raw u64: a corrupt kind fails at
// load, not at the first to_string or dispatch on it, and a value past
// int's range cannot wrap onto a valid kind.
template <typename Kind>
Kind read_kind(io::Reader& r, const std::string& name, Kind last) {
  const auto raw = r.u64(name);
  VARPRED_CHECK_ARG(raw <= static_cast<std::uint64_t>(last),
                    name + " kind out of range");
  return static_cast<Kind>(raw);
}

}  // namespace

void FewRunsPredictor::save(std::ostream& out) const {
  VARPRED_CHECK_ARG(trained(), "cannot save an untrained predictor");
  std::ostringstream body;
  io::Writer w(body);
  w.tag("varpred.fewruns");
  w.u64("version", kPredictorVersion);
  w.u64("n_probe_runs", config_.n_probe_runs);
  w.u64("train_replicates", config_.train_replicates);
  w.u64("repr", static_cast<std::uint64_t>(config_.repr));
  w.u64("model", static_cast<std::uint64_t>(config_.model));
  w.boolean("higher_moments", config_.profile.include_higher_moments);
  w.u64("seed", config_.seed);
  w.text("system", system_ != nullptr ? system_->name() : "");
  model_->save(body);
  io::write_checksummed(out, body.str());
}

FewRunsPredictor FewRunsPredictor::load(std::istream& in) {
  std::istringstream body(io::read_checksummed(in));
  io::Reader r(body);
  r.tag("varpred.fewruns");
  VARPRED_CHECK_ARG(r.u64("version") == kPredictorVersion,
                    "unsupported predictor version");
  FewRunsConfig config;
  config.n_probe_runs = static_cast<std::size_t>(r.u64("n_probe_runs"));
  config.train_replicates =
      static_cast<std::size_t>(r.u64("train_replicates"));
  config.repr = read_kind(r, "repr", ReprKind::kQuantile);
  config.model = read_kind(r, "model", ModelKind::kRidge);
  config.profile.include_higher_moments = r.boolean("higher_moments");
  config.seed = r.u64("seed");
  const auto system_name = r.text("system");

  FewRunsPredictor predictor(config);
  predictor.model_ = ml::load_regressor(body);
  if (!system_name.empty()) {
    predictor.system_ = &measure::SystemModel::by_name(system_name);
  }
  return predictor;
}

void CrossSystemPredictor::save(std::ostream& out) const {
  VARPRED_CHECK_ARG(trained(), "cannot save an untrained predictor");
  std::ostringstream body;
  io::Writer w(body);
  w.tag("varpred.crosssystem");
  w.u64("version", kPredictorVersion);
  w.u64("repr", static_cast<std::uint64_t>(config_.repr));
  w.u64("model", static_cast<std::uint64_t>(config_.model));
  w.boolean("higher_moments", config_.profile.include_higher_moments);
  w.u64("seed", config_.seed);
  w.text("source_system",
         source_system_ != nullptr ? source_system_->name() : "");
  model_->save(body);
  io::write_checksummed(out, body.str());
}

CrossSystemPredictor CrossSystemPredictor::load(std::istream& in) {
  std::istringstream body(io::read_checksummed(in));
  io::Reader r(body);
  r.tag("varpred.crosssystem");
  VARPRED_CHECK_ARG(r.u64("version") == kPredictorVersion,
                    "unsupported predictor version");
  CrossSystemConfig config;
  config.repr = read_kind(r, "repr", ReprKind::kQuantile);
  config.model = read_kind(r, "model", ModelKind::kRidge);
  config.profile.include_higher_moments = r.boolean("higher_moments");
  config.seed = r.u64("seed");
  const auto system_name = r.text("source_system");

  CrossSystemPredictor predictor(config);
  predictor.model_ = ml::load_regressor(body);
  if (!system_name.empty()) {
    predictor.source_system_ = &measure::SystemModel::by_name(system_name);
  }
  return predictor;
}

}  // namespace varpred::core
