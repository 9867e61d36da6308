// Versioned model registry for the serving daemon.
//
// Each published model gets a monotonically increasing per-name version.
// Lookups hand out shared_ptr<const LoadedModel>; a hot swap publishes a
// new version without touching the old one, so requests admitted against
// the previous version finish against the exact model they were admitted
// with — swapping mid-load drops zero requests.
//
// File loads go through io::read_checksummed (core serialization v2), so a
// truncated or corrupted artifact is rejected at publish time with a clear
// error instead of being served.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/crosssystem.hpp"

namespace varpred::serve {

/// An immutable published model. Shared by the registry, in-flight requests,
/// and list responses; destroyed when the last reference drops.
struct LoadedModel {
  std::string name;
  std::uint64_t version = 0;
  std::string source;         ///< file path, or "<inline>" for direct publish
  std::string source_system;  ///< from the predictor ("" when unknown)
  core::CrossSystemPredictor predictor;
};

class ModelRegistry {
 public:
  /// Loads a checksum-verified model file and publishes it under `name`.
  /// Returns the version assigned. Throws std::invalid_argument on a
  /// missing, truncated, or corrupt file, leaving the registry unchanged.
  std::uint64_t publish_file(const std::string& name,
                             const std::string& path);

  /// Publishes an already-constructed predictor (tests, self-serve bench).
  std::uint64_t publish(const std::string& name,
                        core::CrossSystemPredictor predictor,
                        std::string source = "<inline>");

  /// Resolves `name` at `version` (0 = latest published). nullptr when the
  /// name or version is unknown. Old versions stay resolvable after a swap.
  std::shared_ptr<const LoadedModel> get(const std::string& name,
                                         std::uint64_t version = 0) const;

  /// Latest version of every model, name-sorted.
  std::vector<std::shared_ptr<const LoadedModel>> list() const;

  /// Number of distinct model names.
  std::size_t size() const;

 private:
  std::uint64_t publish_locked(const std::string& name,
                               std::shared_ptr<LoadedModel> model);

  mutable std::mutex mu_;
  /// Per-name version history, index i = version i + 1.
  std::map<std::string, std::vector<std::shared_ptr<const LoadedModel>>>
      models_;
};

}  // namespace varpred::serve
