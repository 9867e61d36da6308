// Mutation tests for every decoder of untrusted bytes: the serving
// protocol's framing and message bodies, checksummed files, model records,
// predictor artifacts, JSON, run documents, ledger lines and measurement
// CSV.
//
// Each test starts from one valid encoding and decodes kMutations mutants
// of it, each made by one to three fixed-seed edits: bit flips, byte
// overwrites, truncations and insertions (of single bytes or of extreme
// tokens such as a 20-digit count), half of them at the start of a token.
// Checksummed artifacts are mutated in the body and re-checksummed, so the
// mutants reach the loader behind the checksum. The contract for every
// mutant: the decoder returns, or throws std::invalid_argument. Any other
// exception (a CheckError, a length_error from a count-sized container)
// fails the test, and so does an allocation above kAllocCap, which the
// replaced operator new below turns into a failure instead of a
// multi-gigabyte request.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "common/rng.hpp"
#include "core/crosssystem.hpp"
#include "core/predictor.hpp"
#include "io/csv.hpp"
#include "io/serialize.hpp"
#include "measure/corpus.hpp"
#include "measure/measurement_io.hpp"
#include "measure/system_model.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/ridge.hpp"
#include "ml/serialize.hpp"
#include "ml/tree.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/run_document.hpp"
#include "serve/protocol.hpp"

namespace {

// Every valid encoding below is a few kilobytes; no decode of a mutant of
// one may ask for more than this in a single allocation.
constexpr std::size_t kAllocCap = std::size_t{4} << 20;

std::atomic<bool> g_cap_armed{false};
std::atomic<bool> g_cap_hit{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_cap_armed.load(std::memory_order_relaxed) && size > kAllocCap) {
    g_cap_hit.store(true, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The matching deletes. GCC inlines them into delete-expressions and then
// flags free() on memory from new, not knowing new is malloc here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace varpred {
namespace {

using namespace std::string_literals;
using namespace std::string_view_literals;

constexpr std::size_t kMutations = 6000;

// Bytes that steer text decoders into their numeric and framing branches,
// and binary decoders into extreme length and count fields.
constexpr std::string_view kBytes =
    "0129-.e :\n\"\\,{}[]nNaif\x00\x7f\x80\xff"sv;
const std::vector<std::string> kTokens = {
    "18446744073709551615", "99999999999999999999", "4294967295",
    "99999999999", "-1", "1e308", "nan", "inf", "-0", "\xff\xff\xff\xff",
    "\x00\x00\x00\x80"s, "\xff\xff\xff\xff\xff\xff\xff\x7f"};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::string& valid) {
    std::string out = valid;
    const std::size_t edits = 1 + rng_.uniform_index(3);
    for (std::size_t e = 0; e < edits; ++e) edit(out);
    return out;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_index(n));
  }

  // Half of all edits land at the start of a token (after a space, newline
  // or ':'), all tokens alike, so the short count and length fields of the
  // text formats are hit as often as the long numbers they precede.
  std::size_t position(const std::string& s, std::size_t end) {
    if (rng_.uniform() < 0.5) return pick(end);
    const auto delim = [](char c) { return c == ' ' || c == '\n' || c == ':'; };
    std::vector<std::size_t> starts = {0};
    for (std::size_t i = 1; i < end; ++i) {
      if (delim(s[i - 1]) && !delim(s[i])) starts.push_back(i);
    }
    return starts[pick(starts.size())];
  }

  char any_byte() {
    return rng_.uniform() < 0.5 ? kBytes[pick(kBytes.size())]
                                : static_cast<char>(pick(256));
  }

  void edit(std::string& s) {
    switch (s.empty() ? 3 : pick(4)) {
      case 0:  // bit flip
        s[position(s, s.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1: {  // overwrite one to eight bytes
        const std::size_t at = position(s, s.size());
        const std::size_t n = std::min(1 + pick(8), s.size() - at);
        for (std::size_t i = 0; i < n; ++i) s[at + i] = any_byte();
        break;
      }
      case 2:  // truncation
        s.resize(position(s, s.size()));
        break;
      default: {  // insertion of a byte or an extreme token
        const std::size_t at = position(s, s.size() + 1);
        if (rng_.uniform() < 0.5) {
          s.insert(at, 1, any_byte());
        } else {
          s.insert(at, kTokens[pick(kTokens.size())]);
        }
      }
    }
  }

  Rng rng_;
};

std::string printable(const std::string& bytes) {
  std::string out;
  for (const char c : bytes.substr(0, 400)) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", u);
      out += hex;
    }
  }
  if (bytes.size() > 400) out += "...";
  return out;
}

// Decodes `bytes` under the allocation cap: "" when the decoder returned or
// threw std::invalid_argument, else what went wrong.
template <typename Decode>
std::string decode_failure(Decode& decode, const std::string& bytes) {
  std::string failure;
  g_cap_hit.store(false);
  g_cap_armed.store(true);
  try {
    decode(bytes);
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    failure = std::string(typeid(e).name()) + ": " + e.what();
  }
  g_cap_armed.store(false);
  if (g_cap_hit.load()) failure = "allocation above kAllocCap";
  return failure;
}

// Decodes the valid encoding (which must succeed), then kMutations mutants
// of it; `encode` maps a mutated body to the decoder's input bytes (the
// identity, or re-checksumming).
template <typename Decode>
void fuzz(const std::string& valid, std::uint64_t seed, Decode decode,
          std::string (*encode)(const std::string&) = nullptr) {
  const auto input = [&](const std::string& body) {
    return encode != nullptr ? encode(body) : body;
  };
  ASSERT_NO_THROW(decode(input(valid))) << "the valid encoding must decode";
  Mutator mutator(seed);
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string bytes = input(mutator.mutate(valid));
    const std::string failure = decode_failure(decode, bytes);
    ASSERT_TRUE(failure.empty())
        << "mutant " << i << " -> " << failure << "\ninput: "
        << printable(bytes);
  }
}

std::string rechecksum(const std::string& body) {
  std::ostringstream out;
  io::write_checksummed(out, body);
  return out.str();
}

// --- Serving protocol -----------------------------------------------------

// The bytes arrive through a socketpair from a peer that sends them and
// closes; every frame is read until the clean EOF or the first rejection.
void read_frames(const std::string& bytes) {
  int fd[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const ssize_t sent = ::write(fd[0], bytes.data(), bytes.size());
  ::close(fd[0]);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd[1]};
  if (sent != static_cast<ssize_t>(bytes.size())) {
    throw std::runtime_error("short write to the socketpair");
  }
  while (serve::read_frame(fd[1]).has_value()) {
  }
}

std::string length_prefix(std::uint32_t length) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(length >> (8 * i));
  return out;
}

TEST(Decoders, ReadFrame) {
  const std::string stream =
      serve::encode_frame(serve::MsgType::kPing, 1, "") +
      serve::encode_frame(serve::MsgType::kSwap, 2, "demo\n/models/demo.vp") +
      serve::encode_frame(serve::MsgType::kPredictOk, 3, "body");
  fuzz(stream, 20, read_frames);
  // A prefix that promises more than the peer sends: the buffer grows with
  // the bytes that arrive, not with the promise.
  const auto decode = read_frames;
  for (const std::uint32_t length :
       {serve::kMaxFramePayload - 1, serve::kMaxFramePayload,
        serve::kMaxFramePayload + 1, std::uint32_t{8u << 20}}) {
    for (const std::string& tail : {std::string(), std::string(9, '\x01')}) {
      EXPECT_EQ(decode_failure(decode, length_prefix(length) + tail), "")
          << "prefix " << length << " + " << tail.size() << " bytes";
    }
  }
}

TEST(Decoders, PredictRequest) {
  serve::PredictRequest req;
  req.model = "amd-intel";
  req.version = 3;
  req.seed = 11;
  req.n_samples = 100;
  req.benchmark = 7;
  req.n_metrics = 3;
  req.runtimes = {1.0, 1.1, 0.9, 1.05};
  req.counters.assign(req.runtimes.size() * req.n_metrics, 0.25);
  fuzz(req.body(), 1,
       [](const std::string& b) { serve::PredictRequest::parse(b); });
}

TEST(Decoders, PredictResponse) {
  serve::PredictResponse resp;
  resp.version = 2;
  resp.queue_ns = 1500;
  resp.compute_ns = 76000;
  resp.samples = {0.98, 1.0, 1.02, 1.07, 1.3};
  fuzz(resp.body(), 2,
       [](const std::string& b) { serve::PredictResponse::parse(b); });
}

TEST(Decoders, SwapRequest) {
  serve::SwapRequest req;
  req.model = "demo";
  req.path = "/models/demo-v2.vp";
  fuzz(req.body(), 3,
       [](const std::string& b) { serve::SwapRequest::parse(b); });
}

TEST(Decoders, SwapResponse) {
  serve::SwapResponse resp;
  resp.version = 5;
  fuzz(resp.body(), 4,
       [](const std::string& b) { serve::SwapResponse::parse(b); });
}

TEST(Decoders, ListResponse) {
  serve::ListResponse resp;
  resp.entries.push_back({"demo", 1, "amd", "<inline>"});
  resp.entries.push_back({"amd-intel", 4, "amd", "/models/amd-intel.vp"});
  fuzz(resp.body(), 5,
       [](const std::string& b) { serve::ListResponse::parse(b); });
}

TEST(Decoders, StatsResponse) {
  serve::StatsResponse resp;
  resp.prometheus =
      "# TYPE varpredd_requests_total counter\n"
      "varpredd_requests_total{type=\"predict\"} 42\n";
  fuzz(resp.body(), 6,
       [](const std::string& b) { serve::StatsResponse::parse(b); });
}

TEST(Decoders, ErrorResponse) {
  serve::ErrorResponse resp;
  resp.code = serve::ErrorCode::kUnknownModel;
  resp.message = "no model named demo";
  // A body that decodes carries a code the enum names: to_string of it
  // must not fail later. Beside the mutants of the code field, every
  // out-of-range code is tried once on its own.
  const auto decode = [](const std::string& b) {
    const serve::ErrorCode code = serve::ErrorResponse::parse(b).code;
    try {
      serve::to_string(code);
    } catch (const std::invalid_argument&) {
      throw std::logic_error("decoded an out-of-range error code");
    }
  };
  fuzz(resp.body(), 7, decode);
  for (const std::uint32_t raw : {0u, 6u, 77u, 0xFFFFFFFFu}) {
    std::string body = resp.body();
    for (int i = 0; i < 4; ++i) body[i] = static_cast<char>(raw >> (8 * i));
    EXPECT_THROW(decode(body), std::invalid_argument) << "code " << raw;
  }
}

// --- Checksummed files ----------------------------------------------------

TEST(Decoders, ReadChecksummed) {
  const std::string file = rechecksum("varpred.fewruns\nversion 2\nk 15\n");
  fuzz(file, 8, [](const std::string& b) {
    std::istringstream in(b);
    io::read_checksummed(in);
  });
}

// --- Model records ---------------------------------------------------------

// Small models keep the count fields a large share of each record's tokens.
ml::Matrix small_x(std::size_t rows = 12) {
  ml::Matrix x(rows, 3);
  Rng rng(21);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.uniform(-2, 2);
  }
  return x;
}

ml::Matrix small_y(const ml::Matrix& x) {
  ml::Matrix y(x.rows(), 2);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y(r, 0) = x(r, 0) - 0.5 * x(r, 2);
    y(r, 1) = x(r, 1) * x(r, 2);
  }
  return y;
}

template <typename Model>
std::string record_of(Model model) {
  const auto x = small_x();
  model.fit(x, small_y(x));
  std::ostringstream out;
  model.save(out);
  return out.str();
}

void load_model(const std::string& bytes) {
  std::istringstream in(bytes);
  ml::load_regressor(in);
}

TEST(Decoders, TreeRecord) {
  fuzz(record_of(ml::RegressionTree(ml::TreeParams{.max_depth = 3})), 9,
       load_model);
}

TEST(Decoders, ForestRecord) {
  ml::ForestParams params;
  params.n_trees = 5;
  params.tree.max_depth = 2;
  fuzz(record_of(ml::RandomForest(params)), 10, load_model);
}

TEST(Decoders, GbtRecord) {
  ml::GbtParams params;
  params.n_rounds = 5;
  params.max_depth = 2;
  fuzz(record_of(ml::GradientBoosting(params)), 11, load_model);
}

TEST(Decoders, KnnRecord) {
  fuzz(record_of(ml::KnnRegressor(ml::KnnParams{.k = 3})), 12, load_model);
}

TEST(Decoders, RidgeRecord) {
  fuzz(record_of(ml::RidgeRegressor()), 13, load_model);
}

TEST(Decoders, Matrix) {
  std::ostringstream out;
  io::Writer w(out);
  ml::save_matrix(w, "x", small_x(2));
  fuzz(out.str(), 14, [](const std::string& b) {
    std::istringstream in(b);
    io::Reader r(in);
    ml::load_matrix(r, "x");
  });
}

// --- Predictor artifacts ---------------------------------------------------

// The body of a real predictor artifact with its model record replaced by a
// one-split tree's, so the mutants land on the predictor's own fields as
// often as on the model's (the model records have tests of their own).
std::string predictor_body(const std::string& artifact) {
  std::istringstream in(artifact);
  const std::string body = io::read_checksummed(in);
  const std::size_t model_at = body.find("varpred.knn\n");
  EXPECT_NE(model_at, std::string::npos);
  return body.substr(0, model_at) +
         record_of(ml::RegressionTree(ml::TreeParams{.max_depth = 1}));
}

measure::Corpus small_corpus(const measure::SystemModel& system) {
  return measure::build_corpus(system, 40, 7);
}

TEST(Decoders, FewRunsPredictor) {
  core::FewRunsConfig config;
  config.n_probe_runs = 5;
  core::FewRunsPredictor predictor(config);
  predictor.train_all(small_corpus(measure::SystemModel::intel()));
  std::ostringstream out;
  predictor.save(out);
  fuzz(
      predictor_body(out.str()), 15,
      [](const std::string& b) {
        std::istringstream in(b);
        core::FewRunsPredictor::load(in);
      },
      rechecksum);
}

TEST(Decoders, CrossSystemPredictor) {
  core::CrossSystemPredictor predictor;
  predictor.train_all(small_corpus(measure::SystemModel::amd()),
                      small_corpus(measure::SystemModel::intel()));
  std::ostringstream out;
  predictor.save(out);
  fuzz(
      predictor_body(out.str()), 16,
      [](const std::string& b) {
        std::istringstream in(b);
        core::CrossSystemPredictor::load(in);
      },
      rechecksum);
}

// --- Run documents, ledgers and measurement documents -------------------------

TEST(Decoders, Json) {
  const std::string doc = R"({
 "schema_version": 4,
 "bench": "fixture \"v4\"\n\u00e9",
 "fast": true, "obs_mode": null, "wall_seconds": -1.5e-3,
 "stages": [{"name": "corpus", "samples": [0.1, 0.11, 1e2]}],
 "metrics": {"counters": {"fixture.events": 42}, "gauges": {}}
})";
  fuzz(doc, 17, [](const std::string& b) { obs::json::parse(b); });
}

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(VARPRED_TEST_DATA_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Decoders, RunDocument) {
  fuzz(fixture("telemetry_v5.json"), 21, [](const std::string& b) {
    obs::parse_run_document(obs::json::parse(b));
  });
}

TEST(Decoders, LedgerLines) {
  // One line of each family a ledger holds: v1 quality, v2 timing, v3
  // timing (with the v1 "seconds" total and quantiles), v5.
  std::string ledger =
      fixture("quality_baseline.jsonl") + fixture("bench_diff_baseline.jsonl");
  for (const char* doc : {"telemetry_v3.json", "telemetry_v5.json"}) {
    ledger += obs::json::dump(obs::json::parse(fixture(doc))) + "\n";
  }
  const std::string path = ::testing::TempDir() + "decoders_ledger.jsonl";
  fuzz(ledger, 22, [&](const std::string& b) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << b;
    obs::for_each_document(path, [](const obs::json::Value& doc) {
      obs::parse_ledger_line(doc);
    });
  });
  std::remove(path.c_str());
}

TEST(Decoders, Csv) {
  const std::string csv =
      "name,runtime_seconds,note\n"
      "cg,1.25,\"quoted, with comma\"\n"
      "bt,0.97,\"a \"\"quote\"\"\"\r\n"
      "ft,1.01,\n";
  fuzz(csv, 18, [](const std::string& b) { io::read_csv(b); });
}

TEST(Decoders, RunsFromCsv) {
  const auto& system = measure::SystemModel::intel();
  const auto runs = measure::measure_benchmark(3, system, 3, 7);
  const std::string csv = io::write_csv(measure::runs_to_csv(system, runs));
  fuzz(csv, 19, [&](const std::string& b) {
    measure::runs_from_csv(system, io::read_csv(b));
  });
}

}  // namespace
}  // namespace varpred
