#ifndef DSSP_BENCH_BENCH_UTIL_H_
#define DSSP_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/methodology.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "sim/search.h"
#include "sim/simulator.h"
#include "workloads/application.h"

namespace dssp::bench {

// ----- Command-line flags (shared across experiment binaries). -----

// Value of `--name <value>` (or `--name=<value>`), or nullptr when absent.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// ----- Machine-readable results (--json <path>). -----

// A flat JSON object with insertion-ordered fields. Experiments compose a
// document out of these and write BENCH_*.json files that dashboards and CI
// checks consume without scraping stdout.
class JsonObject {
 public:
  void Set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
  }
  void Set(const std::string& key, const char* value) {
    Set(key, std::string(value));
  }
  void Set(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    fields_.emplace_back(key, buf);
  }
  void Set(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Set(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Set(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  // Nested raw JSON (an already-rendered object or array).
  void SetRaw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(fields_[i].first) + ":" + fields_[i].second;
    }
    out += "}";
    return out;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string JsonArray(const std::vector<JsonObject>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += rows[i].ToString();
  }
  out += "]";
  return out;
}

// Writes `doc` to `path` (newline-terminated) and reports it on stdout, so
// the human transcript records where the machine copy went. DSSP_CHECKs on
// I/O failure: a benchmark whose results were lost should not pass.
inline void WriteJsonFile(const std::string& path, const JsonObject& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  DSSP_CHECK(f != nullptr);
  const std::string body = doc.ToString();
  DSSP_CHECK(std::fwrite(body.data(), 1, body.size(), f) == body.size());
  DSSP_CHECK(std::fputc('\n', f) != EOF);
  DSSP_CHECK(std::fclose(f) == 0);
  std::printf("[json] wrote %s\n", path.c_str());
}

// The standard latency/throughput fields every experiment's JSON rows share.
inline void FillResultFields(const sim::SimResult& result, double duration_s,
                             double warmup_s, JsonObject* row) {
  const double measured = duration_s - warmup_s;
  row->Set("clients", result.num_clients);
  row->Set("pages", static_cast<uint64_t>(result.pages_completed));
  row->Set("throughput_pages_per_s",
           measured <= 0 ? 0.0
                         : static_cast<double>(result.pages_completed) /
                               duration_s);
  row->Set("mean_s", result.mean_response_s);
  row->Set("p50_s", result.p50_response_s);
  row->Set("p90_s", result.p90_response_s);
  row->Set("p99_s", result.p99_response_s);
  row->Set("hit_rate", result.cache_hit_rate);
  row->Set("failed_ops", result.failed_ops);
}

// A freshly built application system: shared DSSP node, home server with
// populated master database, and the workload definition.
struct System {
  service::DsspNode node;
  std::unique_ptr<service::ScalableApp> app;
  std::unique_ptr<workloads::Application> workload;
};

inline std::unique_ptr<System> BuildSystem(const std::string& name,
                                           double scale, uint64_t seed) {
  auto system = std::make_unique<System>();
  system->app = std::make_unique<service::ScalableApp>(
      name, &system->node,
      crypto::KeyRing::FromPassphrase("bench-" + name));
  system->workload = workloads::MakeApplication(name);
  DSSP_CHECK_OK(system->workload->Setup(*system->app, scale, seed));
  DSSP_CHECK_OK(system->app->Finalize());
  return system;
}

// Experiment knobs, overridable from the environment:
//   DSSP_BENCH_DURATION  virtual seconds per simulation run (default 240;
//                        the paper uses 600 — set it for full fidelity)
//   DSSP_BENCH_SCALE     database scale factor (default 1.0)
//   DSSP_BENCH_MAX_USERS scalability search ceiling (default 6000)
// A value that does not parse completely as a positive number is a
// configuration error: the experiment says so and exits with status 2
// instead of running a shape nobody asked for.
[[noreturn]] inline void RejectEnv(const char* name, const char* value,
                                   const char* expected) {
  std::fprintf(stderr, "%s=%s: expected %s\n", name, value, expected);
  std::exit(2);
}

inline double PositiveEnv(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(env, &end);
  if (end == env || *end != '\0' || errno != 0 || !std::isfinite(value) ||
      value <= 0) {
    RejectEnv(name, env, "a positive number");
  }
  return value;
}

inline int PositiveIntEnv(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno != 0 || value <= 0 ||
      value > std::numeric_limits<int>::max()) {
    RejectEnv(name, env, "a positive integer");
  }
  return static_cast<int>(value);
}

inline double BenchDuration() {
  return PositiveEnv("DSSP_BENCH_DURATION", 240.0);
}

inline double BenchScale() { return PositiveEnv("DSSP_BENCH_SCALE", 1.0); }

inline int BenchMaxUsers() {
  return PositiveIntEnv("DSSP_BENCH_MAX_USERS", 6000);
}

inline sim::SimConfig BenchSimConfig() {
  sim::SimConfig config;
  config.duration_s = BenchDuration();
  // A third of the run warms the cold cache before measurement starts
  // (the paper's 600 s runs amortize this instead).
  config.warmup_s = config.duration_s / 3.0;
  return config;
}

// Measures the scalability (max users with p90 <= 2 s) of `name` under the
// given exposure-assignment factory. Each probe rebuilds the system from
// scratch and starts from a cold cache, as in the paper's methodology.
using ExposureFactory =
    std::function<analysis::ExposureAssignment(const service::ScalableApp&)>;

inline StatusOr<sim::ScalabilityResult> MeasureScalability(
    const std::string& name, const ExposureFactory& exposure_factory,
    const sim::SimConfig& config) {
  const sim::ProbeFn probe =
      [&](int users) -> StatusOr<sim::SimResult> {
    std::unique_ptr<System> system = BuildSystem(name, BenchScale(), 17);
    DSSP_RETURN_IF_ERROR(
        system->app->SetExposure(exposure_factory(*system->app)));
    auto generator = system->workload->NewSession(23);
    return sim::RunSimulation(*system->app, *generator, users, config);
  };
  const int tolerance = std::max(20, BenchMaxUsers() / 80);
  return sim::FindMaxUsers(probe, config, /*min_users=*/10, BenchMaxUsers(),
                           tolerance);
}

// Uniform exposure assignment for the Figure 8 strategy comparison.
inline analysis::ExposureAssignment UniformExposure(
    const service::ScalableApp& app, analysis::ExposureLevel query_level,
    analysis::ExposureLevel update_level) {
  analysis::ExposureAssignment exposure =
      analysis::ExposureAssignment::FullExposure(
          app.templates().num_queries(), app.templates().num_updates());
  for (auto& level : exposure.query_levels) level = query_level;
  for (auto& level : exposure.update_levels) level = update_level;
  return exposure;
}

}  // namespace dssp::bench

#endif  // DSSP_BENCH_BENCH_UTIL_H_
