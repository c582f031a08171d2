// Reproduces Figure 8: scalability (max concurrent users with 90% of page
// responses under two seconds) of each benchmark application under the four
// coarse-grain invalidation strategies. Paper shape: for every application
// MVIS >= MSIS >= MTIS >> MBS, and bboard (~10 DB requests per page)
// collapses hardest under coarse invalidation.
//
// Environment knobs (see bench/bench_util.h): DSSP_BENCH_DURATION (the
// paper's runs are 600 s; default 60 s here), DSSP_BENCH_SCALE,
// DSSP_BENCH_MAX_USERS.
//
// Flags: --json <path> additionally writes the full result matrix (max
// users plus the latency/hit-rate profile at that load) as one JSON file.

#include <cstdio>

#include "bench/bench_util.h"

namespace {

using dssp::analysis::ExposureLevel;

struct StrategyPoint {
  const char* name;
  ExposureLevel query_level;
  ExposureLevel update_level;
};

// Uniform exposure levels select the uniform strategy (Figure 6).
constexpr StrategyPoint kStrategies[] = {
    {"MVIS", ExposureLevel::kView, ExposureLevel::kStmt},
    {"MSIS", ExposureLevel::kStmt, ExposureLevel::kStmt},
    {"MTIS", ExposureLevel::kTemplate, ExposureLevel::kTemplate},
    {"MBS", ExposureLevel::kBlind, ExposureLevel::kBlind},
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = dssp::bench::FlagValue(argc, argv, "--json");
  std::vector<dssp::bench::JsonObject> json_rows;
  const dssp::sim::SimConfig config = dssp::bench::BenchSimConfig();
  std::printf(
      "Figure 8 — scalability by invalidation strategy "
      "(duration=%.0fs, scale=%.2f, p90 limit=%.1fs)\n\n",
      config.duration_s, dssp::bench::BenchScale(),
      config.response_time_limit_s);
  std::printf("%-11s %8s %8s %8s %8s\n", "Application", "MVIS", "MSIS",
              "MTIS", "MBS");
  std::printf("%s\n", std::string(50, '-').c_str());

  for (std::string_view name : dssp::workloads::kEvaluationApps) {
    std::printf("%-11s", std::string(name).c_str());
    std::fflush(stdout);
    for (const StrategyPoint& strategy : kStrategies) {
      auto result = dssp::bench::MeasureScalability(
          std::string(name),
          [&](const dssp::service::ScalableApp& app) {
            return dssp::bench::UniformExposure(app, strategy.query_level,
                                                strategy.update_level);
          },
          config);
      if (!result.ok()) {
        std::fprintf(stderr, "\n%s\n", result.status().ToString().c_str());
        return 1;
      }
      std::printf(" %8d", result->max_users);
      std::fflush(stdout);
      if (json_path != nullptr) {
        dssp::bench::JsonObject row;
        row.Set("app", std::string(name));
        row.Set("strategy", strategy.name);
        row.Set("max_users", result->max_users);
        // The profile at the highest passing probe (the scalability point).
        const dssp::sim::SimResult* best = nullptr;
        for (const auto& probe : result->probes) {
          if (probe.MeetsSlo(config) &&
              (best == nullptr || probe.num_clients > best->num_clients)) {
            best = &probe;
          }
        }
        if (best != nullptr) {
          dssp::bench::FillResultFields(*best, config.duration_s,
                                        config.warmup_s, &row);
        }
        json_rows.push_back(std::move(row));
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape check: MVIS >= MSIS >= MTIS >> MBS per application.\n");
  if (json_path != nullptr) {
    dssp::bench::JsonObject doc;
    doc.Set("experiment", "fig8_strategy_scalability");
    doc.Set("duration_s", config.duration_s);
    doc.Set("warmup_s", config.warmup_s);
    doc.Set("scale", dssp::bench::BenchScale());
    doc.Set("p90_limit_s", config.response_time_limit_s);
    doc.SetRaw("rows", dssp::bench::JsonArray(json_rows));
    dssp::bench::WriteJsonFile(json_path, doc);
  }
  return 0;
}
