// Reproduces Figure 3: the security-scalability tradeoff for the TPC-W
// bookstore. The x-axis counts query templates whose results are encrypted
// (level below `view`); the y-axis is scalability (max users with p90 under
// two seconds).
//
// Points, mirroring the paper's labels:
//   - "no encryption":   everything fully exposed (MVIS everywhere);
//   - naive sweep:       encrypting k query templates in id order,
//                        ignoring the analysis (the downward curve);
//   - "our approach":    the scalability-conscious methodology outcome —
//                        many templates encrypted, scalability preserved;
//   - "full encryption": everything blind (MBS).

#include <cstdio>
#include <vector>

#include "analysis/methodology.h"
#include "bench/bench_util.h"
#include "sim/trace.h"

namespace {

using dssp::analysis::ExposureAssignment;
using dssp::analysis::ExposureLevel;

size_t EncryptedResultCount(const ExposureAssignment& exposure) {
  size_t count = 0;
  for (ExposureLevel level : exposure.query_levels) {
    if (level != ExposureLevel::kView) ++count;
  }
  return count;
}

}  // namespace

int main() {
  const dssp::sim::SimConfig config = dssp::bench::BenchSimConfig();
  std::printf(
      "Figure 3 — security-scalability tradeoff (bookstore; duration=%.0fs, "
      "scale=%.2f)\n\n",
      config.duration_s, dssp::bench::BenchScale());

  // Compute the methodology outcome once (static analysis is deterministic).
  ExposureAssignment step1_baseline;
  ExposureAssignment our_approach;
  {
    auto system = dssp::bench::BuildSystem("bookstore",
                                           dssp::bench::BenchScale(), 17);
    const auto& catalog = system->app->home().database().catalog();
    const dssp::analysis::SecurityReport report =
        dssp::analysis::RunMethodology(
            system->app->templates(), catalog,
            system->workload->CompulsoryEncryption(catalog));
    step1_baseline = report.initial;
    our_approach = report.final;
  }

  struct Point {
    std::string label;
    dssp::bench::ExposureFactory factory;
  };
  std::vector<Point> points;

  points.push_back(
      {"no encryption (0 templates)",
       [](const dssp::service::ScalableApp& app) {
         return dssp::bench::UniformExposure(app, ExposureLevel::kView,
                                             ExposureLevel::kStmt);
       }});

  // The naive downward curve: encrypt the first k query templates (results
  // AND statements hidden -> those templates run blind) without consulting
  // the analysis.
  for (size_t k : {7u, 14u, 21u}) {
    points.push_back(
        {"naive: " + std::to_string(k) + " templates blind",
         [k](const dssp::service::ScalableApp& app) {
           ExposureAssignment exposure = dssp::bench::UniformExposure(
               app, ExposureLevel::kView, ExposureLevel::kStmt);
           for (size_t j = 0; j < k && j < exposure.query_levels.size();
                ++j) {
             exposure.query_levels[j] = ExposureLevel::kBlind;
           }
           return exposure;
         }});
  }

  points.push_back({"our approach",
                    [&](const dssp::service::ScalableApp&) {
                      return our_approach;
                    }});

  points.push_back(
      {"full encryption (all blind)",
       [](const dssp::service::ScalableApp& app) {
         return dssp::bench::UniformExposure(app, ExposureLevel::kBlind,
                                             ExposureLevel::kBlind);
       }});

  std::printf("%-36s %28s %12s\n", "configuration",
              "query templates encrypted", "max users");
  std::printf("%s\n", std::string(80, '-').c_str());
  for (const Point& point : points) {
    // Report the encrypted-template count of the configuration.
    auto probe_system = dssp::bench::BuildSystem(
        "bookstore", dssp::bench::BenchScale(), 17);
    const size_t encrypted =
        EncryptedResultCount(point.factory(*probe_system->app));
    probe_system.reset();

    auto result =
        dssp::bench::MeasureScalability("bookstore", point.factory, config);
    if (!result.ok()) {
      std::fprintf(stderr, "\n%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-36s %28zu %12d\n", point.label.c_str(), encrypted,
                result->max_users);
    std::fflush(stdout);
  }

  // Head-to-head confirmation (the scalability search quantizes to its
  // tolerance, so equal configurations can print slightly different
  // max-user values, and simulated timing feedback perturbs workload
  // randomness): replay the IDENTICAL operation trace under both
  // configurations and compare cache behaviour directly. "No scalability
  // impact" means equal hits and equal invalidations on the same trace.
  {
    auto replay = [&](const dssp::bench::ExposureFactory& factory,
                      const std::vector<dssp::sim::DbOp>& trace) {
      auto system = dssp::bench::BuildSystem("bookstore",
                                             dssp::bench::BenchScale(), 17);
      DSSP_CHECK_OK(system->app->SetExposure(factory(*system->app)));
      auto stats = dssp::sim::ReplayTrace(*system->app, trace);
      DSSP_CHECK(stats.ok());
      return *stats;
    };
    auto recorder = dssp::bench::BuildSystem("bookstore",
                                             dssp::bench::BenchScale(), 17);
    auto generator = recorder->workload->NewSession(23);
    dssp::Rng rng(29);
    const std::vector<dssp::sim::DbOp> trace =
        dssp::sim::RecordPages(*generator, rng, 3000);
    recorder.reset();

    const dssp::sim::ReplayStats exposed =
        replay(points.front().factory, trace);
    const dssp::sim::ReplayStats step1 = replay(
        [&](const dssp::service::ScalableApp&) { return step1_baseline; },
        trace);
    const dssp::sim::ReplayStats ours = replay(
        [&](const dssp::service::ScalableApp&) { return our_approach; },
        trace);
    std::printf(
        "\nSame-trace head-to-head (%zu ops):\n"
        "  no encryption      hit_rate=%.4f invalidated=%zu\n"
        "  Step 1 (law only)  hit_rate=%.4f invalidated=%zu\n"
        "  our approach       hit_rate=%.4f invalidated=%zu   "
        "(Step 2 is free: identical to Step 1)\n",
        trace.size(), exposed.hit_rate(), exposed.entries_invalidated,
        step1.hit_rate(), step1.entries_invalidated, ours.hit_rate(),
        ours.entries_invalidated);
  }

  std::printf(
      "\nPaper shape check: 'our approach' encrypts most query templates' "
      "results\nwhile matching the no-encryption scalability; naive "
      "encryption decays toward\nthe full-encryption floor.\n");
  return 0;
}
