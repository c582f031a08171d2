#ifndef DSSP_SIM_SEARCH_H_
#define DSSP_SIM_SEARCH_H_

#include <functional>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/simulator.h"

namespace dssp::sim {

// Runs one simulation at a given user count against a FRESH system (the
// callee must rebuild the application: updates mutate the master database,
// and each measurement starts from a cold cache, as in the paper).
using ProbeFn = std::function<StatusOr<SimResult>(int num_clients)>;

struct ScalabilityResult {
  // Max concurrent users meeting the SLO (0 if even `min_users` fails).
  int max_users = 0;
  // Every probe taken, in order.
  std::vector<SimResult> probes;
};

// Finds the scalability of a configuration: exponential ramp from
// `min_users` until the SLO fails (or `max_users` passes), then binary
// search to within `tolerance` users. Bounds violating
// 0 < min_users <= max_users, or a non-positive tolerance, return
// InvalidArgument.
StatusOr<ScalabilityResult> FindMaxUsers(const ProbeFn& probe,
                                         const SimConfig& config,
                                         int min_users = 10,
                                         int max_users = 20000,
                                         int tolerance = 25);

}  // namespace dssp::sim

#endif  // DSSP_SIM_SEARCH_H_
