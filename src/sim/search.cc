#include "sim/search.h"

#include <string>

namespace dssp::sim {

StatusOr<ScalabilityResult> FindMaxUsers(const ProbeFn& probe,
                                         const SimConfig& config,
                                         int min_users, int max_users,
                                         int tolerance) {
  if (min_users <= 0 || max_users < min_users || tolerance <= 0) {
    return InvalidArgumentError(
        "scalability search needs 0 < min_users <= max_users and a positive "
        "tolerance (got min_users=" + std::to_string(min_users) +
        ", max_users=" + std::to_string(max_users) +
        ", tolerance=" + std::to_string(tolerance) + ")");
  }
  ScalabilityResult out;

  const auto run = [&](int users) -> StatusOr<bool> {
    DSSP_ASSIGN_OR_RETURN(SimResult result, probe(users));
    out.probes.push_back(result);
    return result.MeetsSlo(config);
  };

  // Exponential ramp. Scalability need not be monotone at the very low
  // end: with few clients a shared cache fills slowly, so cold-cache-bound
  // configurations can fail at 10 users yet pass at 200. The ramp therefore
  // keeps going past early failures and only treats a failure as the upper
  // edge once some user count has passed.
  int good = 0;
  int bad = -1;
  int users = min_users;
  while (users <= max_users) {
    DSSP_ASSIGN_OR_RETURN(bool ok, run(users));
    if (ok) {
      good = users;
    } else if (good > 0) {
      bad = users;
      break;
    }
    users *= 2;
  }
  if (good == 0) {
    out.max_users = 0;  // No probed user count met the SLO.
    return out;
  }
  if (bad < 0) {
    out.max_users = good;  // Met the SLO all the way up to max_users.
    return out;
  }

  // Binary search in (good, bad).
  while (bad - good > tolerance) {
    const int mid = good + (bad - good) / 2;
    DSSP_ASSIGN_OR_RETURN(bool ok, run(mid));
    if (ok) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  out.max_users = good;
  return out;
}

}  // namespace dssp::sim
