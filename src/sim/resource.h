#ifndef DSSP_SIM_RESOURCE_H_
#define DSSP_SIM_RESOURCE_H_

#include <algorithm>
#include <vector>

#include "common/macros.h"

namespace dssp::sim {

// A FIFO worker pool in virtual time: jobs go to the earliest-free worker.
// Models each DSSP member's CPU (home hosts queue on backend::ConnectionPool,
// which admits identically at zero lease latency).
class QueueingResource {
 public:
  explicit QueueingResource(int workers) : busy_until_(workers, 0.0) {
    DSSP_CHECK(workers > 0);
  }

  // Enqueues a job arriving at `arrival` needing `service` seconds; returns
  // its completion time and advances the worker's clock.
  double Schedule(double arrival, double service) {
    auto it = std::min_element(busy_until_.begin(), busy_until_.end());
    const double start = std::max(arrival, *it);
    *it = start + service;
    return *it;
  }

 private:
  std::vector<double> busy_until_;
};

}  // namespace dssp::sim

#endif  // DSSP_SIM_RESOURCE_H_
