// Order statistics over measured samples.

#ifndef TACO_E2E_STATS_H_
#define TACO_E2E_STATS_H_

#include <cstddef>
#include <vector>

namespace taco::e2e {

/// The q-quantile (0..1) by linear interpolation between closest ranks;
/// 0 for an empty sample. Sorts `values` in place.
double Quantile(std::vector<double>& values, double q);

/// True when at least 10 samples lie above the q-quantile — the rule for
/// reporting a tail percentile at all.
bool TailSupported(size_t samples, double q);

double Mean(const std::vector<double>& values);

/// First and third quartile and median, as Python's
/// statistics.quantiles(values, n=4) (exclusive method) gives them; a
/// single sample is its own quartiles.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

}  // namespace taco::e2e

#endif  // TACO_E2E_STATS_H_
