#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace taco::e2e {

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool TailSupported(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles' default "exclusive" method, step for step
  // (including its extrapolation below four samples).
  auto cut = [&](int64_t i) {
    int64_t ld = static_cast<int64_t>(values.size());
    int64_t m = ld + 1;
    int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    int64_t delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.median = cut(2);
  out.q3 = cut(3);
  return out;
}

}  // namespace taco::e2e
