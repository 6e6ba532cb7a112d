#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "json.h"
#include "stats.h"

namespace taco::e2e {
namespace {

constexpr size_t kMinRunsForVerdict = 3;

std::vector<double> Values(const Json* metric) {
  std::vector<double> out;
  const Json* values = metric != nullptr ? metric->Find("values") : nullptr;
  if (values == nullptr) return out;
  for (const Json& v : values->items) out.push_back(v.number);
  return out;
}

const Json* MetricOf(const Json& workload, const std::string& name) {
  const Json* metrics = workload.Find("metrics");
  return metrics != nullptr ? metrics->Find(name) : nullptr;
}

/// Relative interquartile range: the run-to-run spread of one side.
double Spread(const Quartiles& q) {
  return q.median != 0 ? std::fabs(q.q3 - q.q1) / std::fabs(q.median) : 0;
}

/// Judges one time-like metric. `worse` is the median change in the
/// metric's bad direction, as a share of the base median.
std::string Verdict(const std::vector<double>& base,
                    const std::vector<double>& next, bool lower_is_better,
                    double bound, double* worse, double* spread) {
  Quartiles qb = ComputeQuartiles(base);
  Quartiles qn = ComputeQuartiles(next);
  double change = qb.median != 0 ? (qn.median - qb.median) / qb.median : 0;
  *worse = lower_is_better ? change : -change;
  *spread = std::max(Spread(qb), Spread(qn));
  auto [base_lo, base_hi] = std::minmax_element(base.begin(), base.end());
  auto [next_lo, next_hi] = std::minmax_element(next.begin(), next.end());
  bool every_run_better =
      lower_is_better ? *next_hi < *base_lo : *next_lo > *base_hi;
  if (*spread > bound) return every_run_better ? "better" : "unresolved";
  if (std::fabs(*worse) <= bound) return "same";
  // Under three runs a side has no measurable spread, so a difference
  // beyond the bound cannot be told from run-to-run noise.
  if (base.size() < kMinRunsForVerdict || next.size() < kMinRunsForVerdict) {
    return "unresolved";
  }
  return *worse > 0 ? "WORSE" : "better";
}

}  // namespace

int RunCompare(const std::string& base_path, const std::string& new_path,
               const std::string& benchmark_path) {
  Result<Json> base = ReadJsonFile(base_path);
  Result<Json> next = ReadJsonFile(new_path);
  Result<Json> bench = ReadJsonFile(benchmark_path);
  for (const Result<Json>* file : {&base, &next, &bench}) {
    if (!file->ok()) {
      std::fprintf(stderr, "compare: %s\n",
                   file->status().ToString().c_str());
      return 2;
    }
  }
  const Json* base_workloads = base->Find("workloads");
  const Json* next_workloads = next->Find("workloads");
  const Json* gated = bench->Find("end_to_end");
  if (base_workloads == nullptr || next_workloads == nullptr ||
      gated == nullptr) {
    std::fprintf(stderr, "compare: missing workloads or end_to_end\n");
    return 2;
  }

  std::printf("%-15s %-30s %13s %13s %8s %7s %6s  %s\n", "workload", "metric",
              "base median", "new median", "change", "spread", "bound",
              "verdict");
  int regressions = 0;
  for (const auto& [workload, base_wl] : base_workloads->members) {
    const Json* next_wl = next_workloads->Find(workload);
    if (next_wl == nullptr) {
      std::printf("%-15s (missing from %s)\n", workload.c_str(),
                  new_path.c_str());
      continue;
    }
    for (const Json& metric : gated->items) {
      const Json* name = metric.Find("name");
      const Json* better = metric.Find("better");
      const Json* bound = metric.Find("bound");
      if (name == nullptr || better == nullptr || bound == nullptr) continue;
      std::vector<double> b = Values(MetricOf(base_wl, name->text));
      std::vector<double> n = Values(MetricOf(*next_wl, name->text));
      if (b.empty() || n.empty()) {
        std::printf("%-15s %-30s %s\n", workload.c_str(), name->text.c_str(),
                    "(not in both files)");
        continue;
      }
      double worse = 0, spread = 0;
      std::string verdict = Verdict(b, n, better->text == "lower",
                                    bound->number, &worse, &spread);
      if (verdict == "WORSE") ++regressions;
      double change = better->text == "lower" ? worse : -worse;
      std::printf("%-15s %-30s %13.6g %13.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
                  workload.c_str(), name->text.c_str(),
                  ComputeQuartiles(b).median, ComputeQuartiles(n).median,
                  change * 100, spread * 100, bound->number * 100,
                  verdict.c_str());
    }
    // Counters are exact by construction: any difference is a finding,
    // whatever its size.
    const Json* metrics = base_wl.Find("metrics");
    if (metrics == nullptr) continue;
    for (const auto& [name, entry] : metrics->members) {
      const Json* counter = entry.Find("counter");
      if (counter == nullptr || !counter->boolean) continue;
      std::vector<double> b = Values(&entry);
      std::vector<double> n = Values(MetricOf(*next_wl, name));
      if (b.empty()) continue;
      bool same = !n.empty() &&
                  std::all_of(b.begin(), b.end(),
                              [&](double v) { return v == b.front(); }) &&
                  std::all_of(n.begin(), n.end(),
                              [&](double v) { return v == b.front(); });
      if (!same) ++regressions;
      std::printf("%-15s %-30s %13.6g %13.6g %8s %7s %6s  %s\n",
                  workload.c_str(), name.c_str(), b.front(),
                  n.empty() ? 0.0 : n.front(), "", "", "exact",
                  same ? "counter same" : "COUNTER DIFFERS");
    }
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace taco::e2e
