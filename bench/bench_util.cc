#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "baselines/deadline.h"
#include "common/ascii.h"

namespace taco::bench {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

uint64_t PercentileU64(std::vector<uint64_t> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  return xs[std::min(static_cast<size_t>(rank + 0.5), xs.size() - 1)];
}

std::string FormatMs(double ms, bool dnf) {
  if (dnf) return "DNF";
  char buffer[64];
  if (ms >= 1000) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", ms / 1000.0);
  } else if (ms >= 1) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", ms);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3f ms", ms);
  }
  return buffer;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("| ");
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::printf("%-*s | ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t w : widths) {
    for (size_t i = 0; i < w + 2; ++i) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

void PrintCdfRow(TablePrinter* table, const std::string& name,
                 std::vector<double> ms) {
  table->AddRow({name, FormatMs(Percentile(ms, 50)),
                 FormatMs(Percentile(ms, 75)), FormatMs(Percentile(ms, 90)),
                 FormatMs(Percentile(ms, 95)), FormatMs(Percentile(ms, 99)),
                 FormatMs(Percentile(ms, 100))});
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value ? std::atof(value) : fallback;
}

BenchProfile ActiveBenchProfile() {
  const char* value = std::getenv("TACO_BENCH_PROFILE");
  if (value == nullptr || value[0] == '\0') return BenchProfile::kDefault;
  std::string name = ToLowerAscii(value);
  if (name == "paper") return BenchProfile::kPaper;
  if (name == "smoke") return BenchProfile::kSmoke;
  if (name != "default") {
    static bool warned = [&] {
      std::fprintf(stderr,
                   "[bench] unknown TACO_BENCH_PROFILE '%s' "
                   "(paper|smoke|default); using default scale\n",
                   value);
      return true;
    }();
    (void)warned;
  }
  return BenchProfile::kDefault;
}

std::string_view BenchProfileName(BenchProfile profile) {
  switch (profile) {
    case BenchProfile::kDefault: return "default";
    case BenchProfile::kSmoke: return "smoke";
    case BenchProfile::kPaper: return "paper";
  }
  return "?";
}

namespace {

/// Applies the active profile's sheet/formula scale, then the individual
/// env overrides on top. `default_sheets` is the historical bench-scale
/// sheet count for the corpus.
CorpusProfile ApplyBenchScale(CorpusProfile p, int default_sheets) {
  switch (ActiveBenchProfile()) {
    case BenchProfile::kPaper:
      break;  // The full src/corpus profile IS paper scale.
    case BenchProfile::kSmoke:
      p.num_sheets = 2;
      p.max_formulas_per_sheet = 200;
      break;
    case BenchProfile::kDefault:
      p.num_sheets = default_sheets;
      break;
  }
  p.num_sheets = EnvInt("TACO_BENCH_SHEETS", p.num_sheets);
  p.max_formulas_per_sheet =
      EnvInt("TACO_BENCH_MAX_FORMULAS", p.max_formulas_per_sheet);
  return p;
}

}  // namespace

CorpusProfile BenchEnron() {
  // At default scale: the full Enron profile trimmed to a bench-scale
  // sheet count. Region and sheet size distributions stay at full scale
  // so the heavy tail (the sheets the paper's speedups come from) is
  // represented.
  return ApplyBenchScale(CorpusProfile::Enron(), 14);
}

CorpusProfile BenchGithub() {
  // Default 16 preserves the historical Enron+2 sheet count; an explicit
  // TACO_BENCH_SHEETS now applies exactly (the old code added 2 on top
  // of the override too, which made the knob lie).
  return ApplyBenchScale(CorpusProfile::Github(), 16);
}

double DnfBudgetMs() {
  double fallback = 10000;
  switch (ActiveBenchProfile()) {
    case BenchProfile::kPaper: fallback = 300000; break;  // Sec. VI cutoff.
    case BenchProfile::kSmoke: fallback = 2000; break;
    case BenchProfile::kDefault: break;
  }
  return EnvDouble("TACO_BENCH_BUDGET_MS", fallback);
}

std::vector<CorpusSheet> LoadCorpus(const CorpusProfile& profile) {
  TimerMs timer;
  CorpusGenerator generator(profile);
  std::vector<CorpusSheet> sheets = generator.GenerateAll();
  uint64_t deps = 0;
  for (const CorpusSheet& s : sheets) deps += s.expected_dependencies;
  std::printf("[corpus] %s (%s profile): %zu sheets, %llu dependencies "
              "(%.1f s)\n",
              profile.name.c_str(),
              std::string(BenchProfileName(ActiveBenchProfile())).c_str(),
              sheets.size(), static_cast<unsigned long long>(deps),
              timer.ElapsedMs() / 1000.0);
  return sheets;
}

double TimedBuild(DependencyGraph* graph, const std::vector<Dependency>& deps,
                  double budget_ms) {
  Deadline deadline(budget_ms);
  TimerMs timer;
  for (const Dependency& dep : deps) {
    (void)graph->AddDependency(dep);
    if (deadline.Expired()) return -1;
  }
  return timer.ElapsedMs();
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace taco::bench
