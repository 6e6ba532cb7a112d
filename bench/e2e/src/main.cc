// taco_e2e: end-to-end benchmark of taco_serve under spreadsheet-shaped
// traffic. See bench/e2e/README.md for the workloads and metrics.
//
//   taco_e2e run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                    [--scale full|smoke] [--repeat N] [--json PATH]
//                    [--work-dir DIR] [--serve PATH]
//   taco_e2e traced  [same options]      (run --trace 1)
//   taco_e2e compare BASE.json NEW.json [--benchmark BENCHMARK.json]
//
// The last line on stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>

#include "compare.h"
#include "json.h"
#include "layers.h"
#include "pass.h"
#include "stats.h"
#include "workload.h"

using namespace taco;
using namespace taco::e2e;

namespace {

/// Timed-phase length when --seconds is not given (BENCHMARK.json's
/// run_seconds), and under --scale smoke.
constexpr double kDefaultSeconds = 10;
constexpr double kSmokeSeconds = 1;
constexpr int kSetupReps = 3;

struct Options {
  std::string command;
  std::vector<const WorkloadSpec*> workloads;
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool smoke = false;
  bool trace = false;
  int repeat = 1;
  std::string json_path;
  std::string work_dir;
  std::string serve_binary = TACO_E2E_SERVE_PATH;
  std::string benchmark_json = TACO_E2E_BENCHMARK_JSON;
  std::vector<std::string> positional;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "taco_e2e: %s\n"
               "usage: taco_e2e run|traced [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale full|smoke] [--repeat N] "
               "[--json PATH] [--work-dir DIR] [--serve PATH]\n"
               "       taco_e2e compare BASE.json NEW.json "
               "[--benchmark BENCHMARK.json]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool ParseOptions(int argc, char** argv, Options* o, std::string* error) {
  if (argc < 2) {
    *error = "missing command";
    return false;
  }
  o->command = argv[1];
  if (o->command == "traced") {
    o->command = "run";
    o->trace = true;
  }
  bool seconds_given = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      o->positional.push_back(arg);
      continue;
    }
    if (i + 1 >= argc) {
      *error = arg + " needs a value";
      return false;
    }
    std::string v = argv[++i];
    double number = 0;
    bool ok = true;
    if (arg == "--workload") {
      if (v == "all") continue;
      const WorkloadSpec* spec = FindWorkload(v);
      ok = spec != nullptr;
      if (ok && std::find(o->workloads.begin(), o->workloads.end(), spec) ==
                    o->workloads.end()) {
        o->workloads.push_back(spec);
      }
    } else if (arg == "--seed") {
      ok = ParseNumber(v.c_str(), &number) && number >= 0 &&
           number == static_cast<double>(static_cast<uint64_t>(number));
      o->seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      ok = ParseNumber(v.c_str(), &o->seconds) && o->seconds > 0 &&
           o->seconds <= 600;
      seconds_given = true;
    } else if (arg == "--trace") {
      ok = v == "0" || v == "1";
      o->trace = o->trace || v == "1";
    } else if (arg == "--scale") {
      ok = v == "full" || v == "smoke";
      o->smoke = v == "smoke";
    } else if (arg == "--repeat") {
      ok = ParseNumber(v.c_str(), &number) && number >= 1 && number <= 100;
      o->repeat = static_cast<int>(number);
    } else if (arg == "--json") {
      o->json_path = v;
    } else if (arg == "--work-dir") {
      o->work_dir = v;
    } else if (arg == "--serve") {
      o->serve_binary = v;
    } else if (arg == "--benchmark") {
      o->benchmark_json = v;
    } else {
      *error = "unknown option " + arg;
      return false;
    }
    if (!ok) {
      *error = "bad value '" + v + "' for " + arg;
      return false;
    }
  }
  if (o->smoke && !seconds_given) o->seconds = kSmokeSeconds;
  if (o->workloads.empty()) {
    for (const WorkloadSpec& spec : Workloads()) o->workloads.push_back(&spec);
  }
  if (o->work_dir.empty()) {
    // Next to the binary, i.e. inside the build tree.
    std::error_code ec;
    auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    o->work_dir = (ec ? std::filesystem::current_path() : exe.parent_path())
                      .string() + "/e2e-work";
  }
  return true;
}

/// One run (untraced, or untraced + traced) of one workload.
struct WorkloadRun {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< Gated metrics first, then detail.
  std::vector<Metric> layers;      ///< Traced runs only.
  std::string report;              ///< Human-readable notes.
};

/// The end-to-end metrics BENCHMARK.json gates, in its order. Reported
/// on every workload; all other end-to-end numbers are detail.
constexpr const char* kGated[] = {"ops_per_s",  "edit_p50_ms", "edit_p95_ms",
                                  "cmd_p50_ms", "setup_s",     "server_rss_mb"};

bool IsGated(const std::string& name) {
  for (const char* gated : kGated) {
    if (name == gated) return true;
  }
  return false;
}

std::vector<Metric> EndToEndMetrics(const PassResult& pass) {
  std::vector<Metric> m;
  auto ms = [](std::vector<double> us, double q) {
    return Quantile(us, q) / 1e3;
  };
  std::vector<double> all = pass.edit_us;
  all.insert(all.end(), pass.get_us.begin(), pass.get_us.end());
  all.insert(all.end(), pass.getrange_us.begin(), pass.getrange_us.end());
  std::vector<double> setup = pass.setup_s;
  m.push_back({"ops_per_s",
               pass.phase_s > 0 ? static_cast<double>(pass.attempted) /
                                      pass.phase_s
                                : 0,
               "1/s", false, false, pass.attempted, ""});
  m.push_back({"edit_p50_ms", ms(pass.edit_us, 0.5), "ms", true, false,
               pass.edit_us.size(), ""});
  m.push_back({"edit_p95_ms", ms(pass.edit_us, 0.95), "ms", true, false,
               pass.edit_us.size(), ""});
  m.push_back({"cmd_p50_ms", ms(all, 0.5), "ms", true, false, all.size(), ""});
  m.push_back({"setup_s", Quantile(setup, 0.5), "s", true, false,
               pass.setup_s.size(), ""});
  m.push_back({"server_rss_mb", pass.rss_mb, "MB", true, false, 1, ""});
  m.push_back({"edit_p99_ms", ms(pass.edit_us, 0.99), "ms", true, false,
               pass.edit_us.size(), ""});
  m.push_back({"cmd_p95_ms", ms(all, 0.95), "ms", true, false, all.size(), ""});
  m.push_back({"cmd_p99_ms", ms(all, 0.99), "ms", true, false, all.size(), ""});
  if (!pass.get_us.empty()) {
    m.push_back({"get_p50_ms", ms(pass.get_us, 0.5), "ms", true, false,
                 pass.get_us.size(), ""});
    m.push_back({"get_p99_ms", ms(pass.get_us, 0.99), "ms", true, false,
                 pass.get_us.size(), ""});
  }
  if (!pass.getrange_us.empty()) {
    m.push_back({"getrange_p50_ms", ms(pass.getrange_us, 0.5), "ms", true,
                 false, pass.getrange_us.size(), ""});
    m.push_back({"getrange_p99_ms", ms(pass.getrange_us, 0.99), "ms", true,
                 false, pass.getrange_us.size(), ""});
  }
  m.push_back({"phase_s", pass.phase_s, "s", true, false, 0, ""});
  m.push_back({"error_rate",
               pass.attempted > 0 ? static_cast<double>(pass.failed) /
                                        static_cast<double>(pass.attempted)
                                  : 0,
               "fraction", true, false, pass.attempted, ""});
  m.push_back({"attempted", static_cast<double>(pass.attempted), "count", true,
               true, 0, ""});
  return m;
}

std::string GateLine(const char* label, const PassResult& pass) {
  std::string line = std::string("  correctness (") + label + "): " +
                     std::to_string(pass.cells_checked) +
                     " formula cells read back";
  line += pass.correct ? ", all equal to the oracle\n"
                       : ", MISMATCHES:\n" + pass.gate_report;
  if (pass.failed > 0) {
    line += "  " + std::to_string(pass.failed) +
            " failed commands; first: " + pass.first_failure + "\n";
  }
  if (pass.deadline_hit) {
    line += "  deadline guard stopped clients early: counts are partial\n";
  }
  return line;
}

void PrintTable(const std::vector<Metric>& metrics, bool layers) {
  std::printf("  %-32s %14s %-9s %9s  %s\n", "metric", "value", "unit",
              "samples", layers ? "moves" : "");
  for (const Metric& m : metrics) {
    std::string samples = m.samples > 0 ? std::to_string(m.samples) : "";
    std::string note = layers ? m.moves : (IsGated(m.name) ? "" : "detail");
    if (!layers && m.name.ends_with("_p99_ms") &&
        !TailSupported(m.samples, 0.99)) {
      note = "under 10 samples beyond p99";
    }
    if (m.counter) note = note.empty() ? "counter" : "counter; " + note;
    std::printf("  %-32s %14.6g %-9s %9s  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), samples.c_str(), note.c_str());
  }
}

Result<WorkloadRun> RunWorkload(const WorkloadSpec& spec,
                                const std::vector<BenchSheet>& sheets,
                                const Options& o, const std::string& dir) {
  PassConfig config;
  config.serve_binary = o.serve_binary;
  config.work_dir = dir;
  config.seed = o.seed;
  config.seconds = o.seconds;
  // Set-up is repeated for a steady median; a traced run reports
  // per-layer numbers only, so one set-up per pass will do.
  config.setup_reps = o.smoke || o.trace ? 1 : kSetupReps;
  WorkloadRun run;
  Result<PassResult> untraced = RunPass(spec, sheets, config);
  if (!untraced.ok()) return untraced.status();
  run.correct = untraced->correct;
  run.attempted = untraced->attempted;
  run.failed = untraced->failed;
  run.end_to_end = EndToEndMetrics(*untraced);
  run.report = GateLine("untraced", *untraced);
  if (!o.trace) return run;

  config.traced = true;
  Result<PassResult> traced = RunPass(spec, sheets, config);
  if (!traced.ok()) return traced.status();
  Result<ProbeResult> probes = RunProbes(sheets);
  if (!probes.ok()) return probes.status();
  std::string identity;
  Result<std::vector<Metric>> layers =
      LayerMetrics(*untraced, *traced, *probes, &identity);
  if (!layers.ok()) return layers.status();
  run.layers = std::move(*layers);
  run.correct = run.correct && traced->correct;
  run.attempted += traced->attempted;
  run.failed += traced->failed;
  run.report += GateLine("traced", *traced) + identity;
  return run;
}

std::string MachineJson(const std::string& work_dir) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  // The filesystem the WAL directory (inside the work dir) lives on.
  std::string fs = "unknown";
  struct statfs info {};
  if (::statfs(work_dir.c_str(), &info) == 0) {
    static const std::map<unsigned long, const char*> kNames = {
        {0xEF53, "ext4"},        {0x58465342, "xfs"},
        {0x9123683E, "btrfs"},   {0x01021994, "tmpfs"},
        {0x794C7630, "overlayfs"}};
    auto it = kNames.find(static_cast<unsigned long>(info.f_type));
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%lx",
                  static_cast<unsigned long>(info.f_type));
    fs = it != kNames.end() ? it->second : hex;
  }
  struct utsname uts {};
  ::uname(&uts);
  std::time_t now = std::time(nullptr);
  char date[32];
  std::strftime(date, sizeof(date), "%Y-%m-%d", std::gmtime(&now));
  return "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": " + JsonQuote(cpu) +
         ", \"wal_filesystem\": " + JsonQuote(fs) +
         ", \"kernel\": " + JsonQuote(uts.release) +
         ", \"date\": " + JsonQuote(date) + "}";
}

/// Values of every metric across the repeats of one workload.
struct Series {
  Metric meta;
  bool layer = false;
  std::vector<double> values;
};
using WorkloadSeries = std::vector<Series>;

void Accumulate(const std::vector<Metric>& metrics, bool layer,
                WorkloadSeries* series) {
  for (const Metric& m : metrics) {
    auto it = std::find_if(series->begin(), series->end(),
                           [&](const Series& s) { return s.meta.name == m.name; });
    if (it == series->end()) {
      series->push_back({m, layer, {}});
      it = series->end() - 1;
    }
    it->values.push_back(m.value);
  }
}

Status WriteResultJson(const Options& o,
                       const std::vector<std::pair<std::string, WorkloadSeries>>&
                           results,
                       const std::map<std::string, bool>& correct) {
  std::string out = "{\n  \"tool\": \"taco_e2e\",\n  \"machine\": " +
                    MachineJson(o.work_dir) +
                    ",\n  \"seed\": " + std::to_string(o.seed) +
                    ",\n  \"seconds\": " + JsonNumber(o.seconds) +
                    ",\n  \"scale\": \"" + (o.smoke ? "smoke" : "full") +
                    "\",\n  \"trace\": " + (o.trace ? "true" : "false") +
                    ",\n  \"repeat\": " + std::to_string(o.repeat) +
                    ",\n  \"workloads\": {";
  for (size_t w = 0; w < results.size(); ++w) {
    const auto& [name, series] = results[w];
    out += std::string(w ? "," : "") + "\n    " + JsonQuote(name) +
           ": {\n      \"correct\": " +
           (correct.at(name) ? "true" : "false") + ",\n      \"metrics\": {";
    for (size_t i = 0; i < series.size(); ++i) {
      const Series& s = series[i];
      out += std::string(i ? "," : "") + "\n        " +
             JsonQuote(s.meta.name) + ": {\"unit\": " + JsonQuote(s.meta.unit) +
             ", \"better\": \"" +
             (s.meta.lower_is_better ? "lower" : "higher") +
             "\", \"counter\": " + (s.meta.counter ? "true" : "false") +
             ", \"values\": [";
      for (size_t k = 0; k < s.values.size(); ++k) {
        out += (k ? ", " : "") + JsonNumber(s.values[k]);
      }
      out += "]}";
    }
    out += "\n      }\n    }";
  }
  out += "\n  }\n}\n";
  std::ofstream file(o.json_path, std::ios::trunc);
  file << out;
  file.close();
  if (!file) return Status::IoError("cannot write '" + o.json_path + "'");
  return Status::OK();
}

int RunCommand(const Options& o) {
  std::error_code ec;
  if (::access(o.serve_binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "taco_e2e: no taco_serve at '%s'\n",
                 o.serve_binary.c_str());
    return 2;
  }
  std::vector<std::pair<std::string, WorkloadSeries>> results;
  std::map<std::string, bool> correct;
  bool all_correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const WorkloadSpec* spec : o.workloads) {
    const std::string dir = o.work_dir + "/" + spec->name;
    std::filesystem::remove_all(dir, ec);
    Result<std::vector<BenchSheet>> sheets =
        MakeCorpus(*spec, o.seed, dir + "/corpus");
    if (!sheets.ok()) {
      std::fprintf(stderr, "taco_e2e: %s\n", sheets.status().ToString().c_str());
      return 2;
    }
    size_t formulas = 0;
    std::string indexes;
    for (const BenchSheet& s : *sheets) {
      formulas += s.formulas;
      indexes += (indexes.empty() ? "" : ",") + std::to_string(s.profile_index);
    }
    WorkloadSeries series;
    bool workload_correct = true;
    for (int r = 0; r < o.repeat; ++r) {
      std::fprintf(stderr, "taco_e2e: %s run %d/%d\n", spec->name, r + 1,
                   o.repeat);
      Result<WorkloadRun> run = RunWorkload(*spec, *sheets, o, dir);
      if (!run.ok()) {
        std::fprintf(stderr, "taco_e2e: %s: %s\n", spec->name,
                     run.status().ToString().c_str());
        return 2;
      }
      std::printf("== %s  (%d clients, %s sheets %s, %zu formulas, seed "
                  "%llu, %g s nominal, run %d/%d)\n",
                  spec->name, spec->clients, spec->profile.name.c_str(),
                  indexes.c_str(), formulas,
                  static_cast<unsigned long long>(o.seed), o.seconds, r + 1,
                  o.repeat);
      PrintTable(run->end_to_end, false);
      if (o.trace) {
        std::printf("  -- per layer (traced pass) --\n");
        PrintTable(run->layers, true);
      }
      std::printf("%s\n", run->report.c_str());
      Accumulate(run->end_to_end, false, &series);
      Accumulate(run->layers, true, &series);
      workload_correct = workload_correct && run->correct;
      attempted += run->attempted;
      failed += run->failed;
    }
    all_correct = all_correct && workload_correct;
    correct[spec->name] = workload_correct;
    results.emplace_back(spec->name, std::move(series));
  }

  if (!o.json_path.empty()) {
    Status written = WriteResultJson(o, results, correct);
    if (!written.ok()) {
      std::fprintf(stderr, "taco_e2e: %s\n", written.ToString().c_str());
      return 2;
    }
  }

  // The result line: medians over repeats; names are prefixed with the
  // workload only when several workloads ran.
  std::string metrics;
  for (const auto& [workload, series] : results) {
    for (const Series& s : series) {
      bool wanted = o.trace ? s.layer : IsGated(s.meta.name);
      if (!wanted) continue;
      std::vector<double> values = s.values;
      std::string name =
          results.size() > 1 ? workload + "." + s.meta.name : s.meta.name;
      metrics += std::string(metrics.empty() ? "" : ", ") + JsonQuote(name) +
                 ": {\"value\": " + JsonNumber(Quantile(values, 0.5)) +
                 ", \"unit\": " + JsonQuote(s.meta.unit) + "}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              all_correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return all_correct && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!ParseOptions(argc, argv, &o, &error)) return Usage(error.c_str());
  if (o.command == "compare") {
    if (o.positional.size() != 2) return Usage("compare needs two files");
    return RunCompare(o.positional[0], o.positional[1], o.benchmark_json);
  }
  if (o.command != "run") return Usage("unknown command");
  if (!o.positional.empty()) return Usage("unexpected argument");
  return RunCommand(o);
}
