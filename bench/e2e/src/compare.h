// `taco_e2e compare`: reads two result files back and judges every
// workload x metric pair with the direction and bound BENCHMARK.json
// fixes.

#ifndef TACO_E2E_COMPARE_H_
#define TACO_E2E_COMPARE_H_

#include <string>

namespace taco::e2e {

/// Prints one row per workload and metric and returns the exit code: 1
/// when any metric got worse or any counter changed, 2 when a file cannot
/// be read, 0 otherwise.
int RunCompare(const std::string& base_path, const std::string& new_path,
               const std::string& benchmark_path);

}  // namespace taco::e2e

#endif  // TACO_E2E_COMPARE_H_
