// Just enough JSON for the benchmark's own files: result files written by
// `taco_e2e run --json` and BENCHMARK.json, read back by `compare`.

#ifndef TACO_E2E_JSON_H_
#define TACO_E2E_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace taco::e2e {

/// A parsed JSON value. Objects keep their key order.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  /// The member named `key`, or null when absent (or not an object).
  const Json* Find(std::string_view key) const;
};

Result<Json> ParseJson(std::string_view text);
Result<Json> ReadJsonFile(const std::string& path);

/// `text` as a quoted, escaped JSON string.
std::string JsonQuote(std::string_view text);

/// `value` with every digit it carries (round-trips through strtod).
std::string JsonNumber(double value);

}  // namespace taco::e2e

#endif  // TACO_E2E_JSON_H_
