// ASCII-only case helpers. Locale-free and safe on any char value
// (std::tolower on a negative plain char is UB); protocol keywords and
// env values are all ASCII by contract.

#ifndef TACO_COMMON_ASCII_H_
#define TACO_COMMON_ASCII_H_

#include <string>
#include <string_view>

namespace taco {

inline char ToLowerAsciiChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

inline std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ToLowerAsciiChar(c);
  return out;
}

inline bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerAsciiChar(a[i]) != ToLowerAsciiChar(b[i])) return false;
  }
  return true;
}

}  // namespace taco

#endif  // TACO_COMMON_ASCII_H_
