#include "json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace taco::e2e {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    Json value;
    TACO_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->text);
    }
    if (Consume("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (Consume("false")) {
      out->type = Json::Type::kBool;
      return Status::OK();
    }
    if (Consume("null")) return Status::OK();
    double number = 0;
    auto [end, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), number);
    if (ec != std::errc()) return Error("bad value");
    pos_ = static_cast<size_t>(end - text_.data());
    out->type = Json::Type::kNumber;
    out->number = number;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          // Only the escapes JsonQuote writes (control characters).
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          unsigned code = 0;
          auto [end, ec] = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || end != text_.data() + pos_ + 4 ||
              code > 0x7f) {
            return Error("unsupported \\u escape");
          }
          out->push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default: out->push_back(e); break;
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(Json* out, int depth) {
    out->type = Json::Type::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      Json item;
      TACO_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->items.push_back(std::move(item));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected , or ]");
    }
  }

  Status ParseObject(Json* out, int depth) {
    out->type = Json::Type::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a key");
      }
      std::string key;
      TACO_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Error("expected :");
      ++pos_;
      Json value;
      TACO_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected , or }");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<Json> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

Result<Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Json> parsed = ParseJson(buffer.str());
  if (!parsed.ok()) {
    return Status::ParseError(path + ": " + parsed.status().message());
  }
  return parsed;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

}  // namespace taco::e2e
