#include "sheet/textio.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/a1.h"

namespace taco {
namespace {

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Status LineError(size_t line_no, std::string_view detail) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " +
                            std::string(detail));
}

// Parses the right-hand side of a line into the given cell.
Status ParseContent(Sheet* sheet, const Cell& cell, std::string_view rhs,
                    size_t line_no) {
  if (rhs.empty()) {
    return LineError(line_no, "missing cell content");
  }
  if (rhs[0] == '=') {
    Status s = sheet->SetFormula(cell, rhs.substr(1));
    if (!s.ok()) return LineError(line_no, s.ToString());
    return Status::OK();
  }
  if (rhs[0] == '"') {
    // Quoted string; "" escapes a quote. Must span the whole remainder.
    std::string value;
    size_t i = 1;
    bool closed = false;
    while (i < rhs.size()) {
      if (rhs[i] == '"') {
        if (i + 1 < rhs.size() && rhs[i + 1] == '"') {
          value += '"';
          i += 2;
        } else {
          closed = true;
          ++i;
          break;
        }
      } else {
        value += rhs[i];
        ++i;
      }
    }
    if (!closed || i != rhs.size()) {
      return LineError(line_no, "malformed string literal");
    }
    return sheet->SetText(cell, std::move(value));
  }
  if (rhs == "TRUE" || rhs == "true") {
    return sheet->SetBoolean(cell, true);
  }
  if (rhs == "FALSE" || rhs == "false") {
    return sheet->SetBoolean(cell, false);
  }
  std::string buffer(rhs);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) {
    return LineError(line_no,
                     "cannot parse cell content '" + buffer + "' as a number");
  }
  return sheet->SetNumber(cell, value);
}

}  // namespace

std::string WriteSheetText(const Sheet& sheet) {
  std::ostringstream out;
  out << "# tsheet v1";
  if (!sheet.name().empty()) out << " name=" << sheet.name();
  out << "\n";
  sheet.ForEachCellColumnMajor(
      [&out](const Cell& cell, const CellContent& content) {
        out << CellToA1(cell) << " = " << content.ToString() << "\n";
      });
  return out.str();
}

Result<Sheet> ReadSheetText(std::string_view text) {
  Sheet sheet;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') continue;

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return LineError(line_no, "expected '<cell> = <content>'");
    }
    std::string_view cell_text = TrimWhitespace(line.substr(0, eq));
    auto cell = ParseCellA1(cell_text);
    if (!cell.ok()) {
      return LineError(line_no, cell.status().ToString());
    }
    // Content keeps leading '=' for formulas: "C1 = =SUM(A1:A3)".
    std::string_view rhs = TrimWhitespace(line.substr(eq + 1));
    TACO_RETURN_IF_ERROR(ParseContent(&sheet, *cell, rhs, line_no));
  }
  return sheet;
}

Status SaveSheetFile(const Sheet& sheet, const std::string& path) {
  // Write-then-rename so a concurrent load never observes a partial
  // file. The temp name is unique per writer so concurrent saves to one
  // path can't interleave inside the same temp file; last rename wins.
  // fsync before the rename and sync the directory after it: this is the
  // durability floor every caller gets — direct callers (examples, the
  // differential oracle) deserve a crash-safe save too. The storage
  // layer's WriteFileAtomic, which session saves use, keeps the same
  // contract.
  static std::atomic<uint64_t> save_counter{0};
  const std::string tmp_path = path + ".tmp." +
                               std::to_string(::getpid()) + "." +
                               std::to_string(save_counter.fetch_add(1));
  const std::string data = WriteSheetText(sheet);
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp_path +
                           "' for writing: " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::IoError("failed writing '" + tmp_path +
                             "': " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::IoError("fsync '" + tmp_path +
                           "': " + std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp_path.c_str());
    return Status::IoError("cannot rename '" + tmp_path + "' to '" + path +
                           "': " + std::strerror(err));
  }
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IoError("open dir '" + dir +
                           "': " + std::strerror(errno));
  }
  if (::fsync(dir_fd) != 0) {
    int err = errno;
    ::close(dir_fd);
    return Status::IoError("fsync dir '" + dir +
                           "': " + std::strerror(err));
  }
  ::close(dir_fd);
  return Status::OK();
}

Result<Sheet> LoadSheetFile(const std::string& path, uint64_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  // Refuse oversized files up front: the size check costs one stat and
  // keeps a corrupt or hostile path from ballooning the process.
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > max_bytes) {
    return Status::DataLoss("'" + path + "' is " + std::to_string(size) +
                            " bytes, over the load limit of " +
                            std::to_string(max_bytes));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto sheet = ReadSheetText(buffer.str());
  if (!sheet.ok()) return sheet;
  sheet->set_name(std::filesystem::path(path).stem().string());
  return sheet;
}

}  // namespace taco
