#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <utility>
#include <vector>

#include "formula/parser.h"
#include "sheet/textio.h"
#include "store/bytes.h"
#include "store/checksum.h"

namespace taco {
namespace {

constexpr std::string_view kMagic = "TSNP";
// Version 2 added a graph-backend string to the meta section. Every
// session now runs on TACO, so writers leave it empty and readers skip
// it; version-1 files, which lack it, still load.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinReadVersion = 1;

// Section ids, in required file order.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionStrings = 2;
constexpr uint32_t kSectionFormulas = 3;
constexpr uint32_t kSectionCells = 4;
constexpr uint32_t kSectionCount = 4;

// Cell record tags.
constexpr uint8_t kTagNumber = 0;
constexpr uint8_t kTagText = 1;
constexpr uint8_t kTagBoolean = 2;
constexpr uint8_t kTagFormula = 3;

Status Corrupt(std::string_view detail) {
  return Status::DataLoss("binary snapshot: " + std::string(detail));
}

// ---------------------------------------------------------------------------
// AST codec. Formula cells persist a compiled expression tree so loading
// skips the lexer and parser entirely — the dominant cost of text loads
// (see bench_storage).
//
// References are encoded HOST-RELATIVE: a coordinate without a '$'
// marker is stored as its offset from the formula's own cell, a '$'
// coordinate is stored absolutely — exactly the shift rule autofill
// applies. The paper's core observation (tabular locality: regions of
// autofilled formulas whose references shift in lockstep) then collapses
// an entire autofill region to ONE byte-identical AST entry, which is
// what makes the snapshot compact on formula-heavy sheets.
// ---------------------------------------------------------------------------

void EncodeExpr(const Expr& expr, const Cell& host, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(expr.kind));
  switch (expr.kind) {
    case ExprKind::kNumber:
      w->F64(static_cast<const NumberExpr&>(expr).value);
      return;
    case ExprKind::kString:
      w->VarStr(static_cast<const StringExpr&>(expr).value);
      return;
    case ExprKind::kBoolean:
      w->U8(static_cast<const BooleanExpr&>(expr).value ? 1 : 0);
      return;
    case ExprKind::kReference: {
      const A1Reference& ref = static_cast<const ReferenceExpr&>(expr).ref;
      uint8_t flags = 0;
      if (ref.head_flags.abs_col) flags |= 1u << 0;
      if (ref.head_flags.abs_row) flags |= 1u << 1;
      if (ref.tail_flags.abs_col) flags |= 1u << 2;
      if (ref.tail_flags.abs_row) flags |= 1u << 3;
      if (ref.is_single_cell) flags |= 1u << 4;
      w->U8(flags);
      const Range& r = ref.range;
      w->VarI32(ref.head_flags.abs_col ? r.head.col : r.head.col - host.col);
      w->VarI32(ref.head_flags.abs_row ? r.head.row : r.head.row - host.row);
      if (!ref.is_single_cell) {
        w->VarI32(ref.tail_flags.abs_col ? r.tail.col
                                         : r.tail.col - host.col);
        w->VarI32(ref.tail_flags.abs_row ? r.tail.row
                                         : r.tail.row - host.row);
      }
      return;
    }
    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      w->U8(static_cast<uint8_t>(unary.op));
      EncodeExpr(*unary.operand, host, w);
      return;
    }
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      w->U8(static_cast<uint8_t>(binary.op));
      EncodeExpr(*binary.lhs, host, w);
      EncodeExpr(*binary.rhs, host, w);
      return;
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(expr);
      w->VarStr(call.name);
      w->VarU32(static_cast<uint32_t>(call.args.size()));
      for (const ExprPtr& arg : call.args) EncodeExpr(*arg, host, w);
      return;
    }
  }
}

/// True when the encoding of `expr` is the same for every host — all
/// reference coordinates carry '$' (or there are no references at all).
/// Cells sharing a host-invariant entry share one decoded AST.
bool HostInvariant(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kNumber:
    case ExprKind::kString:
    case ExprKind::kBoolean:
      return true;
    case ExprKind::kReference: {
      const A1Reference& ref = static_cast<const ReferenceExpr&>(expr).ref;
      if (!ref.head_flags.abs_col || !ref.head_flags.abs_row) return false;
      return ref.is_single_cell ||
             (ref.tail_flags.abs_col && ref.tail_flags.abs_row);
    }
    case ExprKind::kUnary:
      return HostInvariant(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      return HostInvariant(*binary.lhs) && HostInvariant(*binary.rhs);
    }
    case ExprKind::kCall: {
      for (const ExprPtr& arg : static_cast<const CallExpr&>(expr).args) {
        if (!HostInvariant(*arg)) return false;
      }
      return true;
    }
  }
  return false;
}

// `depth` counts the operator and call nodes above this one. Each wraps
// its operands one level deeper, the parser's measure (formula/parser.h):
// every formula the parser accepts reloads, and a hostile-but-CRC-valid
// AST cannot nest deep enough to overflow the stack.
Result<ExprPtr> DecodeExpr(ByteReader* r, const Cell& host, int depth) {
  uint8_t kind_byte;
  if (!r->U8(&kind_byte)) return Corrupt("truncated formula AST");
  const auto kind = static_cast<ExprKind>(kind_byte);
  if ((kind == ExprKind::kUnary || kind == ExprKind::kBinary ||
       kind == ExprKind::kCall) &&
      depth >= kMaxFormulaDepth) {
    return Corrupt("formula AST nests too deeply");
  }
  switch (kind) {
    case ExprKind::kNumber: {
      double value;
      if (!r->F64(&value)) return Corrupt("truncated number literal");
      return ExprPtr(std::make_unique<NumberExpr>(value));
    }
    case ExprKind::kString: {
      std::string_view value;
      if (!r->VarStr(&value)) return Corrupt("truncated string literal");
      return ExprPtr(std::make_unique<StringExpr>(std::string(value)));
    }
    case ExprKind::kBoolean: {
      uint8_t value;
      if (!r->U8(&value)) return Corrupt("truncated boolean literal");
      return ExprPtr(std::make_unique<BooleanExpr>(value != 0));
    }
    case ExprKind::kReference: {
      A1Reference ref;
      uint8_t flags;
      int32_t a, b;
      if (!r->U8(&flags) || !r->VarI32(&a) || !r->VarI32(&b)) {
        return Corrupt("truncated reference");
      }
      ref.head_flags.abs_col = (flags & (1u << 0)) != 0;
      ref.head_flags.abs_row = (flags & (1u << 1)) != 0;
      ref.tail_flags.abs_col = (flags & (1u << 2)) != 0;
      ref.tail_flags.abs_row = (flags & (1u << 3)) != 0;
      ref.is_single_cell = (flags & (1u << 4)) != 0;
      ref.range.head.col = ref.head_flags.abs_col ? a : a + host.col;
      ref.range.head.row = ref.head_flags.abs_row ? b : b + host.row;
      if (ref.is_single_cell) {
        ref.range.tail = ref.range.head;
        ref.tail_flags = ref.head_flags;
      } else {
        int32_t c, d;
        if (!r->VarI32(&c) || !r->VarI32(&d)) {
          return Corrupt("truncated reference tail");
        }
        ref.range.tail.col = ref.tail_flags.abs_col ? c : c + host.col;
        ref.range.tail.row = ref.tail_flags.abs_row ? d : d + host.row;
      }
      return ExprPtr(std::make_unique<ReferenceExpr>(std::move(ref)));
    }
    case ExprKind::kUnary: {
      uint8_t op;
      if (!r->U8(&op) || op > static_cast<uint8_t>(UnaryOp::kPercent)) {
        return Corrupt("bad unary operator");
      }
      auto operand = DecodeExpr(r, host, depth + 1);
      if (!operand.ok()) return operand.status();
      return ExprPtr(std::make_unique<UnaryExpr>(static_cast<UnaryOp>(op),
                                                 std::move(*operand)));
    }
    case ExprKind::kBinary: {
      uint8_t op;
      if (!r->U8(&op) || op > static_cast<uint8_t>(BinaryOp::kGe)) {
        return Corrupt("bad binary operator");
      }
      auto lhs = DecodeExpr(r, host, depth + 1);
      if (!lhs.ok()) return lhs.status();
      auto rhs = DecodeExpr(r, host, depth + 1);
      if (!rhs.ok()) return rhs.status();
      return ExprPtr(std::make_unique<BinaryExpr>(
          static_cast<BinaryOp>(op), std::move(*lhs), std::move(*rhs)));
    }
    case ExprKind::kCall: {
      std::string_view name;
      uint32_t argc;
      if (!r->VarStr(&name) || !r->VarU32(&argc)) {
        return Corrupt("truncated call");
      }
      // Each argument needs at least one kind byte.
      if (argc > r->remaining()) return Corrupt("bad call arity");
      std::vector<ExprPtr> args;
      args.reserve(argc);
      for (uint32_t i = 0; i < argc; ++i) {
        auto arg = DecodeExpr(r, host, depth + 1);
        if (!arg.ok()) return arg.status();
        args.push_back(std::move(*arg));
      }
      return ExprPtr(
          std::make_unique<CallExpr>(std::string(name), std::move(args)));
    }
  }
  return Corrupt("unknown AST node kind");
}

void AppendSection(uint32_t id, const std::string& payload,
                   std::string* out) {
  ByteWriter w(out);
  w.U32(id);
  w.U64(payload.size());
  w.U32(Crc32(payload));
  w.Raw(payload);
}

}  // namespace

bool LooksLikeBinarySnapshot(std::string_view data) {
  return data.substr(0, kMagic.size()) == kMagic;
}

std::string WriteSheetBinary(const Sheet& sheet) {
  // One pass to intern strings (text values AND distinct formula texts)
  // and distinct host-relative ASTs, collecting the cell records in
  // column-major order as we go. Cells are delta-encoded against the
  // previous cell (column-major order makes the common delta "same
  // column, next row" — two varint bytes). Because AST references are
  // host-relative, every formula of an autofill region produces
  // byte-identical AST bytes and the whole region shares ONE table
  // entry; only the (short) per-formula canonical texts stay distinct.
  std::unordered_map<std::string_view, uint32_t> string_ids;
  std::vector<std::string_view> strings;
  auto intern = [&](std::string_view s) -> uint32_t {
    auto [it, inserted] =
        string_ids.emplace(s, static_cast<uint32_t>(strings.size()));
    if (inserted) strings.push_back(s);
    return it->second;
  };

  // Dedup by the encoded relative bytes themselves; entries are owned by
  // `formula_blobs` (the map keys view into it via stable strings).
  std::unordered_map<std::string, uint32_t> formula_ids;
  std::vector<const std::string*> formula_blobs;
  std::vector<bool> formula_invariant;

  std::string cells_payload;
  ByteWriter cells(&cells_payload);
  uint64_t cell_count = 0;
  uint64_t formula_cells = 0;
  Cell prev{0, 0};

  sheet.ForEachCellColumnMajor([&](const Cell& cell,
                                   const CellContent& content) {
    ++cell_count;
    cells.VarI32(cell.col - prev.col);
    cells.VarI32(cell.row - prev.row);
    prev = cell;
    if (content.IsNumber()) {
      cells.U8(kTagNumber);
      cells.F64(content.number());
    } else if (content.IsText()) {
      cells.U8(kTagText);
      cells.VarU32(intern(content.text()));
    } else if (content.IsBoolean()) {
      cells.U8(kTagBoolean);
      cells.U8(content.boolean() ? 1 : 0);
    } else {
      const FormulaCell& formula = content.formula();
      ++formula_cells;
      std::string ast_bytes;
      ByteWriter ast(&ast_bytes);
      EncodeExpr(*formula.ast, cell, &ast);
      auto [it, inserted] = formula_ids.emplace(
          std::move(ast_bytes), static_cast<uint32_t>(formula_blobs.size()));
      if (inserted) {
        formula_blobs.push_back(&it->first);
        formula_invariant.push_back(HostInvariant(*formula.ast));
      }
      cells.U8(kTagFormula);
      cells.VarU32(intern(formula.text));
      cells.VarU32(it->second);
    }
  });

  std::string formulas_payload;
  ByteWriter formulas(&formulas_payload);
  for (size_t i = 0; i < formula_blobs.size(); ++i) {
    formulas.U8(formula_invariant[i] ? 1 : 0);
    formulas.VarStr(*formula_blobs[i]);
  }
  uint32_t formula_entries = static_cast<uint32_t>(formula_blobs.size());

  std::string meta_payload;
  ByteWriter meta(&meta_payload);
  meta.Str(sheet.name());
  meta.U64(cell_count);
  meta.U64(formula_cells);
  meta.Str("");  // Since version 2: the unused backend slot.

  std::string strings_payload;
  ByteWriter strtab(&strings_payload);
  strtab.U32(static_cast<uint32_t>(strings.size()));
  for (std::string_view s : strings) strtab.VarStr(s);
  // The interned views alias CellContent storage inside `sheet`, which
  // outlives this function; nothing dangles.

  // Prepend the formula entry count so the reader can pre-size.
  std::string formulas_full;
  {
    ByteWriter w(&formulas_full);
    w.U32(formula_entries);
    w.Raw(formulas_payload);
  }

  std::string out;
  out.reserve(16 + meta_payload.size() + strings_payload.size() +
              formulas_full.size() + cells_payload.size() + 64);
  ByteWriter header(&out);
  header.Raw(kMagic);
  header.U32(kVersion);
  header.U32(kSectionCount);
  header.U32(Crc32(out));  // CRC over magic + version + section count.
  AppendSection(kSectionMeta, meta_payload, &out);
  AppendSection(kSectionStrings, strings_payload, &out);
  AppendSection(kSectionFormulas, formulas_full, &out);
  AppendSection(kSectionCells, cells_payload, &out);
  return out;
}

Result<Sheet> ReadSheetBinary(std::string_view data) {
  // Header: magic, version, section count, CRC over those 12 bytes.
  if (data.size() < 16) {
    if (!LooksLikeBinarySnapshot(data)) {
      return Status::ParseError("not a binary snapshot (bad magic)");
    }
    return Corrupt("truncated header");
  }
  if (!LooksLikeBinarySnapshot(data)) {
    return Status::ParseError("not a binary snapshot (bad magic)");
  }
  ByteReader header(data.substr(4, 12));
  uint32_t version = 0, section_count = 0, header_crc = 0;
  header.U32(&version);
  header.U32(&section_count);
  header.U32(&header_crc);
  if (Crc32(data.substr(0, 12)) != header_crc) {
    return Corrupt("header CRC mismatch");
  }
  if (version < kMinReadVersion || version > kVersion) {
    return Status::Unsupported("binary snapshot version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kMinReadVersion) + ".." +
                               std::to_string(kVersion) + ")");
  }
  if (section_count != kSectionCount) {
    return Corrupt("unexpected section count");
  }

  // Frame the sections against the real file size.
  std::string_view payloads[kSectionCount + 1];
  size_t pos = 16;
  for (uint32_t expected_id = 1; expected_id <= kSectionCount; ++expected_id) {
    if (pos + 16 > data.size()) return Corrupt("truncated section header");
    ByteReader section(data.substr(pos, 16));
    uint32_t id = 0, crc = 0;
    uint64_t len = 0;
    section.U32(&id);
    section.U64(&len);
    section.U32(&crc);
    pos += 16;
    if (id != expected_id) return Corrupt("sections out of order");
    if (len > data.size() - pos) return Corrupt("section extends past EOF");
    std::string_view payload = data.substr(pos, len);
    if (Crc32(payload) != crc) {
      return Corrupt("section " + std::to_string(id) + " CRC mismatch");
    }
    payloads[id] = payload;
    pos += len;
  }
  if (pos != data.size()) return Corrupt("trailing bytes after sections");

  // meta.
  ByteReader meta(payloads[kSectionMeta]);
  std::string_view name;
  uint64_t cell_count, formula_cells;
  if (!meta.Str(&name) || !meta.U64(&cell_count) ||
      !meta.U64(&formula_cells)) {
    return Corrupt("malformed meta section");
  }
  std::string_view unused_backend;
  if (version >= 2 && !meta.Str(&unused_backend)) {
    return Corrupt("malformed meta section");
  }
  if (!meta.AtEnd()) return Corrupt("malformed meta section");

  // strtab.
  ByteReader strtab(payloads[kSectionStrings]);
  uint32_t string_count;
  if (!strtab.U32(&string_count)) return Corrupt("malformed string table");
  if (string_count > strtab.remaining()) {
    return Corrupt("string table count exceeds section");
  }
  std::vector<std::string_view> strings;
  strings.reserve(string_count);
  for (uint32_t i = 0; i < string_count; ++i) {
    std::string_view s;
    if (!strtab.VarStr(&s)) return Corrupt("truncated string table entry");
    strings.push_back(s);
  }
  if (!strtab.AtEnd()) return Corrupt("trailing bytes in string table");

  // formulas: the table holds host-relative AST bytes; each formula cell
  // decodes against its own position (no parser involved), and
  // host-invariant entries (all-'$' references, plain constants) decode
  // once and share one tree across their cells.
  ByteReader ftab(payloads[kSectionFormulas]);
  uint32_t formula_entries;
  if (!ftab.U32(&formula_entries)) return Corrupt("malformed formula table");
  if (formula_entries > ftab.remaining()) {
    return Corrupt("formula table count exceeds section");
  }
  struct FormulaEntry {
    std::string_view bytes;
    bool invariant = false;
    std::shared_ptr<const Expr> cached;  ///< Lazy, invariant entries only.
  };
  std::vector<FormulaEntry> formulas;
  formulas.reserve(formula_entries);
  for (uint32_t i = 0; i < formula_entries; ++i) {
    FormulaEntry entry;
    uint8_t invariant;
    if (!ftab.U8(&invariant) || !ftab.VarStr(&entry.bytes)) {
      return Corrupt("truncated formula entry");
    }
    entry.invariant = invariant != 0;
    formulas.push_back(std::move(entry));
  }
  if (!ftab.AtEnd()) return Corrupt("trailing bytes in formula table");

  // cells: delta-decoded in the writer's column-major order, adopted
  // through the bulk-load path (the map is pre-sized; no per-cell
  // replace bookkeeping; duplicates are corruption).
  Sheet sheet;
  sheet.set_name(std::string(name));
  if (cell_count > payloads[kSectionCells].size()) {
    return Corrupt("cell count exceeds section");  // >= 3 bytes per cell.
  }
  sheet.Reserve(cell_count);
  ByteReader cells(payloads[kSectionCells]);
  Cell prev{0, 0};
  for (uint64_t i = 0; i < cell_count; ++i) {
    int32_t dcol, drow;
    uint8_t tag;
    if (!cells.VarI32(&dcol) || !cells.VarI32(&drow) || !cells.U8(&tag)) {
      return Corrupt("truncated cell record");
    }
    Cell cell{prev.col + dcol, prev.row + drow};
    prev = cell;
    Status applied = Status::OK();
    switch (tag) {
      case kTagNumber: {
        double value;
        if (!cells.F64(&value)) return Corrupt("truncated number cell");
        applied = sheet.AdoptCell(cell, CellContent(value));
        break;
      }
      case kTagText: {
        uint32_t id;
        if (!cells.VarU32(&id)) return Corrupt("truncated text cell");
        if (id >= strings.size()) return Corrupt("text cell id range");
        applied = sheet.AdoptCell(cell, CellContent(std::string(strings[id])));
        break;
      }
      case kTagBoolean: {
        uint8_t value;
        if (!cells.U8(&value)) return Corrupt("truncated boolean cell");
        applied = sheet.AdoptCell(cell, CellContent(value != 0));
        break;
      }
      case kTagFormula: {
        uint32_t text_id, ast_id;
        if (!cells.VarU32(&text_id) || !cells.VarU32(&ast_id)) {
          return Corrupt("truncated formula cell");
        }
        if (text_id >= strings.size()) return Corrupt("formula text range");
        if (ast_id >= formulas.size()) return Corrupt("formula cell range");
        FormulaEntry& entry = formulas[ast_id];
        FormulaCell formula;
        formula.text = std::string(strings[text_id]);
        if (entry.invariant && entry.cached != nullptr) {
          formula.ast = entry.cached;
        } else {
          ByteReader ast_reader(entry.bytes);
          auto ast = DecodeExpr(&ast_reader, cell, 0);
          if (!ast.ok()) return ast.status();
          if (!ast_reader.AtEnd()) {
            return Corrupt("trailing bytes in formula AST");
          }
          formula.ast = std::shared_ptr<const Expr>(std::move(*ast));
          if (entry.invariant) entry.cached = formula.ast;
        }
        applied = sheet.AdoptCell(cell, CellContent(std::move(formula)));
        break;
      }
      default:
        return Corrupt("unknown cell tag");
    }
    if (!applied.ok()) return applied;
  }
  if (!cells.AtEnd()) return Corrupt("trailing bytes in cell section");
  if (sheet.cell_count() != cell_count ||
      sheet.formula_cell_count() != formula_cells) {
    return Corrupt("cell counts disagree with meta");
  }
  return sheet;
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  // Unique temp per writer (same discipline as SaveSheetFile), plus an
  // fsync before the rename: after this function returns OK the bytes
  // are on disk under `path`, and a crash at any point leaves either the
  // old file or the new one.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid()) +
                               "." +
                               std::to_string(counter.fetch_add(1));
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp_path +
                           "': " + std::strerror(errno));
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
  // Directory sync so the rename itself is durable. Propagated like the
  // file fsync above: returning OK on a failed dir sync would promise a
  // durability the disk never delivered (the renamed entry could vanish
  // in a crash, resurfacing the old file).
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

Result<std::string> ReadFileLimited(const std::string& path,
                                    uint64_t max_bytes) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("stat '" + path + "': " + std::strerror(err));
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size > max_bytes) {
    ::close(fd);
    return Status::DataLoss("'" + path + "' is " + std::to_string(size) +
                            " bytes, over the load limit of " +
                            std::to_string(max_bytes));
  }
  std::string data;
  data.resize(size);
  size_t read_total = 0;
  while (read_total < size) {
    ssize_t n = ::read(fd, data.data() + read_total, size - read_total);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IoError("failed reading '" + path +
                             "': " + std::strerror(err));
    }
    if (n == 0) break;  // Shrunk underneath us; keep what we got.
    read_total += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(read_total);
  return data;
}

Status SaveSheetBinaryFile(const Sheet& sheet, const std::string& path) {
  return WriteFileAtomic(path, WriteSheetBinary(sheet));
}

Result<Sheet> LoadSnapshotFile(const std::string& path, uint64_t max_bytes) {
  auto data = ReadFileLimited(path, max_bytes);
  if (!data.ok()) return data.status();
  auto sheet = LooksLikeBinarySnapshot(*data) ? ReadSheetBinary(*data)
                                              : ReadSheetText(*data);
  if (!sheet.ok()) return sheet;
  sheet->set_name(std::filesystem::path(path).stem().string());
  return sheet;
}

}  // namespace taco
