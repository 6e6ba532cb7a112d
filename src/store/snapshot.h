// Compact binary sheet snapshots (.tsnap): the one durable session
// format. Every SAVE, CHECKPOINT and eviction writes one; LoadSnapshotFile
// also reads .tsheet text, which stays an import/export format.
//
// The text format (.tsheet, sheet/textio.h) is human-inspectable but slow
// to load: every line re-runs the A1 parser, the number scanner, and — for
// formula cells — the full formula parser. The binary snapshot trades
// inspectability for cold-load speed and size:
//
//   header   magic "TSNP", version, section count, header CRC
//   sections length-prefixed, each with its own CRC32:
//     meta      sheet name + cell/formula counts (cross-checked on load),
//               then (version 2) a graph-backend string, written empty
//     strtab    deduplicated strings (text-cell values and canonical
//               formula texts), varint length-prefixed
//     formulas  one compiled AST blob per distinct HOST-RELATIVE
//               formula: references without '$' are stored as offsets
//               from the formula's own cell (the autofill shift rule),
//               so an entire autofilled region — the paper's tabular
//               locality — shares ONE byte-identical entry. Loading
//               re-parses nothing; all-'$' entries even share one
//               decoded tree across their cells.
//     cells     column-major records, coordinates delta-encoded as
//               zigzag varints against the previous cell (the common
//               "next row, same column" step is one byte)
//
// Every byte of the file is covered by a CRC (the header by its own, each
// section payload by the section CRC, section framing by bounds checks
// against the file size), so any single-byte corruption fails the load
// with a status instead of producing a wrong sheet. Truncation at any
// offset is detected the same way and reported as DataLoss.

#ifndef TACO_STORE_SNAPSHOT_H_
#define TACO_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "sheet/sheet.h"

namespace taco {

/// Default refusal threshold for loading persisted artifacts. Generous —
/// real workbooks are far smaller — but finite, so a hostile or corrupt
/// length field can never drive an unbounded allocation.
inline constexpr uint64_t kDefaultMaxSnapshotBytes = 512ull << 20;

/// Serializes `sheet` into the binary snapshot format (version 2). The
/// meta section's graph-backend slot is always written empty: every
/// session runs on TACO, and the slot stays so the version-2 layout does.
std::string WriteSheetBinary(const Sheet& sheet);

/// Parses a binary snapshot (versions 1 and 2). Fails with ParseError
/// when `data` is not a binary snapshot at all (bad magic), Unsupported
/// for a future version, and DataLoss for truncation or CRC mismatch.
/// A version-2 backend slot is read past and ignored: every session
/// runs on TACO, whatever the file recorded.
Result<Sheet> ReadSheetBinary(std::string_view data);

/// True when `data` starts with the binary snapshot magic (the format
/// sniff of LoadSnapshotFile; a positive sniff does not imply validity).
bool LooksLikeBinarySnapshot(std::string_view data);

/// Writes a binary snapshot via WriteFileAtomic (temp + fsync +
/// rename), so a crash leaves either the old file or the new one, never
/// a torn mix. Every session save goes through here.
Status SaveSheetBinaryFile(const Sheet& sheet, const std::string& path);

/// The one session loader: a single bounded read of `path` (files over
/// `max_bytes` fail with DataLoss), then a binary snapshot parse when
/// the bytes start with the magic and a .tsheet text parse otherwise.
/// The sheet is named after the file stem.
Result<Sheet> LoadSnapshotFile(const std::string& path,
                               uint64_t max_bytes = kDefaultMaxSnapshotBytes);

/// Shared helper for the storage layer: writes `data` to `path` via a
/// unique temp file + rename, fsyncing the file (and best-effort the
/// directory) before the rename so the bytes are durable when it returns.
Status WriteFileAtomic(const std::string& path, std::string_view data);

/// Reads a whole file, refusing files larger than `max_bytes` with
/// DataLoss (the configurable guard against unbounded reads).
Result<std::string> ReadFileLimited(const std::string& path,
                                    uint64_t max_bytes);

}  // namespace taco

#endif  // TACO_STORE_SNAPSHOT_H_
