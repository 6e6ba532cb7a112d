// Plain-text spreadsheet serialization (.tsheet).
//
// Stands in for the xls/xlsx ingestion path of the paper's prototype
// (which used Apache POI): corpora generated by src/corpus are written to
// disk in this format and loaded back through the same parser the rest of
// the system uses, exercising the full file -> formulas -> dependencies
// pipeline.
//
// Format: one cell per line, written column-major.
//   # comment / blank lines ignored
//   A1 = 42.5
//   A2 = "label"
//   A3 = TRUE
//   B1 = =SUM(A1:A3)
// The token after '=' decides the type: a leading '=' marks a formula,
// quotes a string, TRUE/FALSE a boolean, anything else must parse as a
// number.

#ifndef TACO_SHEET_TEXTIO_H_
#define TACO_SHEET_TEXTIO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.h"
#include "sheet/sheet.h"

namespace taco {

/// Serializes `sheet` in .tsheet format (column-major, deterministic).
std::string WriteSheetText(const Sheet& sheet);

/// Parses .tsheet text into a Sheet. Fails with ParseError on the first
/// malformed line (the message includes the 1-based line number).
Result<Sheet> ReadSheetText(std::string_view text);

/// Writes `sheet` to `path` in .tsheet format.
Status SaveSheetFile(const Sheet& sheet, const std::string& path);

/// Default refusal threshold for LoadSheetFile: finite, so a runaway or
/// hostile file can never drive an unbounded read (the service's loader,
/// LoadSnapshotFile, applies the same bound).
inline constexpr uint64_t kMaxSheetFileBytes = 512ull << 20;

/// Loads a .tsheet file. The sheet's name is set to the file stem.
/// Files larger than `max_bytes` fail with DataLoss instead of being
/// read; malformed content fails with ParseError.
Result<Sheet> LoadSheetFile(const std::string& path,
                            uint64_t max_bytes = kMaxSheetFileBytes);

}  // namespace taco

#endif  // TACO_SHEET_TEXTIO_H_
