// Storage-layer unit tests: the binary snapshot codec (round trips,
// corruption detection), the one session loader (format sniffing, text
// vs binary differential equivalence, load-size guards), and the
// write-ahead log (append /
// replay, rotation, torn-tail truncation at EVERY byte offset, interior
// corruption rejection).
//
// The randomized suites scale with TACO_FUZZ_TRIALS like the other fuzz
// tests (100 = tier-1 defaults).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "formula/parser.h"
#include "graph_test_util.h"
#include "sheet/textio.h"
#include "store/bytes.h"
#include "store/checksum.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace taco {
namespace {

using test::FuzzTrials;

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid())))
      .string();
}

void WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

/// Canonical textual form — the byte-level sheet comparator: two sheets
/// are equal iff their deterministic text serializations are.
std::string Canon(const Sheet& sheet) { return WriteSheetText(sheet); }

Sheet DemoSheet() {
  Sheet sheet;
  sheet.set_name("demo");
  EXPECT_TRUE(sheet.SetNumber(Cell{1, 1}, 42.5).ok());
  EXPECT_TRUE(sheet.SetNumber(Cell{1, 2}, -0.125).ok());
  EXPECT_TRUE(sheet.SetText(Cell{2, 1}, "hello \"quoted\" world").ok());
  EXPECT_TRUE(sheet.SetText(Cell{2, 2}, "hello \"quoted\" world").ok());
  EXPECT_TRUE(sheet.SetBoolean(Cell{3, 1}, true).ok());
  EXPECT_TRUE(sheet.SetBoolean(Cell{3, 2}, false).ok());
  EXPECT_TRUE(sheet.SetFormula(Cell{4, 1}, "SUM(A1:A2)*2").ok());
  EXPECT_TRUE(sheet.SetFormula(Cell{4, 2}, "SUM(A1:A2)*2").ok());
  EXPECT_TRUE(
      sheet.SetFormula(Cell{4, 3}, "IF(C1, $A$1, CONCAT(B1, \"x\"))").ok());
  EXPECT_TRUE(sheet.SetFormula(Cell{4, 4}, "-D1%+MAX(A1:B2)^2").ok());
  return sheet;
}

// ---------------------------------------------------------------------------
// Binary snapshot codec
// ---------------------------------------------------------------------------

TEST(BinarySnapshotTest, RoundTripsEveryContentKind) {
  Sheet sheet = DemoSheet();
  std::string blob = WriteSheetBinary(sheet);
  EXPECT_TRUE(LooksLikeBinarySnapshot(blob));
  auto loaded = ReadSheetBinary(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Canon(*loaded), Canon(sheet));
  EXPECT_EQ(loaded->name(), "demo");
  EXPECT_EQ(loaded->formula_cell_count(), sheet.formula_cell_count());
}

TEST(BinarySnapshotTest, RoundTripsTheEmptySheet) {
  Sheet empty;
  auto loaded = ReadSheetBinary(WriteSheetBinary(empty));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->cell_count(), 0u);
}

TEST(BinarySnapshotTest, HandlesTextTheLineFormatCannot) {
  // Newlines and '#' openers would corrupt the .tsheet line format; the
  // binary format is length-prefixed and doesn't care.
  Sheet sheet;
  ASSERT_TRUE(sheet.SetText(Cell{1, 1}, "line one\nline two").ok());
  ASSERT_TRUE(sheet.SetText(Cell{1, 2}, "# not a comment").ok());
  auto loaded = ReadSheetBinary(WriteSheetBinary(sheet));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Get(Cell{1, 1})->text(), "line one\nline two");
  EXPECT_EQ(loaded->Get(Cell{1, 2})->text(), "# not a comment");
}

TEST(BinarySnapshotTest, SharedFormulasShareOneDecodedAst) {
  Sheet sheet;
  for (int r = 1; r <= 8; ++r) {
    ASSERT_TRUE(sheet.SetFormula(Cell{1, r}, "$A$10*2").ok());
  }
  auto loaded = ReadSheetBinary(WriteSheetBinary(sheet));
  ASSERT_TRUE(loaded.ok());
  const Expr* first = loaded->Get(Cell{1, 1})->formula().ast.get();
  for (int r = 2; r <= 8; ++r) {
    EXPECT_EQ(loaded->Get(Cell{1, r})->formula().ast.get(), first)
        << "identical formula texts should share one AST";
  }
}

TEST(BinarySnapshotTest, FormulasAtTheParserDepthBoundRoundTrip) {
  // Anything the parser accepts must reload: a session saving such a
  // formula would otherwise write a snapshot it cannot recover from.
  for (const test::DeepFormulaShape& shape : test::kDeepFormulaShapes) {
    SCOPED_TRACE(shape.name);
    Sheet sheet;
    ASSERT_TRUE(sheet.SetFormula(Cell{1, 1}, shape.build(kMaxFormulaDepth)).ok());
    auto loaded = ReadSheetBinary(WriteSheetBinary(sheet));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(Canon(*loaded), Canon(sheet));
  }

  // One level deeper only a crafted AST can reach; decoding refuses it.
  ExprPtr deep = std::make_unique<NumberExpr>(1.0);
  for (int i = 0; i <= kMaxFormulaDepth; ++i) {
    deep = std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(deep));
  }
  Sheet sheet;
  ASSERT_TRUE(sheet
                  .SetFormulaCell(Cell{1, 1},
                                  FormulaCell{std::string(kMaxFormulaDepth + 1,
                                                          '-') + "1",
                                              std::move(deep)})
                  .ok());
  auto loaded = ReadSheetBinary(WriteSheetBinary(sheet));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("nests too deeply"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(BinarySnapshotTest, RejectsForeignAndTruncatedInput) {
  EXPECT_EQ(ReadSheetBinary("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ReadSheetBinary("# tsheet v1\nA1 = 1\n").status().code(),
            StatusCode::kParseError);
  std::string blob = WriteSheetBinary(DemoSheet());
  // Truncation at every prefix length must fail cleanly — never crash,
  // never return a sheet.
  for (size_t len = 0; len < blob.size(); ++len) {
    auto result = ReadSheetBinary(std::string_view(blob).substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes loaded";
  }
}

TEST(BinarySnapshotTest, EverySingleByteCorruptionIsCaught) {
  std::string blob = WriteSheetBinary(DemoSheet());
  const std::string canon = Canon(DemoSheet());
  // Exhaustive over offsets, one deterministic bit flip each: whatever
  // byte is hit (magic, length field, CRC, payload), the load must fail
  // with a status — wrong data must never come back.
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string corrupt = blob;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x41);
    auto result = ReadSheetBinary(corrupt);
    ASSERT_FALSE(result.ok()) << "corruption at byte " << i << " loaded";
  }
}

TEST(BinarySnapshotTest, FuzzRoundTripAndCorruption) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int trial = 0, n = FuzzTrials(30); trial < n; ++trial) {
    // Random sparse sheet mixing every content kind, with formula reuse.
    Sheet sheet;
    std::uniform_int_distribution<int> coord(1, 40);
    std::uniform_int_distribution<int> kind(0, 4);
    int cells = 1 + static_cast<int>(rng() % 120);
    for (int i = 0; i < cells; ++i) {
      Cell cell{coord(rng), coord(rng)};
      switch (kind(rng)) {
        case 0:
          ASSERT_TRUE(
              sheet.SetNumber(cell, std::ldexp(double(rng() % 4096) - 2048,
                                               int(rng() % 24) - 12))
                  .ok());
          break;
        case 1: {
          std::string text;
          for (int c = 0, len = int(rng() % 12); c < len; ++c) {
            text.push_back(static_cast<char>('!' + rng() % 94));
          }
          ASSERT_TRUE(sheet.SetText(cell, text).ok());
          break;
        }
        case 2:
          ASSERT_TRUE(sheet.SetBoolean(cell, rng() % 2 == 0).ok());
          break;
        case 3:
          ASSERT_TRUE(sheet
                          .SetFormula(cell, "SUM(A1:B" +
                                                std::to_string(1 + rng() % 20) +
                                                ")+" +
                                                std::to_string(rng() % 100))
                          .ok());
          break;
        default:
          ASSERT_TRUE(sheet
                          .SetFormula(cell, "$A$" +
                                                std::to_string(1 + rng() % 20) +
                                                "*2")
                          .ok());
          break;
      }
    }
    std::string blob = WriteSheetBinary(sheet);
    auto loaded = ReadSheetBinary(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(Canon(*loaded), Canon(sheet)) << "trial " << trial;

    // One random single-byte corruption: must fail with a status.
    std::string corrupt = blob;
    size_t at = rng() % corrupt.size();
    unsigned char delta = 1 + static_cast<unsigned char>(rng() % 255);
    corrupt[at] = static_cast<char>(corrupt[at] ^ delta);
    auto bad = ReadSheetBinary(corrupt);
    ASSERT_FALSE(bad.ok()) << "trial " << trial << ": flip of byte " << at
                           << " by 0x" << std::hex << int(delta)
                           << " still loaded";
  }
}

TEST(BinarySnapshotTest, VersionOneFilesStillRead) {
  // Version 1 predates the backend slot: its meta section ends after
  // the formula-cell count. Synthesize one by surgery on a v2 blob (whose
  // slot is always empty) — drop the trailing empty string (a lone u32
  // zero length prefix) from the meta payload, patch the version, and
  // recompute both CRCs. The reader must accept it.
  Sheet sheet = DemoSheet();
  std::string blob = WriteSheetBinary(sheet);

  auto put_u32 = [&](size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      blob[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
  };
  auto get_u64 = [&](size_t at) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= uint64_t(static_cast<unsigned char>(blob[at + i])) << (8 * i);
    }
    return v;
  };
  // Header: magic[0,4) version[4,8) sections[8,12) crc[12,16).
  put_u32(4, 1);
  put_u32(12, Crc32(std::string_view(blob).substr(0, 12)));
  // Meta section (id 1) header at 16: id[16,20) len[20,28) crc[28,32),
  // payload right after. Shrink it by the 4-byte empty-string suffix.
  uint64_t meta_len = get_u64(20);
  ASSERT_GE(meta_len, 4u);
  blob.erase(32 + size_t(meta_len) - 4, 4);
  put_u32(20, static_cast<uint32_t>(meta_len - 4));
  put_u32(24, 0);  // High half of the u64 length.
  put_u32(28, Crc32(std::string_view(blob).substr(32, meta_len - 4)));

  auto loaded = ReadSheetBinary(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Canon(*loaded), Canon(sheet));
}

// ---------------------------------------------------------------------------
// The session loader (LoadSnapshotFile)
// ---------------------------------------------------------------------------

TEST(SnapshotFileTest, TextAndBinaryFilesLoadToTheSameSheet) {
  // The same sheet written as .tsheet text and as a binary snapshot loads
  // back as the same sheet — the text format is the oracle for the
  // binary one.
  Sheet sheet = DemoSheet();
  std::string text_path = TempPath("storage_diff.tsheet");
  std::string binary_path = TempPath("storage_diff.tsnap");
  ASSERT_TRUE(WriteFileAtomic(text_path, WriteSheetText(sheet)).ok());
  ASSERT_TRUE(SaveSheetBinaryFile(sheet, binary_path).ok());

  auto from_text = LoadSnapshotFile(text_path);
  auto from_binary = LoadSnapshotFile(binary_path);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  // The loader names the sheet after the file stem.
  EXPECT_EQ(from_text->name(), std::filesystem::path(text_path).stem());
  EXPECT_EQ(from_binary->name(), std::filesystem::path(binary_path).stem());
  from_text->set_name(sheet.name());
  from_binary->set_name(sheet.name());
  EXPECT_EQ(Canon(*from_text), Canon(*from_binary));
  EXPECT_EQ(Canon(*from_text), Canon(sheet));

  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
}

TEST(SnapshotFileTest, CorruptBinaryFileIsDataLossNotATextParse) {
  // The sniff commits to the binary parser: a snapshot with a flipped
  // byte past the magic must fail as corruption, never fall through to
  // the text parser.
  std::string bytes = WriteSheetBinary(DemoSheet());
  bytes[bytes.size() / 2] ^= 0x5A;
  std::string path = TempPath("storage_corrupt.tsnap");
  WriteFile(path, bytes);
  auto result = LoadSnapshotFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, OversizedFilesOfEitherFormatAreRefused) {
  std::string text_path = TempPath("storage_oversize.tsheet");
  std::string binary_path = TempPath("storage_oversize.tsnap");
  ASSERT_TRUE(WriteFileAtomic(text_path, WriteSheetText(DemoSheet())).ok());
  ASSERT_TRUE(SaveSheetBinaryFile(DemoSheet(), binary_path).ok());
  for (const std::string& path : {text_path, binary_path}) {
    auto result = LoadSnapshotFile(path, /*max_bytes=*/16);
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << path;
    EXPECT_NE(result.status().message().find("over the load limit"),
              std::string::npos)
        << result.status().ToString();
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

EditBatch DemoEdits(int salt) {
  EditBatch edits;
  edits.push_back(Edit::SetNumber(Cell{1, salt % 50 + 1}, salt * 1.5));
  edits.push_back(Edit::SetText(Cell{2, 1}, "t" + std::to_string(salt)));
  edits.push_back(
      Edit::SetFormula(Cell{3, 1}, "A1+" + std::to_string(salt)));
  edits.push_back(Edit::ClearRange(Range(4, 1, 4, salt % 5 + 1)));
  return edits;
}

TEST(WalTest, AppendsReplayAndReportInOrder) {
  std::string path = TempPath("wal_roundtrip.wal");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr, nullptr,
                                   {"/snap/base.tsnap"});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(DemoEdits(i)).ok());
    }
    EXPECT_EQ((*wal)->appended_records(), 5u);
  }
  auto header = WriteAheadLog::PeekHeader(path);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->snapshot_path, "/snap/base.tsnap");

  std::vector<EditBatch> replayed;
  auto recovery = WriteAheadLog::Replay(path, [&](const EditBatch& batch) {
    replayed.push_back(batch);
    return Status::OK();
  });
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->records, 5u);
  EXPECT_EQ(recovery->edits, 20u);
  EXPECT_FALSE(recovery->torn_tail);
  EXPECT_EQ(recovery->header.snapshot_path, "/snap/base.tsnap");
  ASSERT_EQ(replayed.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const EditBatch& expect = DemoEdits(i);
    ASSERT_EQ(replayed[i].size(), expect.size());
    for (size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(replayed[i][j].kind, expect[j].kind);
      EXPECT_EQ(replayed[i][j].cell, expect[j].cell);
      EXPECT_EQ(replayed[i][j].range, expect[j].range);
      EXPECT_EQ(replayed[i][j].number, expect[j].number);
      EXPECT_EQ(replayed[i][j].text, expect[j].text);
    }
  }
  std::remove(path.c_str());
}

TEST(WalTest, ReopenContinuesAppending) {
  std::string path = TempPath("wal_reopen.wal");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(DemoEdits(1)).ok());
  }
  {
    WalRecovery recovery;
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr, &recovery);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(recovery.records, 1u);
    ASSERT_TRUE((*wal)->Append(DemoEdits(2)).ok());
  }
  auto recovery = WriteAheadLog::Replay(path, nullptr);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records, 2u);
  std::remove(path.c_str());
}

TEST(WalTest, RotateEmptiesTheLogAndRebindsTheSnapshot) {
  std::string path = TempPath("wal_rotate.wal");
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(DemoEdits(7)).ok());
  ASSERT_TRUE((*wal)->Rotate({"/snap/after.tsnap"}).ok());
  EXPECT_EQ((*wal)->appended_records(), 0u);
  // Appends continue against the NEW file.
  ASSERT_TRUE((*wal)->Append(DemoEdits(8)).ok());

  auto recovery = WriteAheadLog::Replay(path, nullptr);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->header.snapshot_path, "/snap/after.tsnap");
  EXPECT_EQ(recovery->records, 1u);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailTruncatesAtEveryOffsetInteriorStaysIntact) {
  // Build a log of 4 records, remembering where each record ends. Then
  // simulate a crash at EVERY byte offset: replay must recover exactly
  // the records wholly before the cut — silently — and an Open at that
  // cut must leave a log that keeps appending correctly.
  std::string path = TempPath("wal_torn.wal");
  std::remove(path.c_str());
  std::vector<uint64_t> record_end;
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->Append(DemoEdits(i)).ok());
      record_end.push_back((*wal)->bytes());
    }
  }
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  // Cuts start at the end of the header: appends are the only in-place
  // writes, so a real crash can only tear a record — the header is
  // written atomically via temp+rename. A header-only log of the same
  // (empty) snapshot path tells us where the records begin.
  uint64_t header_bytes = 0;
  {
    std::string probe_path = TempPath("wal_torn_probe.wal");
    std::remove(probe_path.c_str());
    auto probe = WriteAheadLog::Open(probe_path, WalOptions{});
    ASSERT_TRUE(probe.ok());
    header_bytes = (*probe)->bytes();
    std::remove(probe_path.c_str());
  }

  for (uint64_t cut = header_bytes; cut <= full.size(); ++cut) {
    WriteFile(path, std::string_view(full).substr(0, cut));
    uint64_t expect_records = 0;
    for (uint64_t end : record_end) {
      if (end <= cut) ++expect_records;
    }
    auto recovery = WriteAheadLog::Replay(path, nullptr);
    ASSERT_TRUE(recovery.ok())
        << "cut at " << cut << ": " << recovery.status().ToString();
    EXPECT_EQ(recovery->records, expect_records) << "cut at " << cut;
    bool at_boundary =
        cut == header_bytes ||
        (expect_records > 0 && cut == record_end[expect_records - 1]);
    EXPECT_EQ(recovery->torn_tail, !at_boundary) << "cut at " << cut;
  }

  // Open at a torn offset truncates, and the log keeps working.
  WriteFile(path, std::string_view(full).substr(0, record_end[1] + 3));
  {
    WalRecovery recovery;
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr, &recovery);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(recovery.records, 2u);
    EXPECT_TRUE(recovery.torn_tail);
    ASSERT_TRUE((*wal)->Append(DemoEdits(9)).ok());
  }
  auto after = WriteAheadLog::Replay(path, nullptr);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->records, 3u);
  EXPECT_FALSE(after->torn_tail);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailWithImplausibleLengthFieldIsStillTorn) {
  // A tail record extending past EOF is torn even when its length field
  // is absurd — classifying it as corruption would make the crash
  // permanently unrecoverable.
  std::string path = TempPath("wal_hugelen.wal");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(DemoEdits(0)).ok());
  }
  {
    // Hand-append a frame header claiming a 1 GB payload, then nothing.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    std::string frame;
    ByteWriter w(&frame);
    w.U32(1u << 30);
    w.U32(0xDEADBEEF);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  WalRecovery recovery;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr, &recovery);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(recovery.records, 1u);
  EXPECT_TRUE(recovery.torn_tail);
  std::remove(path.c_str());
}

TEST(WalTest, InteriorCorruptionIsRejectedNotReplayed) {
  std::string path = TempPath("wal_corrupt.wal");
  std::remove(path.c_str());
  uint64_t first_record_end = 0;
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(DemoEdits(0)).ok());
    first_record_end = (*wal)->bytes();
    ASSERT_TRUE((*wal)->Append(DemoEdits(1)).ok());
  }
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  // Flip a payload byte of record 1 (not the last record): DataLoss.
  std::string corrupt = full;
  corrupt[first_record_end - 2] =
      static_cast<char>(corrupt[first_record_end - 2] ^ 0x5A);
  WriteFile(path, corrupt);
  auto replay = WriteAheadLog::Replay(path, nullptr);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
  // Open refuses identically — it must not truncate valid interior data.
  auto opened = WriteAheadLog::Open(path, WalOptions{});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);

  // The SAME flip in the FINAL record is a torn overwrite: truncated.
  std::string torn = full;
  torn[full.size() - 2] = static_cast<char>(torn[full.size() - 2] ^ 0x5A);
  WriteFile(path, torn);
  auto recovered = WriteAheadLog::Replay(path, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->records, 1u);
  EXPECT_TRUE(recovered->torn_tail);
  std::remove(path.c_str());
}

TEST(WalTest, ApplyEditToSheetMatchesDirectApplication) {
  Sheet direct, replayed;
  EditBatch edits = DemoEdits(3);
  for (const Edit& edit : edits) {
    ASSERT_TRUE(ApplyEditToSheet(&replayed, edit).ok());
  }
  ASSERT_TRUE(direct.SetNumber(edits[0].cell, edits[0].number).ok());
  ASSERT_TRUE(direct.SetText(edits[1].cell, edits[1].text).ok());
  ASSERT_TRUE(direct.SetFormula(edits[2].cell, edits[2].text).ok());
  ASSERT_TRUE(direct.ClearRange(edits[3].range).ok());
  EXPECT_EQ(Canon(direct), Canon(replayed));
}

// ---------------------------------------------------------------------------
// textio guard (the text-path half of the oversized-input satellite)
// ---------------------------------------------------------------------------

TEST(TextioGuardTest, LoadSheetFileRefusesOversizedFiles) {
  std::string path = TempPath("textio_oversize.tsheet");
  ASSERT_TRUE(SaveSheetFile(DemoSheet(), path).ok());
  auto result = LoadSheetFile(path, /*max_bytes=*/8);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  // The default limit is far above any real sheet: same file loads.
  EXPECT_TRUE(LoadSheetFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace taco
