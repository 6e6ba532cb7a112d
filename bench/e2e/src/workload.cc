#include "workload.h"

#include <algorithm>
#include <filesystem>

#include "common/a1.h"
#include "corpus/generator.h"
#include "sheet/textio.h"

namespace taco::e2e {
namespace {

CorpusProfile WithValues(CorpusProfile profile) {
  profile.fill_values = true;
  return profile;
}

/// Enron-shaped sheets at the small end: a shared workbook a few people
/// edit at once.
CorpusProfile SmallEnron() {
  CorpusProfile profile = WithValues(CorpusProfile::Enron());
  profile.min_formulas_per_sheet = 1000;
  profile.max_formulas_per_sheet = 2000;
  profile.max_region_len = 2000;
  return profile;
}

constexpr int kMaxProfileScan = 400;
constexpr int kGetRangeCols = 4;
constexpr int kGetRangeRows = 32;
constexpr int kMaxChurnBlock = 8;
constexpr size_t kStrata = 256;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"anchor_recalc",
       "SETs at the max-dependents and longest-path anchors of large Github "
       "sheets: FindDependents, wave planning, evaluation and publish do "
       "nearly all the work",
       WithValues(CorpusProfile::Github()), 2, 40000, 80000, 5000, 2,
       {3, 1},  // SET an anchor, GET a formula cell
       164, false},
      {"read_mostly",
       "GET and GETRANGE over six shared Enron sheets with 10% SETs: the "
       "MVCC read path and transport dominate, recalc is small",
       WithValues(CorpusProfile::Enron()), 6, 15000, 30000, 0, 3,
       {6, 3, 1},  // GET, GETRANGE, SET an owned data cell
       6760, false},
      {"durable_collab",
       "four writers on two small sheets with the WAL on: fsync and "
       "session-lock wait dominate, graph and eval are tiny",
       SmallEnron(), 2, 1000, 2000, 0, 4,
       {9, 1},  // SET, BATCH of 8 SETs
       4800, true},
      {"formula_churn",
       "cut-and-paste-back of formula blocks and formula rewrites: "
       "compressed-edge split and merge, R-tree updates and parsing",
       WithValues(CorpusProfile::Enron()), 3, 10000, 30000, 100, 3,
       {3, 3, 4},  // cut and paste back, rewrite and restore, GET
       455, false},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Result<std::vector<BenchSheet>> MakeCorpus(const WorkloadSpec& spec,
                                           uint64_t seed,
                                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create '" + dir + "'");
  CorpusGenerator generator(spec.profile);
  std::vector<BenchSheet> out;
  for (int index = 0;
       index < kMaxProfileScan && static_cast<int>(out.size()) < spec.sheets;
       ++index) {
    CorpusSheet generated = generator.GenerateSheet(index);
    Sheet& sheet = generated.sheet;
    int formulas = static_cast<int>(sheet.formula_cell_count());
    if (formulas < spec.min_formulas || formulas > spec.max_formulas ||
        generated.expected_max_dependents < spec.min_dependents) {
      continue;
    }
    BenchSheet bench;
    bench.session = "wb" + std::to_string(out.size());
    bench.path = dir + "/" + bench.session + ".tsheet";
    bench.profile_index = index;
    bench.formulas = sheet.formula_cell_count();
    sheet.ForEachCellColumnMajor([&](const Cell& cell,
                                     const CellContent& content) {
      if (content.IsFormula()) {
        bench.formula_cells.push_back(cell);
        bench.formula_texts.push_back(content.formula().text);
      } else if (content.IsNumber()) {
        bench.data_cells.push_back(cell);
      }
    });
    // The seed owns every literal; the profile owns the structure.
    std::mt19937_64 values(seed * 0x9e3779b97f4a7c15ULL +
                           static_cast<uint64_t>(index));
    for (const Cell& cell : bench.data_cells) {
      (void)sheet.SetNumber(
          cell, std::uniform_int_distribution<int>(1, 97)(values));
    }
    bench.anchors.push_back(generated.max_dependents_cell);
    if (!(generated.longest_path_cell == generated.max_dependents_cell)) {
      bench.anchors.push_back(generated.longest_path_cell);
    }
    TACO_RETURN_IF_ERROR(SaveSheetFile(sheet, bench.path));
    out.push_back(std::move(bench));
  }
  if (static_cast<int>(out.size()) < spec.sheets) {
    return Status::NotFound(std::string(spec.name) + ": the " +
                            spec.profile.name + " profile has too few sheets " +
                            "of the requested size");
  }
  return out;
}

ClientScript::ClientScript(const WorkloadSpec& spec, int client, uint64_t seed,
                           const std::vector<BenchSheet>& sheets)
    : spec_(spec),
      sheets_(sheets),
      rng_(seed * 1000003ULL + static_cast<uint64_t>(client)) {
  std::string_view name = spec.name;
  if (name == "read_mostly") {
    owner_slot_ = client;
    owner_count_ = spec.clients;
  } else if (name == "durable_collab") {
    // Two writers per workbook.
    home_sheet_ = client / 2;
    owner_slot_ = client % 2;
    owner_count_ = 2;
  } else {
    home_sheet_ = client;
  }
}

void ClientScript::NextAction(std::vector<Command>* out) {
  out->clear();
  std::string_view name = spec_.name;
  if (name == "anchor_recalc") {
    AnchorRecalc(out);
  } else if (name == "read_mostly") {
    ReadMostly(out);
  } else if (name == "durable_collab") {
    DurableCollab(out);
  } else {
    FormulaChurn(out);
  }
}

int ClientScript::NextKind() {
  if (deck_pos_ == deck_.size()) {
    deck_.clear();
    for (size_t kind = 0; kind < spec_.mix.size(); ++kind) {
      deck_.insert(deck_.end(), spec_.mix[kind], static_cast<int>(kind));
    }
    std::shuffle(deck_.begin(), deck_.end(), rng_);
    deck_pos_ = 0;
  }
  return deck_[deck_pos_++];
}

std::string ClientScript::SetArgs(int sheet, const Cell& cell) {
  double value = Uniform(1, 1000);
  auto& edits = final_[sheet];
  auto it = edits.find(cell);
  if (it != edits.end() && it->second.number == value) value += 1;
  edits[cell] = Edit::SetNumber(cell, value);
  return CellToA1(cell) + " " + std::to_string(static_cast<int>(value));
}

const Cell& ClientScript::OwnedDataCell(int sheet) {
  const std::vector<Cell>& cells = sheets_[sheet].data_cells;
  // Cells at positions owner_slot_, owner_slot_ + owner_count_, ...
  int owned = (static_cast<int>(cells.size()) - 1 - owner_slot_) / owner_count_;
  return cells[owner_slot_ + owner_count_ * Uniform(0, owned)];
}

size_t ClientScript::RandomFormulaIndex(int sheet) {
  return static_cast<size_t>(
      Uniform(0, static_cast<int>(sheets_[sheet].formula_cells.size()) - 1));
}

size_t ClientScript::StratifiedFormulaIndex(int sheet) {
  size_t n = sheets_[sheet].formula_cells.size();
  size_t strata = std::min(kStrata, n);
  if (strata_pos_ == strata_.size()) {
    strata_.resize(strata);
    for (size_t s = 0; s < strata; ++s) strata_[s] = s;
    std::shuffle(strata_.begin(), strata_.end(), rng_);
    strata_pos_ = 0;
  }
  size_t s = strata_[strata_pos_++];
  size_t lo = s * n / strata;
  size_t hi = (s + 1) * n / strata;
  return lo + static_cast<size_t>(Uniform(0, static_cast<int>(hi - lo) - 1));
}

std::string ClientScript::Get(int sheet, const Cell& cell) const {
  return "GET " + sheets_[sheet].session + " " + CellToA1(cell);
}

void ClientScript::AnchorRecalc(std::vector<Command>* out) {
  const BenchSheet& sheet = sheets_[home_sheet_];
  if (NextKind() == 0) {
    const Cell& anchor =
        sheet.anchors[Uniform(0, static_cast<int>(sheet.anchors.size()) - 1)];
    out->push_back({"SET " + sheet.session + " " + SetArgs(home_sheet_, anchor),
                    OpClass::kEdit});
  } else {
    out->push_back({Get(home_sheet_, sheet.formula_cells[RandomFormulaIndex(
                                         home_sheet_)]),
                    OpClass::kGet});
  }
}

void ClientScript::ReadMostly(std::vector<Command>* out) {
  int sheet = Uniform(0, static_cast<int>(sheets_.size()) - 1);
  const BenchSheet& bench = sheets_[sheet];
  int kind = NextKind();
  if (kind == 0) {
    out->push_back(
        {Get(sheet, bench.formula_cells[RandomFormulaIndex(sheet)]),
         OpClass::kGet});
  } else if (kind == 1) {
    // A dashboard block anchored at a formula cell.
    Cell head = bench.formula_cells[RandomFormulaIndex(sheet)];
    Range block(head.col, head.row,
                std::min(head.col + kGetRangeCols - 1, kMaxCol),
                std::min(head.row + kGetRangeRows - 1, kMaxRow));
    out->push_back({"GETRANGE " + bench.session + " " + RangeToA1(block),
                    OpClass::kGetRange});
  } else {
    out->push_back(
        {"SET " + bench.session + " " + SetArgs(sheet, OwnedDataCell(sheet)),
         OpClass::kEdit});
  }
}

void ClientScript::DurableCollab(std::vector<Command>* out) {
  const BenchSheet& sheet = sheets_[home_sheet_];
  if (NextKind() == 0) {
    out->push_back({"SET " + sheet.session + " " +
                        SetArgs(home_sheet_, OwnedDataCell(home_sheet_)),
                    OpClass::kEdit});
    return;
  }
  std::string batch = "BATCH " + sheet.session + " 8";
  for (int i = 0; i < 8; ++i) {
    batch += "\nSET " + SetArgs(home_sheet_, OwnedDataCell(home_sheet_));
  }
  out->push_back({std::move(batch), OpClass::kEdit});
}

void ClientScript::FormulaChurn(std::vector<Command>* out) {
  const BenchSheet& sheet = sheets_[home_sheet_];
  int kind = NextKind();
  if (kind == 2) {
    out->push_back({Get(home_sheet_, sheet.formula_cells[RandomFormulaIndex(
                                         home_sheet_)]),
                    OpClass::kGet});
    return;
  }
  auto& edits = final_[home_sheet_];
  size_t first = StratifiedFormulaIndex(home_sheet_);
  const Cell& head = sheet.formula_cells[first];
  if (kind == 0) {
    // Cut a run of formula cells in one column, then paste it back.
    size_t count = 1;
    while (count < kMaxChurnBlock && first + count < sheet.formula_cells.size()) {
      const Cell& next = sheet.formula_cells[first + count];
      if (next.col != head.col ||
          next.row != head.row + static_cast<int32_t>(count)) {
        break;
      }
      ++count;
    }
    Range block(head.col, head.row, head.col,
                head.row + static_cast<int32_t>(count) - 1);
    out->push_back({"CLEAR " + sheet.session + " " + RangeToA1(block),
                    OpClass::kEdit});
    std::string paste =
        "BATCH " + sheet.session + " " + std::to_string(count);
    for (size_t i = first; i < first + count; ++i) {
      const Cell& cell = sheet.formula_cells[i];
      paste += "\nFORMULA " + CellToA1(cell) + " " + sheet.formula_texts[i];
      edits[cell] = Edit::SetFormula(cell, sheet.formula_texts[i]);
    }
    out->push_back({std::move(paste), OpClass::kEdit});
  } else {
    // Rewrite one formula, then restore it.
    std::string prefix = "FORMULA " + sheet.session + " " + CellToA1(head) + " ";
    out->push_back(
        {prefix + "(" + sheet.formula_texts[first] + ")+1", OpClass::kEdit});
    out->push_back({prefix + sheet.formula_texts[first], OpClass::kEdit});
    edits[head] = Edit::SetFormula(head, sheet.formula_texts[first]);
  }
}

}  // namespace taco::e2e
