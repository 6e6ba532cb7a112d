// The four taco_e2e workloads: which corpus sheets each serves, and the
// closed-loop command stream each client sends.
//
// Sheet *structure* comes from the fixed Enron/Github corpus profiles
// (src/corpus/profile.h), selected by size; the run seed redraws every
// literal value in those sheets and drives every client's choices. A
// reseeded structure would change per-edit cost by multiples (anchor
// dependents span three orders of magnitude across profile sheets), so
// runs with different seeds would not be comparable.

#ifndef TACO_E2E_WORKLOAD_H_
#define TACO_E2E_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/profile.h"
#include "eval/recalc.h"

namespace taco::e2e {

/// What a command measures as: any mutation, a GET, or a GETRANGE.
enum class OpClass { kEdit, kGet, kGetRange };

struct Command {
  std::string text;  ///< One protocol command (BATCH spans several lines).
  OpClass op = OpClass::kEdit;
};

struct WorkloadSpec {
  const char* name;
  const char* why;
  /// Sheet selection: the first `sheets` profile sheets, in index order,
  /// whose formula count lies in [min_formulas, max_formulas] and whose
  /// max-dependents anchor has at least `min_dependents` dependents.
  CorpusProfile profile;
  int sheets;
  int min_formulas;
  int max_formulas;
  uint64_t min_dependents;
  int clients;
  /// The action mix as card counts per action kind (the kinds are listed
  /// beside each workload in workload.cc; {3, 1}: three SETs per GET). Each
  /// client deals its actions from a shuffled deck of these cards, so its
  /// mix is exact at every deck boundary instead of binomially noisy.
  std::vector<int> mix;
  /// Client actions per second the workload sustains on the reference
  /// machine (4-core container, see README). Each client sends a fixed
  /// action count sized from this and the run length, so counters repeat
  /// exactly from run to run.
  double actions_per_s;
  bool wal;  ///< Run the daemon with a write-ahead log.
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// One corpus sheet as a workload serves it.
struct BenchSheet {
  std::string session;  ///< Protocol session name.
  std::string path;     ///< The .tsheet file the daemon LOADs.
  int profile_index = 0;
  size_t formulas = 0;
  std::vector<Cell> formula_cells;   ///< Column-major.
  std::vector<std::string> formula_texts;  ///< Parallel to formula_cells.
  std::vector<Cell> data_cells;      ///< Numeric literals, column-major.
  std::vector<Cell> anchors;        ///< Max-dependents, longest-path heads.
};

/// Selects the workload's sheets, redraws their literal values from
/// `seed`, and writes them under `dir`.
Result<std::vector<BenchSheet>> MakeCorpus(const WorkloadSpec& spec,
                                           uint64_t seed,
                                           const std::string& dir);

/// Final content of every cell a client wrote, per sheet index. Clients
/// only write cells they own, so merging all clients' maps gives the
/// workload's final state regardless of interleaving.
using FinalEdits = std::map<int, std::map<Cell, Edit>>;

/// One client's seeded command stream. An action is one or more commands
/// sent back to back (formula_churn pairs every edit with its undo, so
/// the sheet is restored at every action boundary).
class ClientScript {
 public:
  ClientScript(const WorkloadSpec& spec, int client, uint64_t seed,
               const std::vector<BenchSheet>& sheets);

  void NextAction(std::vector<Command>* out);

  const FinalEdits& final_edits() const { return final_; }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  /// "<cell> <value>" for a numeric SET of `cell` on sheet `sheet`, to a
  /// value different from the last one this client wrote there.
  std::string SetArgs(int sheet, const Cell& cell);
  /// The next action kind: an index into WorkloadSpec::mix.
  int NextKind();
  /// A data cell of `sheet` owned by this client.
  const Cell& OwnedDataCell(int sheet);
  size_t RandomFormulaIndex(int sheet);
  /// A formula cell of `sheet` drawn stratified over its formula list:
  /// every stratum is visited once per shuffled round, so each region of
  /// the sheet gets its share of the edits in every run.
  size_t StratifiedFormulaIndex(int sheet);
  std::string Get(int sheet, const Cell& cell) const;

  void AnchorRecalc(std::vector<Command>* out);
  void ReadMostly(std::vector<Command>* out);
  void DurableCollab(std::vector<Command>* out);
  void FormulaChurn(std::vector<Command>* out);

  const WorkloadSpec& spec_;
  const std::vector<BenchSheet>& sheets_;
  std::mt19937_64 rng_;
  int home_sheet_ = 0;   ///< The sheet a one-sheet-per-client mix uses.
  int owner_slot_ = 0;   ///< This client's index among a sheet's writers.
  int owner_count_ = 1;  ///< Writers sharing each of its sheets.
  std::vector<int> deck_;
  size_t deck_pos_ = 0;
  std::vector<size_t> strata_;
  size_t strata_pos_ = 0;
  FinalEdits final_;
};

}  // namespace taco::e2e

#endif  // TACO_E2E_WORKLOAD_H_
