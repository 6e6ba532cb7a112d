// Table II: total formula-graph vertices and edges after compression —
// NoComp vs TACO-InRow vs TACO-Full, both corpora.

#include <cstdio>

#include "compression_survey.h"

namespace taco::bench {
namespace {

std::string WithPercent(uint64_t value, uint64_t base) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%llu (%.1f%%)",
                static_cast<unsigned long long>(value),
                base == 0 ? 0.0 : 100.0 * static_cast<double>(value) /
                                      static_cast<double>(base));
  return buffer;
}

void Report(const CorpusSurvey& survey) {
  TablePrinter table({survey.corpus, "Vertices", "Edges"});
  uint64_t v0 = survey.TotalNoCompVertices();
  uint64_t e0 = survey.TotalNoCompEdges();
  table.AddRow({"NoComp", std::to_string(v0), std::to_string(e0)});
  table.AddRow({"TACO-InRow", WithPercent(survey.TotalInRowVertices(), v0),
                WithPercent(survey.TotalInRowEdges(), e0)});
  table.AddRow({"TACO-Full", WithPercent(survey.TotalFullVertices(), v0),
                WithPercent(survey.TotalFullEdges(), e0)});
  table.Print();
}

}  // namespace
}  // namespace taco::bench

int main() {
  using namespace taco::bench;
  PrintHeader("Graph sizes after TACO compression (lower is better)",
              "Table II (Sec. VI-B)");
  Report(RunCompressionSurvey(BenchEnron()));
  std::printf("\n");
  Report(RunCompressionSurvey(BenchGithub()));
  std::printf(
      "\nPaper reference (full-size corpora):\n"
      "  Enron : NoComp 18.6M/23.7M; InRow 41.2%%/52.8%%; Full 6.3%%/5.0%%\n"
      "  Github: NoComp 165.8M/179.8M; InRow 33.3%%/30.7%%; Full 2.5%%/1.9%%\n"
      "Shape check: TACO-Full compresses to a few percent of NoComp and\n"
      "far below TACO-InRow on both corpora.\n");
  return 0;
}
