// TacoGraph: the compressed formula graph (Sec. IV of the paper).
//
// Dependencies are greedily compressed on insertion (Algorithm 2): the
// vertex R-tree locates compressed edges whose dependent range is adjacent
// to the new formula cell, every enabled pattern proposes a merge, and the
// paper's heuristics pick the winner (column-wise first, special patterns
// over general, then '$' cues from the formula text). Queries run directly
// on the compressed graph with a modified BFS (Algorithm 3) that uses a
// second R-tree over the result set to enqueue only unvisited sub-ranges.
// Maintenance splits edges in place with the pattern removeDep functions
// (Sec. IV-C); no decompression ever happens.

#ifndef TACO_TACO_TACO_GRAPH_H_
#define TACO_TACO_TACO_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/dependency_graph.h"
#include "rtree/rtree.h"
#include "taco/pattern.h"

namespace taco {

/// Tuning knobs for TacoGraph. The defaults reproduce the paper's
/// TACO-Full configuration.
struct TacoOptions {
  /// Patterns tried when extending a Single edge, in candidate order.
  std::vector<PatternType> patterns = DefaultPatternSet();

  /// Heuristic 1: prefer column-wise over row-wise compression.
  bool prefer_column_axis = true;
  /// Heuristic 2: prefer special patterns (RR-Chain) over general ones.
  bool prefer_special_patterns = true;
  /// Heuristic 3: prefer the pattern implied by the reference's '$' flags.
  bool use_dollar_cues = true;

  /// TACO-InRow (Sec. VI-B): restrict to column-axis RR over references
  /// in the formula's own row — the derived-column pattern.
  bool in_row_only = false;

  /// The paper's TACO-Full configuration (all defaults).
  static TacoOptions Full() { return TacoOptions{}; }

  /// The paper's TACO-InRow comparison variant.
  static TacoOptions InRow() {
    TacoOptions options;
    options.patterns = {PatternType::kRR};
    options.in_row_only = true;
    return options;
  }

  /// Ablation: first-valid candidate selection instead of the heuristics.
  static TacoOptions NoHeuristics() {
    TacoOptions options;
    options.prefer_column_axis = false;
    options.prefer_special_patterns = false;
    options.use_dollar_cues = false;
    return options;
  }
};

/// Per-pattern compression effectiveness, for Table V.
struct PatternStat {
  uint64_t edges = 0;          ///< Compressed edges with this pattern.
  uint64_t dependencies = 0;   ///< Raw dependencies they represent.
  /// Edges saved versus the uncompressed graph: Σ (|E'_i| - 1).
  uint64_t reduced() const { return dependencies - edges; }
};

/// The compressed formula graph.
class TacoGraph : public DependencyGraph {
 public:
  explicit TacoGraph(TacoOptions options = TacoOptions::Full());

  Status AddDependency(const Dependency& dep) override;
  std::vector<Range> FindDependents(const Range& input) override;
  std::vector<Range> FindPrecedents(const Range& input) override;
  Status RemoveFormulaCells(const Range& cells) override;

  size_t NumVertices() const override { return live_vertices_; }
  size_t NumEdges() const override { return live_edges_; }
  std::string Name() const override {
    return options_.in_row_only ? "TACO-InRow" : "TACO";
  }

  /// Total raw dependencies represented (== NumEdges of the equivalent
  /// uncompressed graph).
  uint64_t NumRawDependencies() const { return raw_dependencies_; }

  /// Per-pattern statistics over the live edges (Table V).
  std::unordered_map<PatternType, PatternStat> PatternStats() const;

  /// Visits every live compressed edge (tests and stats).
  void ForEachEdge(
      const std::function<void(const CompressedEdge&)>& fn) const;

  const TacoOptions& options() const { return options_; }

 private:
  using VertexId = uint32_t;
  using EdgeId = uint32_t;

  struct Vertex {
    Range range;
    std::vector<EdgeId> out_edges;  ///< Edges whose prec is this range.
    std::vector<EdgeId> in_edges;   ///< Edges whose dep is this range.
    bool alive = true;
  };

  struct EdgeSlot {
    CompressedEdge edge;
    VertexId prec_v = 0;
    VertexId dep_v = 0;
    bool alive = true;
  };

  VertexId InternVertex(const Range& range);
  void RemoveVertexIfOrphan(VertexId id);
  EdgeId InsertEdge(const CompressedEdge& edge);
  void RemoveEdge(EdgeId id);

  /// Candidate discovery (step 1 of Algorithm 2): edges whose dependent
  /// range is adjacent to `dep_cell` along either axis (stride 2 when
  /// RR-GapOne is enabled).
  void FindCandidateEdges(const Cell& dep_cell,
                          std::vector<EdgeId>* candidates) const;

  /// genCompEdges + heuristic selection (steps 2-3 of Algorithm 2).
  /// Returns true and fills outputs when a merge was chosen.
  bool SelectMerge(const Dependency& dep,
                   const std::vector<EdgeId>& candidates,
                   CompressedEdge* merged, EdgeId* replaced) const;

  TacoOptions options_;
  bool gap_pattern_enabled_ = false;

  std::vector<Vertex> vertices_;
  std::vector<EdgeSlot> edges_;
  std::vector<VertexId> free_vertices_;
  std::vector<EdgeId> free_edges_;
  std::unordered_map<Range, VertexId> vertex_by_range_;
  RTree index_;

  size_t live_vertices_ = 0;
  size_t live_edges_ = 0;
  uint64_t raw_dependencies_ = 0;
};

}  // namespace taco

#endif  // TACO_TACO_TACO_GRAPH_H_
