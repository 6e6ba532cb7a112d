#include "taco/taco_graph.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>

#include "formula/references.h"

namespace taco {
namespace {

// Heuristic 2 ranking: smaller is preferred. RR-Chain is the special case
// of RR (Sec. V); RR-GapOne ranks below the basic patterns because it
// compresses half as densely.
int PatternRank(PatternType type) {
  switch (type) {
    case PatternType::kRRChain: return 0;
    case PatternType::kRR: return 1;
    case PatternType::kRF: return 2;
    case PatternType::kFR: return 3;
    case PatternType::kFF: return 4;
    case PatternType::kRRGapOne: return 5;
    case PatternType::kSingle: return 6;
  }
  return 7;
}

// The pattern a '$'-flag cue implies (heuristic 3). RR cues also admit
// RR-Chain, handled by the caller.
PatternType CueToPattern(RefCue cue) {
  switch (cue) {
    case RefCue::kRelRel: return PatternType::kRR;
    case RefCue::kRelFix: return PatternType::kRF;
    case RefCue::kFixRel: return PatternType::kFR;
    case RefCue::kFixFix: return PatternType::kFF;
  }
  return PatternType::kRR;
}

bool HasAnyFlag(const Dependency& d) {
  return d.head_flags.abs_col || d.head_flags.abs_row || d.tail_flags.abs_col ||
         d.tail_flags.abs_row;
}

// Axis along which `cell` could extend the line `dep`, or nullopt when the
// merged box would not be a line growing by exactly one stride step.
std::optional<Axis> ExtensionAxis(const Range& dep, const Cell& cell) {
  Range merged = dep.BoundingUnion(Range(cell));
  if (merged.width() == 1 && merged.height() > 1) return Axis::kColumn;
  if (merged.height() == 1 && merged.width() > 1) return Axis::kRow;
  return std::nullopt;
}

}  // namespace

TacoGraph::TacoGraph(TacoOptions options) : options_(std::move(options)) {
  gap_pattern_enabled_ =
      std::find(options_.patterns.begin(), options_.patterns.end(),
                PatternType::kRRGapOne) != options_.patterns.end();
}

TacoGraph::VertexId TacoGraph::InternVertex(const Range& range) {
  auto it = vertex_by_range_.find(range);
  if (it != vertex_by_range_.end()) return it->second;
  VertexId id;
  if (!free_vertices_.empty()) {
    id = free_vertices_.back();
    free_vertices_.pop_back();
    vertices_[id] = Vertex{range, {}, {}, true};
  } else {
    id = static_cast<VertexId>(vertices_.size());
    vertices_.push_back(Vertex{range, {}, {}, true});
  }
  vertex_by_range_.emplace(range, id);
  index_.Insert(range, id);
  ++live_vertices_;
  return id;
}

void TacoGraph::RemoveVertexIfOrphan(VertexId id) {
  Vertex& vertex = vertices_[id];
  if (!vertex.alive || !vertex.out_edges.empty() || !vertex.in_edges.empty()) {
    return;
  }
  vertex.alive = false;
  --live_vertices_;
  vertex_by_range_.erase(vertex.range);
  index_.Remove(vertex.range, id);
  free_vertices_.push_back(id);
}

TacoGraph::EdgeId TacoGraph::InsertEdge(const CompressedEdge& edge) {
  VertexId prec_v = InternVertex(edge.prec);
  VertexId dep_v = InternVertex(edge.dep);
  EdgeId id;
  if (!free_edges_.empty()) {
    id = free_edges_.back();
    free_edges_.pop_back();
    edges_[id] = EdgeSlot{edge, prec_v, dep_v, true};
  } else {
    id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(EdgeSlot{edge, prec_v, dep_v, true});
  }
  vertices_[prec_v].out_edges.push_back(id);
  vertices_[dep_v].in_edges.push_back(id);
  ++live_edges_;
  return id;
}

void TacoGraph::RemoveEdge(EdgeId id) {
  EdgeSlot& slot = edges_[id];
  assert(slot.alive);
  slot.alive = false;
  --live_edges_;
  auto unlink = [id](std::vector<EdgeId>* list) {
    list->erase(std::remove(list->begin(), list->end(), id), list->end());
  };
  unlink(&vertices_[slot.prec_v].out_edges);
  unlink(&vertices_[slot.dep_v].in_edges);
  RemoveVertexIfOrphan(slot.prec_v);
  RemoveVertexIfOrphan(slot.dep_v);
  free_edges_.push_back(id);
}

void TacoGraph::FindCandidateEdges(const Cell& dep_cell,
                                   std::vector<EdgeId>* candidates) const {
  // Shift the inserted formula cell one step in all four directions (two
  // steps as well when the stride-2 pattern is on) and collect the edges
  // whose dependent vertex overlaps a shifted position.
  std::vector<Offset> shifts = {{0, -1}, {0, 1}, {-1, 0}, {1, 0}};
  if (gap_pattern_enabled_) {
    shifts.insert(shifts.end(), {{0, -2}, {0, 2}, {-2, 0}, {2, 0}});
  }
  for (const Offset& shift : shifts) {
    Cell shifted = dep_cell + shift;
    if (!shifted.IsValid()) continue;
    index_.ForEachOverlap(
        Range(shifted), [&](const Range&, RTree::EntryId id) {
          const Vertex& vertex = vertices_[static_cast<VertexId>(id)];
          for (EdgeId edge_id : vertex.in_edges) {
            if (std::find(candidates->begin(), candidates->end(), edge_id) ==
                candidates->end()) {
              candidates->push_back(edge_id);
            }
          }
        });
  }
}

bool TacoGraph::SelectMerge(const Dependency& dep,
                            const std::vector<EdgeId>& candidates,
                            CompressedEdge* merged, EdgeId* replaced) const {
  struct Scored {
    CompressedEdge edge;
    EdgeId old_edge;
    std::array<int, 5> score;  // lexicographic; smaller wins
  };
  std::optional<Scored> best;

  int order = 0;
  auto consider = [&](const CompressedEdge& candidate, EdgeId old_edge,
                      Axis axis) {
    if (options_.in_row_only) {
      // TACO-InRow: column-axis RR over same-row references only.
      if (candidate.pattern != PatternType::kRR || axis != Axis::kColumn ||
          candidate.meta.h_rel.drow != 0 || candidate.meta.t_rel.drow != 0) {
        return;
      }
    }
    std::array<int, 5> score{};
    score[0] = options_.prefer_column_axis && axis == Axis::kRow ? 1 : 0;
    score[1] = options_.prefer_special_patterns &&
                       candidate.pattern != PatternType::kRRChain
                   ? 1
                   : 0;
    if (options_.use_dollar_cues && HasAnyFlag(dep)) {
      PatternType cue = CueToPattern(ClassifyReferenceCue(
          A1Reference{dep.prec, dep.head_flags, dep.tail_flags,
                      dep.prec.IsSingleCell()},
          axis));
      bool matches = candidate.pattern == cue ||
                     (cue == PatternType::kRR &&
                      (candidate.pattern == PatternType::kRRChain ||
                       candidate.pattern == PatternType::kRRGapOne));
      score[2] = matches ? 0 : 1;
    }
    score[3] = PatternRank(candidate.pattern);
    score[4] = order++;
    if (!best || score < best->score) {
      best = Scored{candidate, old_edge, score};
    }
  };

  for (EdgeId candidate_id : candidates) {
    const EdgeSlot& slot = edges_[candidate_id];
    const CompressedEdge& cand = slot.edge;
    auto axis = ExtensionAxis(cand.dep, dep.dep);
    if (!axis) continue;
    if (cand.pattern == PatternType::kSingle) {
      for (PatternType type : options_.patterns) {
        auto result = GetPattern(type).AddDep(cand, dep, *axis);
        if (result) consider(*result, candidate_id, *axis);
      }
    } else {
      auto result = GetPattern(cand.pattern).AddDep(cand, dep, *axis);
      if (result) consider(*result, candidate_id, *axis);
    }
  }

  if (!best) return false;
  *merged = best->edge;
  *replaced = best->old_edge;
  return true;
}

Status TacoGraph::AddDependency(const Dependency& dep) {
  if (!dep.prec.IsValid() || !dep.dep.IsValid()) {
    return Status::InvalidArgument("invalid dependency " +
                                   dep.prec.ToString() + " -> " +
                                   dep.dep.ToString());
  }
  std::vector<EdgeId> candidates;
  FindCandidateEdges(dep.dep, &candidates);

  CompressedEdge merged;
  EdgeId replaced = 0;
  if (SelectMerge(dep, candidates, &merged, &replaced)) {
    RemoveEdge(replaced);
    InsertEdge(merged);
  } else {
    InsertEdge(
        MakeSingleEdge(dep.prec, dep.dep, dep.head_flags, dep.tail_flags));
  }
  ++raw_dependencies_;
  return Status::OK();
}

std::vector<Range> TacoGraph::FindDependents(const Range& input) {
  counters_ = QueryCounters{};
  std::vector<Range> result;
  RTree result_index;
  std::deque<Range> queue{input};
  std::vector<Range> found;
  std::vector<RTree::EntryId> overlapping;

  while (!queue.empty()) {
    Range prec_to_visit = queue.front();
    queue.pop_front();
    index_.ForEachOverlap(
        prec_to_visit, [&](const Range&, RTree::EntryId id) {
          const Vertex& vertex = vertices_[static_cast<VertexId>(id)];
          ++counters_.vertex_visits;
          for (EdgeId edge_id : vertex.out_edges) {
            const EdgeSlot& slot = edges_[edge_id];
            ++counters_.edge_accesses;
            found.clear();
            FindDepOnEdge(slot.edge, prec_to_visit, &found);
            for (const Range& dep_range : found) {
              // Keep only the parts not already in the result set.
              overlapping.clear();
              result_index.SearchOverlap(dep_range, &overlapping);
              std::vector<Range> pieces{dep_range};
              std::vector<Range> next;
              for (RTree::EntryId visited_id : overlapping) {
                if (pieces.empty()) break;
                next.clear();
                for (const Range& piece : pieces) {
                  SubtractRange(piece, result[visited_id], &next);
                }
                pieces.swap(next);
              }
              for (const Range& piece : pieces) {
                result_index.Insert(piece, result.size());
                result.push_back(piece);
                queue.push_back(piece);
                ++counters_.result_ranges;
              }
            }
          }
        });
  }
  return result;
}

std::vector<Range> TacoGraph::FindPrecedents(const Range& input) {
  counters_ = QueryCounters{};
  std::vector<Range> result;
  RTree result_index;
  std::deque<Range> queue{input};
  std::vector<Range> found;
  std::vector<RTree::EntryId> overlapping;

  while (!queue.empty()) {
    Range dep_to_visit = queue.front();
    queue.pop_front();
    index_.ForEachOverlap(
        dep_to_visit, [&](const Range&, RTree::EntryId id) {
          const Vertex& vertex = vertices_[static_cast<VertexId>(id)];
          ++counters_.vertex_visits;
          for (EdgeId edge_id : vertex.in_edges) {
            const EdgeSlot& slot = edges_[edge_id];
            ++counters_.edge_accesses;
            found.clear();
            FindPrecOnEdge(slot.edge, dep_to_visit, &found);
            for (const Range& prec_range : found) {
              overlapping.clear();
              result_index.SearchOverlap(prec_range, &overlapping);
              std::vector<Range> pieces{prec_range};
              std::vector<Range> next;
              for (RTree::EntryId visited_id : overlapping) {
                if (pieces.empty()) break;
                next.clear();
                for (const Range& piece : pieces) {
                  SubtractRange(piece, result[visited_id], &next);
                }
                pieces.swap(next);
              }
              for (const Range& piece : pieces) {
                result_index.Insert(piece, result.size());
                result.push_back(piece);
                queue.push_back(piece);
                ++counters_.result_ranges;
              }
            }
          }
        });
  }
  return result;
}

Status TacoGraph::RemoveFormulaCells(const Range& cells) {
  if (!cells.IsValid()) {
    return Status::InvalidArgument("invalid range " + cells.ToString());
  }
  // Gather the edges whose dependent range overlaps `cells` first; the
  // removal loop mutates the index.
  std::vector<EdgeId> targets;
  index_.ForEachOverlap(cells, [&](const Range&, RTree::EntryId id) {
    const Vertex& vertex = vertices_[static_cast<VertexId>(id)];
    for (EdgeId edge_id : vertex.in_edges) {
      if (std::find(targets.begin(), targets.end(), edge_id) ==
          targets.end()) {
        targets.push_back(edge_id);
      }
    }
  });

  std::vector<CompressedEdge> replacements;
  for (EdgeId edge_id : targets) {
    const EdgeSlot& slot = edges_[edge_id];
    replacements.clear();
    RemoveDepOnEdge(slot.edge, cells, &replacements);
    uint64_t removed_raw = slot.edge.compressed_count;
    RemoveEdge(edge_id);
    for (const CompressedEdge& replacement : replacements) {
      InsertEdge(replacement);
      removed_raw -= replacement.compressed_count;
    }
    raw_dependencies_ -= removed_raw;
  }
  return Status::OK();
}

std::unordered_map<PatternType, PatternStat> TacoGraph::PatternStats() const {
  std::unordered_map<PatternType, PatternStat> stats;
  ForEachEdge([&stats](const CompressedEdge& edge) {
    PatternStat& stat = stats[edge.pattern];
    ++stat.edges;
    stat.dependencies += edge.compressed_count;
  });
  return stats;
}

void TacoGraph::ForEachEdge(
    const std::function<void(const CompressedEdge&)>& fn) const {
  for (const EdgeSlot& slot : edges_) {
    if (slot.alive) fn(slot.edge);
  }
}

}  // namespace taco
