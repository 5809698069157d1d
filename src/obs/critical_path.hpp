// Critical-path latency attribution over span trees.
//
// For each closed root span, every tick of its interval is attributed to
// exactly one stage: walking children latest-end-first, the part of the
// parent interval not covered by the responsible child belongs to the
// parent's own stage, and each child recursively tiles the window it owns.
// Overlapping siblings (parallel stripe segments under one op) resolve to
// the later-ending one — the longest path — and the earlier sibling keeps
// only the window where it is the latest unfinished work.  The tiling is
// exact by construction: per op class, the per-stage sums add up to the
// summed root latency *to the tick*, which RunResult cross-checks.
//
// `CriticalPathFold` consumes spans in emission order with bounded memory:
// children close before parents, so a tree is complete the moment its root
// arrives, gets folded, and is dropped — the buffer only ever holds spans of
// in-flight ops.  Pending spans sit in a slot arena, chained per parent id,
// so a closing root gathers its tree by a walk from the root in O(tree),
// whatever else is in flight.  Folds merge exactly (elementwise sums), so
// sharded runs reduce to the same report byte-for-byte.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/id_index.hpp"
#include "obs/span.hpp"

namespace sio::obs {

/// Rows are keyed by the root span's `info` field — the op class (pablo
/// IoOp value for PFS ops).  Eight slots cover the trace dialect's op set.
inline constexpr int kOpClassSlots = 8;

/// Per-(op class, stage) exclusive critical-path time.
struct CriticalPathReport {
  struct Row {
    std::uint64_t ops = 0;              ///< Root spans folded into this row.
    std::uint64_t abandoned = 0;        ///< Spans flagged abandoned (any stage).
    sim::Tick total_latency = 0;        ///< Sum of root durations.
    std::array<sim::Tick, kStageKindCount> exclusive{};   ///< Critical-path ticks.
    std::array<std::uint64_t, kStageKindCount> spans{};   ///< Span counts.

    sim::Tick exclusive_sum() const;
    bool operator==(const Row&) const = default;
  };

  std::array<Row, kOpClassSlots> rows{};
  std::uint64_t roots = 0;  ///< Total root spans folded.
  std::uint64_t spans = 0;  ///< Total spans folded (roots included).

  bool empty() const { return spans == 0; }

  /// Elementwise sum; exact and associative.
  void merge(const CriticalPathReport& o);

  /// FNV-1a over every counter, for determinism fingerprints.
  std::uint64_t fingerprint() const;

  bool operator==(const CriticalPathReport&) const = default;
};

/// Bounded-memory streaming fold: feed spans in emission order (children
/// before their parent); each completed tree is attributed and discarded.
class CriticalPathFold {
 public:
  void on_span(const SpanEvent& ev);

  const CriticalPathReport& report() const { return report_; }
  std::size_t pending_spans() const { return pending_; }
  std::size_t bytes_retained() const;

  void merge(const CriticalPathFold& o);

 private:
  static constexpr std::uint32_t kNone = IdIndex::kNone;

  /// A pending span, chained to the next pending child of the same parent.
  /// Free slots hold `Slot{}` (parent 0).
  struct Slot {
    SpanEvent ev;
    std::uint32_t next = kNone;
  };

  /// One span of the tree being folded, held in arena slot `slot` (kNone
  /// for the root); its children are the contiguous run
  /// `[first, first + count)` of the gathered tree.
  struct TreeNode {
    const SpanEvent* ev = nullptr;
    std::uint32_t slot = kNone;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  void hold(const SpanEvent& ev);

  static void sort_children(std::vector<TreeNode>::iterator first,
                            std::vector<TreeNode>::iterator last);
  static void tile(const TreeNode& n, sim::Tick lo, sim::Tick hi,
                   const std::vector<TreeNode>& tree,
                   std::array<sim::Tick, kStageKindCount>& acc);
  static void fold_tree(CriticalPathReport& report, const std::vector<TreeNode>& tree);

  CriticalPathReport report_;
  SlotArena<Slot> slots_;
  IdIndex children_;  // parent id -> slot of its most recent pending child
  std::size_t pending_ = 0;
  std::vector<TreeNode> tree_;  // gather scratch, reused across roots
};

/// Batch attribution over a full span vector (any order, multiple trees).
/// Spans whose parent never closed are ignored, matching the streaming fold.
CriticalPathReport critical_path(const std::vector<SpanEvent>& spans);

/// Renders the report as an aligned text table.  `class_name(c)` maps an op
/// class index to its display name (pablo passes the SDDF op mnemonic).
std::string render_critical_path(const CriticalPathReport& report,
                                 std::string_view (*class_name)(int));

}  // namespace sio::obs
