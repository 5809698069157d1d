#include "obs/critical_path.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace sio::obs {
namespace {

constexpr std::size_t stage_index(StageKind k) { return static_cast<std::size_t>(k); }

}  // namespace

sim::Tick CriticalPathReport::Row::exclusive_sum() const {
  sim::Tick sum = 0;
  for (sim::Tick t : exclusive) sum += t;
  return sum;
}

void CriticalPathReport::merge(const CriticalPathReport& o) {
  for (int c = 0; c < kOpClassSlots; ++c) {
    rows[c].ops += o.rows[c].ops;
    rows[c].abandoned += o.rows[c].abandoned;
    rows[c].total_latency += o.rows[c].total_latency;
    for (int s = 0; s < kStageKindCount; ++s) {
      rows[c].exclusive[s] += o.rows[c].exclusive[s];
      rows[c].spans[s] += o.rows[c].spans[s];
    }
  }
  roots += o.roots;
  spans += o.spans;
}

std::uint64_t CriticalPathReport::fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(roots);
  mix(spans);
  for (const Row& row : rows) {
    mix(row.ops);
    mix(row.abandoned);
    mix(static_cast<std::uint64_t>(row.total_latency));
    for (sim::Tick t : row.exclusive) mix(static_cast<std::uint64_t>(t));
    for (std::uint64_t n : row.spans) mix(n);
  }
  return h;
}

/// Children sorted latest-end-first (ties to the larger id, i.e. the
/// later-opened sibling) so the walk is deterministic.
void CriticalPathFold::sort_children(std::vector<TreeNode>::iterator first,
                                     std::vector<TreeNode>::iterator last) {
  std::sort(first, last, [](const TreeNode& a, const TreeNode& b) {
    if (a.ev->end() != b.ev->end()) return a.ev->end() > b.ev->end();
    return a.ev->span > b.ev->span;
  });
}

/// Attributes every tick of `[lo, hi)` to exactly one stage.  The child that
/// ends latest owns the tail of the window it covers; whatever no child
/// covers stays with `n`'s own stage.
void CriticalPathFold::tile(const TreeNode& n, sim::Tick lo, sim::Tick hi,
                            const std::vector<TreeNode>& tree,
                            std::array<sim::Tick, kStageKindCount>& acc) {
  sim::Tick t = hi;
  for (std::uint32_t k = n.first; k < n.first + n.count; ++k) {
    const SpanEvent* c = tree[k].ev;
    sim::Tick ce = std::min(c->end(), t);
    sim::Tick cs = std::max(c->start, lo);
    if (ce <= cs) continue;
    acc[stage_index(n.ev->stage)] += t - ce;
    tile(tree[k], cs, ce, tree, acc);
    t = cs;
    if (t <= lo) break;
  }
  if (t > lo) acc[stage_index(n.ev->stage)] += t - lo;
}

/// Folds one gathered tree; `tree[0]` is the root.
void CriticalPathFold::fold_tree(CriticalPathReport& report, const std::vector<TreeNode>& tree) {
  const SpanEvent& root = *tree[0].ev;
  auto& row = report.rows[root.info % kOpClassSlots];
  row.ops += 1;
  row.total_latency += root.duration;
  for (const TreeNode& m : tree) {
    row.spans[stage_index(m.ev->stage)] += 1;
    if (m.ev->abandoned()) row.abandoned += 1;
  }
  tile(tree[0], root.start, root.end(), tree, row.exclusive);
  report.roots += 1;
  report.spans += tree.size();
}

void CriticalPathFold::hold(const SpanEvent& ev) {
  const std::uint32_t s = slots_.acquire();
  slots_[s] = Slot{ev, children_.exchange(ev.parent, s)};
  ++pending_;
}

void CriticalPathFold::on_span(const SpanEvent& ev) {
  if (ev.parent != 0) {
    hold(ev);
    return;
  }
  // A root closed; every descendant already closed (children close before
  // parents), so the whole tree is chained below it.  Gather it breadth
  // first: each span's children land as one contiguous run, sorted once.
  tree_.assign(1, TreeNode{&ev});
  for (std::size_t i = 0; i < tree_.size(); ++i) {
    const auto first = static_cast<std::uint32_t>(tree_.size());
    for (std::uint32_t s = children_.take(tree_[i].ev->span); s != kNone; s = slots_[s].next) {
      tree_.push_back(TreeNode{&slots_[s].ev, s});
    }
    tree_[i].first = first;
    tree_[i].count = static_cast<std::uint32_t>(tree_.size()) - first;
    sort_children(tree_.begin() + first, tree_.end());
  }
  fold_tree(report_, tree_);
  // Recycle the members' slots (every node but the root lives in the arena).
  for (std::size_t i = 1; i < tree_.size(); ++i) slots_.release(tree_[i].slot);
  pending_ -= tree_.size() - 1;
  tree_.clear();  // keeps capacity; drops the pointer to the caller's root
}

std::size_t CriticalPathFold::bytes_retained() const {
  return slots_.bytes_retained() + children_.bytes_retained() +
         tree_.capacity() * sizeof(TreeNode);
}

void CriticalPathFold::merge(const CriticalPathFold& o) {
  report_.merge(o.report_);
  for (std::uint32_t s = 0; s < o.slots_.size(); ++s) {
    if (o.slots_[s].ev.parent != 0) hold(o.slots_[s].ev);
  }
}

CriticalPathReport critical_path(const std::vector<SpanEvent>& spans) {
  // Park every child first so input order does not matter, then fold the
  // roots in id order.  Spans no root reaches (orphans) stay parked.
  CriticalPathFold fold;
  std::vector<const SpanEvent*> roots;
  for (const SpanEvent& ev : spans) {
    if (ev.parent != 0) {
      fold.on_span(ev);
    } else {
      roots.push_back(&ev);
    }
  }
  std::stable_sort(roots.begin(), roots.end(), [](const SpanEvent* a, const SpanEvent* b) {
    return a->span < b->span;
  });
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i > 0 && roots[i]->span == roots[i - 1]->span) continue;  // first of a duplicate id
    fold.on_span(*roots[i]);
  }
  return fold.report();
}

std::string render_critical_path(const CriticalPathReport& report,
                                 std::string_view (*class_name)(int)) {
  std::string out;
  out += "critical-path attribution (exclusive ticks per stage)\n";
  if (report.empty()) {
    out += "  (no spans captured)\n";
    return out;
  }
  char buf[160];
  for (int c = 0; c < kOpClassSlots; ++c) {
    const auto& row = report.rows[c];
    if (row.ops == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-10s ops=%" PRIu64 " latency=%" PRId64 " abandoned=%" PRIu64 "\n",
                  std::string(class_name(c)).c_str(), row.ops,
                  static_cast<std::int64_t>(row.total_latency), row.abandoned);
    out += buf;
    // Stages sorted by exclusive time, largest first (ties by stage order).
    std::array<int, kStageKindCount> order{};
    for (int s = 0; s < kStageKindCount; ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&row](int a, int b) {
      if (row.exclusive[a] != row.exclusive[b]) return row.exclusive[a] > row.exclusive[b];
      return a < b;
    });
    for (int s : order) {
      if (row.exclusive[s] == 0 && row.spans[s] == 0) continue;
      std::int64_t permille =
          row.total_latency > 0
              ? static_cast<std::int64_t>(row.exclusive[s]) * 1000 / row.total_latency
              : 0;
      std::snprintf(buf, sizeof(buf),
                    "    %-9s %14" PRId64 "  %3" PRId64 ".%01" PRId64 "%%  spans=%" PRIu64 "\n",
                    std::string(stage_name(static_cast<StageKind>(s))).c_str(),
                    static_cast<std::int64_t>(row.exclusive[s]), permille / 10,
                    permille % 10, row.spans[s]);
      out += buf;
    }
  }
  return out;
}

}  // namespace sio::obs
