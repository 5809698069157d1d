// Direct tests of the span hot paths' data structures: the open-addressing
// id index, the tracer's open-span registry (force-close order, detached
// frames), and the streaming critical-path fold under heavy interleaving,
// equal end ticks and shard merges.  The end-to-end suites in
// obs_span_test.cpp cover the same code through whole simulated runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/id_index.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sio::obs {
namespace {

/// Deterministic test stream (splitmix64).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t below(std::int64_t n) { return static_cast<std::int64_t>(next() % n); }
};

TEST(IdIndex, MatchesAMapUnderChurnAndGrowth) {
  IdIndex index;
  std::map<std::uint32_t, std::uint32_t> oracle;
  Rng rng{42};
  for (int step = 0; step < 200000; ++step) {
    // A narrow key range forces long probe runs and many backward shifts.
    const auto id = static_cast<std::uint32_t>(1 + rng.below(4096));
    const auto slot = static_cast<std::uint32_t>(step);
    if (rng.below(3) == 0) {
      const auto it = oracle.find(id);
      const std::uint32_t want = it == oracle.end() ? IdIndex::kNone : it->second;
      ASSERT_EQ(index.take(id), want) << "step " << step;
      if (it != oracle.end()) oracle.erase(it);
    } else {
      const auto it = oracle.find(id);
      const std::uint32_t want = it == oracle.end() ? IdIndex::kNone : it->second;
      ASSERT_EQ(index.exchange(id, slot), want) << "step " << step;
      oracle[id] = slot;
    }
    ASSERT_EQ(index.size(), oracle.size());
  }
  for (std::uint32_t id = 0; id <= 4097; ++id) {
    const auto it = oracle.find(id);
    EXPECT_EQ(index.find(id), it == oracle.end() ? IdIndex::kNone : it->second);
  }
  EXPECT_EQ(index.find(0), IdIndex::kNone);
  EXPECT_EQ(index.take(0), IdIndex::kNone);
}

/// Records every closed span in emission order.
struct RecordingSink final : SpanSink {
  std::vector<SpanEvent> closed;
  void on_span(const SpanEvent& s) override { closed.push_back(s); }

  std::vector<std::uint32_t> ids() const {
    std::vector<std::uint32_t> out;
    for (const SpanEvent& s : closed) out.push_back(s.span);
    return out;
  }
};

void advance(sim::Engine& engine, sim::Tick t) {
  engine.schedule_at(t, [] {});
  engine.run_until(t);
}

TEST(Tracer, AbandonAndFinishForceCloseDeepestFirst) {
  sim::Engine engine;
  RecordingSink sink;
  Tracer tr(engine, sink);
  auto open = [&tr](std::uint32_t parent, StageKind stage) {
    return tr.open(parent, stage, 7, 0, -1, 0, 0);
  };
  // op 1 ── segment 2 ─┬─ attempt 3 ── net-req 4
  //      │             └─ attempt 5
  //      └─ segment 6 ──── attempt 7
  // op 8 ── meta 9
  ASSERT_EQ(open(0, StageKind::kOp), 1u);
  ASSERT_EQ(open(1, StageKind::kSegment), 2u);
  ASSERT_EQ(open(2, StageKind::kAttempt), 3u);
  ASSERT_EQ(open(3, StageKind::kNetReq), 4u);
  ASSERT_EQ(open(2, StageKind::kAttempt), 5u);
  ASSERT_EQ(open(1, StageKind::kSegment), 6u);
  ASSERT_EQ(open(6, StageKind::kAttempt), 7u);
  ASSERT_EQ(open(0, StageKind::kOp), 8u);
  ASSERT_EQ(open(8, StageKind::kMeta), 9u);
  EXPECT_EQ(tr.open_count(), 9u);

  advance(engine, 50);
  tr.abandon(2);
  EXPECT_EQ(sink.ids(), (std::vector<std::uint32_t>{5, 4, 3, 2}));
  for (const SpanEvent& s : sink.closed) {
    EXPECT_TRUE(s.abandoned());
    EXPECT_EQ(s.end(), 50);
  }

  // The detached frame keeps running: its late closes, updates and child
  // opens all no-op.
  advance(engine, 60);
  tr.close(4);
  tr.close(3);
  tr.set_bytes(3, 99);
  EXPECT_EQ(open(3, StageKind::kDisk), 0u);
  EXPECT_FALSE(tr.is_open(3));
  EXPECT_EQ(sink.closed.size(), 4u);

  // A normal close cuts its still-open child off from the ancestors: the
  // later abandon of op 1 leaves attempt 7 open.
  tr.close(6);
  tr.abandon(1);
  EXPECT_EQ(sink.ids(), (std::vector<std::uint32_t>{5, 4, 3, 2, 6, 1}));
  EXPECT_FALSE(sink.closed[4].abandoned());
  EXPECT_TRUE(sink.closed[5].abandoned());
  EXPECT_TRUE(tr.is_open(7));

  // Freed slots are reused (op 11 takes segment 6's old slot); ids keep
  // counting up.
  ASSERT_EQ(open(9, StageKind::kDisk), 10u);
  ASSERT_EQ(open(0, StageKind::kOp), 11u);
  ASSERT_EQ(open(11, StageKind::kMeta), 12u);
  tr.set_bytes(10, 4096);
  EXPECT_EQ(tr.open_count(), 6u);

  // Closing the cut-off attempt 7 leaves the slot its parent vacated alone:
  // op 11 still owns meta 12.
  tr.close(7);
  tr.abandon(11);
  EXPECT_EQ(sink.ids(), (std::vector<std::uint32_t>{5, 4, 3, 2, 6, 1, 7, 12, 11}));

  advance(engine, 80);
  tr.finish();
  EXPECT_EQ(sink.ids(), (std::vector<std::uint32_t>{5, 4, 3, 2, 6, 1, 7, 12, 11, 10, 9, 8}));
  EXPECT_EQ(tr.open_count(), 0u);
  EXPECT_EQ(tr.spans_emitted(), 12u);
  const SpanEvent& disk = sink.closed[9];
  EXPECT_EQ(disk.span, 10u);
  EXPECT_EQ(disk.parent, 9u);
  EXPECT_EQ(disk.bytes, 4096u);
  EXPECT_EQ(disk.start, 60);
  EXPECT_EQ(disk.duration, 20);
  EXPECT_TRUE(disk.abandoned());
}

TEST(Tracer, ScopeCloseAfterAbandonIsANoOp) {
  sim::Engine engine;
  RecordingSink sink;
  Tracer tr(engine, sink);
  SpanScope root(SpanContext{&tr, 0, 3}, StageKind::kOp, 0);
  SpanScope attempt(root.ctx(), StageKind::kAttempt, 0);
  SpanScope detached(attempt.ctx(), StageKind::kDisk, 0);
  attempt.abandon();
  EXPECT_EQ(sink.ids(), (std::vector<std::uint32_t>{3, 2}));
  SpanScope late(detached.ctx(), StageKind::kService, 0);
  EXPECT_FALSE(late.enabled());
  detached.close();
  root.close();
  EXPECT_EQ(sink.ids(), (std::vector<std::uint32_t>{3, 2, 1}));
  EXPECT_EQ(sink.closed.back().op_id, 3u);
  EXPECT_EQ(tr.open_count(), 0u);
}

/// About 1k interleaved op trees emitted in close order.  Ticks are coarse,
/// so siblings often end on the same tick.
struct Stream {
  std::vector<SpanEvent> spans;         // emission order
  std::vector<std::uint32_t> root_of;   // per emitted span: its root's id
};

Stream make_stream(std::uint64_t seed, int ops) {
  Rng rng{seed};
  struct Gen {
    SpanEvent ev;
    int depth;
    std::size_t parent;  // index into `gen`, or SIZE_MAX for a root
    std::size_t root;
  };
  std::vector<Gen> gen;
  auto grow = [&](auto&& self, std::size_t at, int depth) -> void {
    if (depth >= 3) return;
    const int kids = static_cast<int>(rng.below(depth == 0 ? 4 : 3));
    for (int k = 0; k < kids; ++k) {
      const SpanEvent& p = gen[at].ev;
      const sim::Tick span_ticks = p.duration / 4;
      if (span_ticks <= 0) return;
      SpanEvent c;
      c.start = p.start + 4 * rng.below(span_ticks);
      c.duration = 4 * (1 + rng.below((p.end() - c.start) / 4));
      c.stage = static_cast<StageKind>(1 + rng.below(kStageKindCount - 1));
      c.flags = rng.below(10) == 0 ? kSpanAbandoned : 0;
      gen.push_back(Gen{c, depth + 1, at, gen[at].root});
      self(self, gen.size() - 1, depth + 1);
    }
  };
  for (int op = 0; op < ops; ++op) {
    SpanEvent root;
    root.start = 4 * rng.below(1000);
    root.duration = 4 * (1 + rng.below(100));
    root.info = static_cast<std::uint64_t>(rng.below(kOpClassSlots));
    gen.push_back(Gen{root, 0, SIZE_MAX, gen.size()});
    grow(grow, gen.size() - 1, 0);
  }
  // Ids in open order (parents open no later than children), emission in
  // close order (children before parents on equal end ticks).
  std::vector<std::size_t> order(gen.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&gen](std::size_t a, std::size_t b) {
    if (gen[a].ev.start != gen[b].ev.start) return gen[a].ev.start < gen[b].ev.start;
    return gen[a].depth < gen[b].depth;
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    gen[order[i]].ev.span = static_cast<std::uint32_t>(i + 1);
  }
  for (Gen& g : gen) {
    g.ev.parent = g.parent == SIZE_MAX ? 0 : gen[g.parent].ev.span;
  }
  std::stable_sort(order.begin(), order.end(), [&gen](std::size_t a, std::size_t b) {
    if (gen[a].ev.end() != gen[b].ev.end()) return gen[a].ev.end() < gen[b].ev.end();
    return gen[a].depth > gen[b].depth;
  });
  Stream out;
  for (std::size_t i : order) {
    out.spans.push_back(gen[i].ev);
    out.root_of.push_back(gen[gen[i].root].ev.span);
  }
  return out;
}

TEST(CriticalPathFold, InterleavedTreesFoldLikeBatchAndDrain) {
  const Stream st = make_stream(2024, 1000);
  ASSERT_GT(st.spans.size(), 3000u);

  // The stream really interleaves trees and has equal-end siblings.
  std::map<std::pair<std::uint32_t, sim::Tick>, int> ends;
  for (const SpanEvent& s : st.spans) {
    if (s.parent != 0) ++ends[{s.parent, s.end()}];
  }
  int tied = 0;
  for (const auto& [key, n] : ends) tied += n > 1 ? 1 : 0;
  EXPECT_GT(tied, 50);

  CriticalPathFold fold;
  std::size_t max_pending = 0;
  for (const SpanEvent& s : st.spans) {
    fold.on_span(s);
    max_pending = std::max(max_pending, fold.pending_spans());
  }
  EXPECT_GT(max_pending, 100u);
  EXPECT_EQ(fold.pending_spans(), 0u);
  EXPECT_EQ(fold.report().roots, 1000u);
  EXPECT_EQ(fold.report().spans, st.spans.size());
  for (const auto& row : fold.report().rows) EXPECT_EQ(row.exclusive_sum(), row.total_latency);

  EXPECT_EQ(fold.report(), critical_path(st.spans));
  std::vector<SpanEvent> reversed(st.spans.rbegin(), st.spans.rend());
  EXPECT_EQ(fold.report(), critical_path(reversed));

  // Interleaving changes nothing: the sum of each tree folded on its own.
  std::map<std::uint32_t, CriticalPathFold> alone;
  for (std::size_t i = 0; i < st.spans.size(); ++i) alone[st.root_of[i]].on_span(st.spans[i]);
  CriticalPathReport summed;
  for (const auto& [root, f] : alone) summed.merge(f.report());
  EXPECT_EQ(fold.report(), summed);
}

TEST(CriticalPathFold, MergedPartialShardsCompleteLikeOneFold) {
  const Stream st = make_stream(77, 1000);
  CriticalPathFold single;
  for (const SpanEvent& s : st.spans) single.on_span(s);

  // Two shards split by root id, each cut off mid-stream holding partial
  // trees, then merged and fed the rest of the stream.
  CriticalPathFold even, odd;
  const std::size_t cut = st.spans.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) {
    (st.root_of[i] % 2 == 0 ? even : odd).on_span(st.spans[i]);
  }
  ASSERT_GT(even.pending_spans(), 0u);
  ASSERT_GT(odd.pending_spans(), 0u);
  const std::size_t held = even.pending_spans() + odd.pending_spans();
  even.merge(odd);
  EXPECT_EQ(even.pending_spans(), held);
  for (std::size_t i = cut; i < st.spans.size(); ++i) even.on_span(st.spans[i]);
  EXPECT_EQ(even.pending_spans(), 0u);
  EXPECT_EQ(even.report(), single.report());
  EXPECT_EQ(even.report().fingerprint(), single.report().fingerprint());
}

TEST(CriticalPathFold, BatchTilesHandCheckedTreesAndIgnoresOrphans) {
  // Root 1 with child 2 (and grandchild 3); span 5 hangs off a parent that
  // never closed.  Root 6's children 7 and 8 end on the same tick: the
  // later-opened one (8) owns the shared tail.  Root 6 also appears twice;
  // only its first copy folds.
  const SpanEvent root6{.start = 0, .duration = 100, .span = 6, .stage = StageKind::kOp, .info = 2};
  std::vector<SpanEvent> spans = {
      {.start = 10, .duration = 30, .span = 3, .parent = 2, .stage = StageKind::kDisk},
      {.start = 0, .duration = 50, .span = 2, .parent = 1, .stage = StageKind::kSegment},
      {.start = 0, .duration = 8, .span = 5, .parent = 4, .stage = StageKind::kDisk},
      {.start = 40, .duration = 40, .span = 8, .parent = 6, .stage = StageKind::kNetReq},
      root6,
      {.start = 0, .duration = 60, .span = 1, .parent = 0, .stage = StageKind::kOp, .info = 1},
      {.start = 10, .duration = 70, .span = 7, .parent = 6, .stage = StageKind::kDisk},
      root6,
  };
  const CriticalPathReport r = critical_path(spans);
  EXPECT_EQ(r.roots, 2u);
  EXPECT_EQ(r.spans, 6u);
  const auto& one = r.rows[1];
  EXPECT_EQ(one.total_latency, 60);
  EXPECT_EQ(one.exclusive[static_cast<int>(StageKind::kOp)], 10);
  EXPECT_EQ(one.exclusive[static_cast<int>(StageKind::kSegment)], 20);
  EXPECT_EQ(one.exclusive[static_cast<int>(StageKind::kDisk)], 30);
  const auto& six = r.rows[2];
  EXPECT_EQ(six.ops, 1u);
  EXPECT_EQ(six.exclusive[static_cast<int>(StageKind::kOp)], 30);
  EXPECT_EQ(six.exclusive[static_cast<int>(StageKind::kNetReq)], 40);
  EXPECT_EQ(six.exclusive[static_cast<int>(StageKind::kDisk)], 30);
}

}  // namespace
}  // namespace sio::obs
