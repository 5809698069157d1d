// Tests for the Pablo analysis layer: collector ordering, file lifetime /
// time window / file region summaries, and aggregate breakdowns.

#include <gtest/gtest.h>

#include "pablo/aggregate.hpp"
#include "pablo/collector.hpp"
#include "pablo/summary.hpp"
#include "sim/engine.hpp"

namespace sio::pablo {
namespace {

TraceEvent ev(sim::Tick start, sim::Tick dur, int node, FileId file, IoOp op,
              std::uint64_t offset = 0, std::uint64_t bytes = 0) {
  TraceEvent e;
  e.start = start;
  e.duration = dur;
  e.node = node;
  e.file = file;
  e.op = op;
  e.offset = offset;
  e.bytes = bytes;
  return e;
}

struct Fixture {
  sim::Engine engine;
  Collector col{engine};
  FileId fa = col.register_file("a");
  FileId fb = col.register_file("b");
};

TEST(Collector, RegisterFileIsIdempotent) {
  Fixture f;
  EXPECT_EQ(f.col.register_file("a"), f.fa);
  EXPECT_EQ(f.col.file_count(), 2u);
  EXPECT_EQ(f.col.file_name(f.fb), "b");
}

TEST(Collector, EventsAreSortedByStart) {
  Fixture f;
  f.col.record(ev(sim::seconds(5), 1, 0, f.fa, IoOp::kRead));
  f.col.record(ev(sim::seconds(1), 1, 0, f.fa, IoOp::kRead));
  f.col.record(ev(sim::seconds(3), 1, 0, f.fa, IoOp::kRead));
  const auto& events = f.col.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].start, sim::seconds(1));
  EXPECT_EQ(events[2].start, sim::seconds(5));
}

TEST(Collector, DisabledCaptureDropsEvents) {
  Fixture f;
  f.col.set_enabled(false);
  f.col.record(ev(0, 1, 0, f.fa, IoOp::kRead));
  EXPECT_EQ(f.col.event_count(), 0u);
  f.col.set_enabled(true);
  f.col.record(ev(0, 1, 0, f.fa, IoOp::kRead));
  EXPECT_EQ(f.col.event_count(), 1u);
}

TEST(OpTimer, RecordsElapsedDuration) {
  Fixture f;
  f.engine.schedule_at(sim::seconds(2), [] {});
  OpTimer t(f.col, 3, f.fa, IoOp::kWrite);
  f.engine.run();  // time advances to 2s
  t.finish(100, 4096);
  const auto& e = f.col.events().front();
  EXPECT_EQ(e.duration, sim::seconds(2));
  EXPECT_EQ(e.node, 3);
  EXPECT_EQ(e.op, IoOp::kWrite);
  EXPECT_EQ(e.offset, 100u);
  EXPECT_EQ(e.bytes, 4096u);
}

TEST(LifetimeSummary, AggregatesPerFile) {
  Fixture f;
  f.col.record(ev(0, sim::seconds(1), 0, f.fa, IoOp::kOpen));
  f.col.record(ev(sim::seconds(1), sim::seconds(2), 0, f.fa, IoOp::kRead, 0, 1000));
  f.col.record(ev(sim::seconds(3), sim::seconds(1), 0, f.fa, IoOp::kWrite, 0, 500));
  f.col.record(ev(sim::seconds(9), sim::seconds(1), 0, f.fa, IoOp::kClose));
  f.col.record(ev(sim::seconds(2), sim::seconds(1), 1, f.fb, IoOp::kRead, 0, 77));

  const auto sums = file_lifetime_summaries(f.col);
  ASSERT_EQ(sums.size(), 2u);
  const auto& a = sums[f.fa];
  EXPECT_EQ(a.core.stats(IoOp::kRead).count, 1u);
  EXPECT_EQ(a.core.bytes_read(), 1000u);
  EXPECT_EQ(a.core.bytes_written(), 500u);
  EXPECT_EQ(a.core.total_io_time(), sim::seconds(5));
  EXPECT_EQ(a.core.total_ops(), 4u);
  EXPECT_EQ(a.first_open, 0);
  EXPECT_EQ(a.last_close, sim::seconds(10));
  EXPECT_EQ(a.open_span(), sim::seconds(10));

  const auto& b = sums[f.fb];
  EXPECT_EQ(b.core.bytes_read(), 77u);
  EXPECT_EQ(b.open_span(), 0);  // never opened/closed
}

TEST(TimeWindowSummary, SelectsByStartTime) {
  Fixture f;
  f.col.record(ev(sim::seconds(1), 1, 0, f.fa, IoOp::kRead, 0, 10));
  f.col.record(ev(sim::seconds(5), 1, 0, f.fa, IoOp::kRead, 0, 20));
  f.col.record(ev(sim::seconds(9), 1, 0, f.fa, IoOp::kRead, 0, 40));

  const auto w = time_window_summary(f.col, sim::seconds(2), sim::seconds(9));
  EXPECT_EQ(w.core.stats(IoOp::kRead).count, 1u);
  EXPECT_EQ(w.core.bytes_read(), 20u);
}

TEST(TimeWindowSeries, PartitionsWithoutLossOrOverlap) {
  Fixture f;
  for (int i = 0; i < 100; ++i) {
    f.col.record(ev(sim::seconds(i), 1, 0, f.fa, IoOp::kRead, 0, 1));
  }
  const auto series = time_window_series(f.col, 0, sim::seconds(100), 7);
  ASSERT_EQ(series.size(), 7u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    total += series[i].core.stats(IoOp::kRead).count;
    if (i > 0) {
      EXPECT_EQ(series[i].t0, series[i - 1].t1);
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(FileRegionSummary, SelectsIntersectingDataOps) {
  Fixture f;
  f.col.record(ev(0, 1, 0, f.fa, IoOp::kRead, 0, 100));      // [0,100)
  f.col.record(ev(0, 1, 0, f.fa, IoOp::kRead, 150, 100));    // [150,250)
  f.col.record(ev(0, 1, 0, f.fa, IoOp::kWrite, 240, 100));   // [240,340)
  f.col.record(ev(0, 1, 0, f.fa, IoOp::kOpen, 0, 0));        // not a data op
  f.col.record(ev(0, 1, 0, f.fb, IoOp::kRead, 150, 100));    // other file

  const auto r = file_region_summary(f.col, f.fa, 200, 300);
  EXPECT_EQ(r.core.stats(IoOp::kRead).count, 1u);
  EXPECT_EQ(r.core.stats(IoOp::kWrite).count, 1u);
  EXPECT_EQ(r.core.stats(IoOp::kOpen).count, 0u);
}

TEST(AggregateBreakdown, PercentagesAreConsistent) {
  Fixture f;
  f.col.record(ev(0, sim::seconds(3), 0, f.fa, IoOp::kOpen));
  f.col.record(ev(0, sim::seconds(1), 0, f.fa, IoOp::kRead, 0, 10));
  const AggregateBreakdown b(f.col, sim::seconds(100));
  EXPECT_DOUBLE_EQ(b.pct_of_io_time(IoOp::kOpen), 75.0);
  EXPECT_DOUBLE_EQ(b.pct_of_io_time(IoOp::kRead), 25.0);
  EXPECT_DOUBLE_EQ(b.pct_of_exec_time(IoOp::kOpen), 3.0);
  EXPECT_DOUBLE_EQ(b.pct_io_of_exec(), 4.0);
  EXPECT_EQ(b.dominant_op(), IoOp::kOpen);

  // The Table 2 / Table 3 consistency identity the paper's tables satisfy:
  // pct_of_exec = pct_of_io * (io/exec).
  EXPECT_NEAR(b.pct_of_exec_time(IoOp::kOpen),
              b.pct_of_io_time(IoOp::kOpen) * b.pct_io_of_exec() / 100.0, 1e-9);
}

TEST(AggregateBreakdown, IoSharesSumToHundred) {
  Fixture f;
  f.col.record(ev(0, 123, 0, f.fa, IoOp::kOpen));
  f.col.record(ev(0, 456, 0, f.fa, IoOp::kSeek));
  f.col.record(ev(0, 789, 0, f.fa, IoOp::kWrite, 0, 10));
  const AggregateBreakdown b(f.col, sim::seconds(1));
  double total = 0;
  for (int i = 0; i < kIoOpCount; ++i) total += b.pct_of_io_time(static_cast<IoOp>(i));
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(AggregateBreakdown, EmptyTraceIsAllZero) {
  Fixture f;
  const AggregateBreakdown b(f.col, sim::seconds(1));
  EXPECT_EQ(b.total_io_time(), 0);
  EXPECT_DOUBLE_EQ(b.pct_of_io_time(IoOp::kRead), 0.0);
}

}  // namespace
}  // namespace sio::pablo
