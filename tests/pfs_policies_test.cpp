// Tests for the §7 design-principle policies: request aggregation,
// prefetching presets, and write-behind configuration.

#include <gtest/gtest.h>

#include "apps/common.hpp"
#include "machine/machine.hpp"
#include "pablo/collector.hpp"
#include "pfs/pfs.hpp"
#include "pfs/policies.hpp"

namespace sio::pfs {
namespace {

struct Fixture {
  hw::Machine machine;
  pablo::Collector collector;
  Pfs fs;

  explicit Fixture(ServerConfig server = {})
      : machine(hw::Machine::caltech_paragon(8)),
        collector(machine.engine()),
        fs(machine, collector, PfsConfig{server, ContentPolicy::kExtentsOnly}) {}

  void run(sim::Task<void> t) {
    machine.engine().spawn(std::move(t));
    machine.engine().run();
  }
};

TEST(Presets, WithPrefetchSetsUnits) {
  const auto cfg = with_prefetch(ServerConfig{}, 3);
  EXPECT_EQ(cfg.prefetch_units, 3);
}

TEST(Presets, WithWriteBehindSetsDirtyLimit) {
  const auto cfg = with_write_behind(ServerConfig{}, 7);
  EXPECT_EQ(cfg.dirty_limit, 7u);
}

sim::Task<void> aggregate_sequential(RequestAggregator& agg, int writes,
                                     std::uint64_t chunk) {
  for (int i = 0; i < writes; ++i) {
    co_await agg.submit(static_cast<std::uint64_t>(i) * chunk, chunk);
  }
  co_await agg.drain();
}

TEST(RequestAggregator, CoalescesSmallSequentialWrites) {
  Fixture f;
  auto& file = f.fs.stage_file("p/agg", 0);
  RequestAggregator agg(f.fs, file, 0);
  // 64 writes of 2 KB = 128 KB = exactly two stripe units.
  f.run(aggregate_sequential(agg, 64, 2048));
  EXPECT_EQ(agg.submitted_bytes(), 64u * 2048);
  EXPECT_EQ(agg.flushes(), 2u);  // two unit-sized transfers, not 64 small ones
  EXPECT_EQ(file.size, 64u * 2048);
}

sim::Task<void> aggregate_gap(RequestAggregator& agg) {
  co_await agg.submit(0, 1000);
  co_await agg.submit(5000, 1000);  // non-contiguous -> flush pending first
  co_await agg.drain();
}

TEST(RequestAggregator, NonContiguousSubmissionFlushes) {
  Fixture f;
  auto& file = f.fs.stage_file("p/gap", 0);
  RequestAggregator agg(f.fs, file, 0);
  f.run(aggregate_gap(agg));
  EXPECT_EQ(agg.flushes(), 2u);
}

TEST(RequestAggregator, DrainOnEmptyIsNoop) {
  Fixture f;
  auto& file = f.fs.stage_file("p/empty", 0);
  RequestAggregator agg(f.fs, file, 0);
  f.run(agg.drain());
  EXPECT_EQ(agg.flushes(), 0u);
}

// The headline policy claim: a version-A-style stream of small unaligned
// writes costs less total time when routed through the aggregator.
sim::Task<void> direct_small_writes(Fixture& f, FileState& file, int n) {
  for (int i = 0; i < n; ++i) {
    co_await f.fs.transfer(0, file, static_cast<std::uint64_t>(i) * 2048, 2048,
                           /*is_write=*/true, /*buffered=*/true);
  }
}

TEST(RequestAggregator, BeatsDirectSmallTransfers) {
  sim::Tick direct, aggregated;
  {
    Fixture f;
    auto& file = f.fs.stage_file("p/direct", 0);
    f.run(direct_small_writes(f, file, 256));
    direct = f.machine.engine().now();
  }
  {
    Fixture f;
    auto& file = f.fs.stage_file("p/viaagg", 0);
    RequestAggregator agg(f.fs, file, 0);
    f.run(aggregate_sequential(agg, 256, 2048));
    aggregated = f.machine.engine().now();
  }
  EXPECT_LT(aggregated, direct);
}

// Prefetching pays off on a sequential whole-file scan.
sim::Task<void> sequential_scan(Fixture& f, int units) {
  auto& file = f.fs.stage_file("p/scan", static_cast<std::uint64_t>(units) * 64 * 1024);
  for (int u = 0; u < units; ++u) {
    co_await f.fs.fetch_unit(0, file, static_cast<std::uint64_t>(u));
  }
}

TEST(Prefetch, SpeedsUpSequentialScan) {
  sim::Tick base, prefetched;
  {
    Fixture f;
    f.run(sequential_scan(f, 128));
    base = f.machine.engine().now();
  }
  {
    Fixture f(with_prefetch(ServerConfig{}, 2));
    f.run(sequential_scan(f, 128));
    prefetched = f.machine.engine().now();
  }
  EXPECT_LT(prefetched, base);
}

TEST(WriteBehind, WriteThroughIsSlowerThanWriteBack) {
  auto run_writes = [](std::size_t dirty_limit) {
    Fixture f(with_write_behind(ServerConfig{}, dirty_limit));
    auto& file = f.fs.stage_file("p/wb", 0);
    f.machine.engine().spawn([](Fixture& fx, FileState& fl) -> sim::Task<void> {
      for (int i = 0; i < 64; ++i) {
        co_await fx.fs.transfer(0, fl, static_cast<std::uint64_t>(i) * 65536, 65536,
                                /*is_write=*/true, /*buffered=*/true);
      }
    }(f, file));
    f.machine.engine().run();
    return f.machine.engine().now();
  };
  const sim::Tick write_back = run_writes(128);
  const sim::Tick write_through = run_writes(0);
  EXPECT_LT(write_back, write_through);
}

}  // namespace
}  // namespace sio::pfs
