// End-to-end integration tests across subsystems: the paper's §6 comparison
// claims, the carbon-monoxide scaling column, the §7 policy ablations on
// application-shaped workloads, and full-stack determinism.

#include <gtest/gtest.h>

#include "apps/common.hpp"
#include "core/experiment.hpp"
#include "pfs/policies.hpp"

namespace sio {
namespace {

using core::RunResult;
using pablo::IoOp;

TEST(Integration, CarbonMonoxideMakesIoAFirstOrderCost) {
  // Table 3, last column: on the 256-node carbon-monoxide problem, total
  // I/O grows to ~20% of execution time even for the optimized version C.
  const auto ethylene_c = core::run_escat(apps::escat::make_config(apps::escat::Version::C));
  const auto co = core::run_escat_carbon_monoxide();
  const double small_share = ethylene_c.breakdown().pct_io_of_exec();
  const double big_share = co.breakdown().pct_io_of_exec();
  EXPECT_LT(small_share, 3.0);
  EXPECT_GT(big_share, 10.0);
  EXPECT_LT(big_share, 30.0);
  // gopen and read dominate the CO column, as in the paper.
  const auto b = co.breakdown();
  EXPECT_GT(b.pct_of_io_time(IoOp::kRead) + b.pct_of_io_time(IoOp::kGopen), 60.0);
}

TEST(Integration, BothCodesShareTheThreePhaseStructure) {
  // §6: compulsory reads first, computation with output in the middle,
  // final results last.
  const auto escat = core::run_escat(apps::escat::make_config(apps::escat::Version::C));
  const auto prism = core::run_prism(apps::prism::make_config(apps::prism::Version::C));
  for (const RunResult* r : {&escat, &prism}) {
    const auto& first = r->phases.front();
    std::uint64_t early_reads = 0;
    for (const auto& ev : r->events) {
      if (ev.op == IoOp::kRead && ev.start < first.t1) ++early_reads;
    }
    EXPECT_GT(early_reads, 0u);
    // The final phase produces writes.
    const auto& last = r->phases.back();
    std::uint64_t late_writes = 0;
    for (const auto& ev : r->events) {
      if (ev.op == IoOp::kWrite && ev.start >= last.t0) ++late_writes;
    }
    EXPECT_GT(late_writes, 0u);
  }
}

TEST(Integration, SmallCodeChangesLargeIoChanges) {
  // §6: "small code changes can produce large changes in I/O performance".
  // B -> C of ESCAT changes one access mode (M_UNIX -> M_ASYNC in phase 2)
  // and cuts total I/O time several-fold.
  const auto b = core::run_escat(apps::escat::make_config(apps::escat::Version::B));
  const auto c = core::run_escat(apps::escat::make_config(apps::escat::Version::C));
  const auto io_b = b.breakdown().total_io_time();
  const auto io_c = c.breakdown().total_io_time();
  EXPECT_GT(io_b, io_c * 3);
}

TEST(Integration, FullStudyIsBitDeterministic) {
  const auto s1 = core::run_escat_study(42);
  const auto s2 = core::run_escat_study(42);
  EXPECT_EQ(s1.a.exec_time, s2.a.exec_time);
  EXPECT_EQ(s1.b.exec_time, s2.b.exec_time);
  EXPECT_EQ(s1.c.exec_time, s2.c.exec_time);
  ASSERT_EQ(s1.b.events.size(), s2.b.events.size());
  for (std::size_t i = 0; i < s1.b.events.size(); i += 997) {
    EXPECT_EQ(s1.b.events[i].start, s2.b.events[i].start);
    EXPECT_EQ(s1.b.events[i].duration, s2.b.events[i].duration);
  }
}

// §7 ablation on an application-shaped workload: a version-A-style stream
// (many small sequential writes from one coordinator) approaches tuned
// performance when the file system aggregates and prefetches for it.
struct AblationFixture {
  hw::Machine machine;
  pablo::Collector collector;
  pfs::Pfs fs;

  explicit AblationFixture(pfs::ServerConfig server)
      : machine(hw::Machine::caltech_paragon(16)),
        collector(machine.engine()),
        fs(machine, collector, pfs::PfsConfig{server, pfs::ContentPolicy::kExtentsOnly}) {}
};

sim::Task<void> naive_stage_and_reload(AblationFixture& f, bool aggregate) {
  auto& file = f.fs.stage_file("i/stage", 0);
  constexpr int kChunks = 512;
  constexpr std::uint64_t kChunk = 2048;
  if (aggregate) {
    pfs::RequestAggregator agg(f.fs, file, 0);
    for (int i = 0; i < kChunks; ++i) {
      co_await agg.submit(static_cast<std::uint64_t>(i) * kChunk, kChunk);
    }
    co_await agg.drain();
  } else {
    for (int i = 0; i < kChunks; ++i) {
      co_await f.fs.transfer(0, file, static_cast<std::uint64_t>(i) * kChunk, kChunk,
                             /*is_write=*/true, /*buffered=*/true);
    }
  }
  // Reload the staged data sequentially.
  const std::uint64_t units = kChunks * kChunk / f.fs.layout().unit();
  for (std::uint64_t u = 0; u < units; ++u) {
    co_await f.fs.fetch_unit(0, file, u);
  }
}

TEST(Integration, AggregationPlusPrefetchRecoverTunedPerformance) {
  auto run_case = [](bool aggregate, int prefetch) {
    AblationFixture f(pfs::with_prefetch(pfs::ServerConfig{}, prefetch));
    f.machine.engine().spawn(naive_stage_and_reload(f, aggregate));
    f.machine.engine().run();
    return f.machine.engine().now();
  };
  const sim::Tick naive = run_case(false, 0);
  const sim::Tick assisted = run_case(true, 2);
  EXPECT_LT(assisted, naive);
}

TEST(Integration, ContentVerifiedRunProducesSameTiming) {
  // Storing bytes must not change simulated time, only memory usage.
  auto run_once = [](pfs::ContentPolicy policy) {
    hw::Machine machine(hw::Machine::caltech_paragon(8));
    pablo::Collector collector(machine.engine());
    pfs::Pfs fs(machine, collector, pfs::PfsConfig{{}, policy});
    auto group = pfs::Group::contiguous(machine.engine(), 8);
    machine.engine().spawn(
        apps::parallel_section(machine.engine(), 8, [&](int node) -> sim::Task<void> {
          auto fh = co_await fs.gopen(node, "i/same", *group,
                                      {.mode = pfs::IoMode::kAsync, .truncate = true});
          co_await fh.seek(static_cast<std::uint64_t>(node) * 10000);
          for (int i = 0; i < 20; ++i) co_await fh.write(500);
          co_await fh.close();
        }));
    machine.engine().run();
    return machine.engine().now();
  };
  EXPECT_EQ(run_once(pfs::ContentPolicy::kExtentsOnly),
            run_once(pfs::ContentPolicy::kStoreBytes));
}

TEST(Integration, TracedDurationsNeverExceedWallClock) {
  const auto r = core::run_prism(apps::prism::make_config(apps::prism::Version::B));
  for (const auto& ev : r.events) {
    EXPECT_GE(ev.duration, 0);
    EXPECT_LE(ev.duration, r.exec_time);
  }
}

}  // namespace
}  // namespace sio
