// Structural and behavioral tests for the ESCAT workload model: per-version
// access modes and node activity (Table 1 invariants), request-size
// structure (Figure 2 invariants), phase ordering, and determinism.

#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"

namespace sio::apps::escat {
namespace {

using core::RunResult;
using pablo::IoOp;

// Small workload so each version runs in milliseconds.
Workload small() {
  Workload w;
  w.nodes = 16;
  w.channels = 2;
  w.init_small_reads = 10;
  w.quad_cycles = 8;
  w.reload_record = 16 * 1024;  // one wave: 8*16*2048 = 16 nodes * 16 KB
  w.phase1_setup_compute = sim::seconds(1);
  w.phase2_cycle_compute = sim::seconds(2);
  w.phase3_energy_compute = sim::seconds(3);
  return w;
}

RunResult run_small(Version v) {
  auto cfg = make_config(v, small());
  return core::run_escat(cfg);
}

std::uint64_t ops_of(const RunResult& r, IoOp op) {
  std::uint64_t n = 0;
  for (const auto& ev : r.events) {
    if (ev.op == op) ++n;
  }
  return n;
}

std::set<int> nodes_doing(const RunResult& r, IoOp op) {
  std::set<int> nodes;
  for (const auto& ev : r.events) {
    if (ev.op == op) nodes.insert(ev.node);
  }
  return nodes;
}

TEST(EscatStructure, VersionAAllNodesReadInPhaseOne) {
  const auto r = run_small(Version::A);
  const auto& p1 = r.phase("phase1");
  std::set<int> readers;
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kRead && ev.start < p1.t1) readers.insert(ev.node);
  }
  EXPECT_EQ(readers.size(), 16u);  // compulsory reads on every node
}

TEST(EscatStructure, VersionBOnlyNodeZeroReadsInPhaseOne) {
  const auto r = run_small(Version::B);
  const auto& p1 = r.phase("phase1");
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kRead && ev.start < p1.t1) {
      EXPECT_EQ(ev.node, 0);
    }
  }
}

TEST(EscatStructure, VersionAWritesOnlyThroughNodeZero) {
  const auto r = run_small(Version::A);
  EXPECT_EQ(nodes_doing(r, IoOp::kWrite), std::set<int>{0});
}

TEST(EscatStructure, VersionsBCWriteFromAllNodes) {
  for (Version v : {Version::B, Version::C}) {
    const auto r = run_small(v);
    EXPECT_EQ(nodes_doing(r, IoOp::kWrite).size(), 16u) << version_name(v);
  }
}

TEST(EscatStructure, VersionAUsesNoGopenOrIomode) {
  const auto r = run_small(Version::A);
  EXPECT_EQ(ops_of(r, IoOp::kGopen), 0u);
  EXPECT_EQ(ops_of(r, IoOp::kIomode), 0u);
  EXPECT_GT(ops_of(r, IoOp::kOpen), 0u);
}

TEST(EscatStructure, VersionsBCUseGopen) {
  for (Version v : {Version::B, Version::C}) {
    const auto r = run_small(v);
    EXPECT_GT(ops_of(r, IoOp::kGopen), 0u) << version_name(v);
  }
}

TEST(EscatStructure, VersionCHasIomodeForAsyncAndRecord) {
  const auto rb = run_small(Version::B);
  const auto rc = run_small(Version::C);
  // C sets M_ASYNC (phase 2) in addition to M_RECORD (phase 3).
  EXPECT_GT(ops_of(rc, IoOp::kIomode), ops_of(rb, IoOp::kIomode));
}

TEST(EscatStructure, PhasesAreOrderedAndCoverTheRun) {
  const auto r = run_small(Version::C);
  ASSERT_EQ(r.phases.size(), 4u);
  for (std::size_t i = 1; i < r.phases.size(); ++i) {
    EXPECT_EQ(r.phases[i - 1].t1, r.phases[i].t0);
  }
  EXPECT_EQ(r.phases.front().t0, 0);
  EXPECT_EQ(r.phases.back().t1, r.exec_time);
}

TEST(EscatData, QuadratureVolumeMatchesWorkload) {
  const auto w = small();
  const auto r = run_small(Version::C);
  std::uint64_t quad_written = 0;
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kWrite && ev.bytes == w.quad_chunk) quad_written += ev.bytes;
  }
  EXPECT_EQ(quad_written,
            w.quad_bytes_per_channel() * static_cast<std::uint64_t>(w.channels));
}

TEST(EscatData, ReloadUsesRecordSizedReads) {
  const auto w = small();
  const auto r = run_small(Version::C);
  std::uint64_t reload_bytes = 0;
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kRead && ev.bytes == w.reload_record) reload_bytes += ev.bytes;
  }
  EXPECT_EQ(reload_bytes,
            w.quad_bytes_per_channel() * static_cast<std::uint64_t>(w.channels));
}

TEST(EscatData, VersionAWritesUseTheFourSizePattern) {
  const auto r = run_small(Version::A);
  std::set<std::uint64_t> sizes;
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kWrite) sizes.insert(ev.bytes);
  }
  // Quadrature pattern {3072, 2048, 1024, 512} plus the result writes (1536).
  EXPECT_TRUE(sizes.count(3072));
  EXPECT_TRUE(sizes.count(2048));
  EXPECT_TRUE(sizes.count(1024));
  EXPECT_TRUE(sizes.count(512));
  for (const auto s : sizes) EXPECT_LE(s, 3072u);  // all writes small (Fig. 4)
}

TEST(EscatData, VersionCWritesAreUniform) {
  const auto w = small();
  const auto r = run_small(Version::C);
  const auto& p2 = r.phase("phase2");
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kWrite && ev.start >= p2.t0 && ev.start < p2.t1) {
      EXPECT_EQ(ev.bytes, w.quad_chunk);
    }
  }
}

TEST(EscatBehavior, SeeksCollapseFromBToC) {
  const auto rb = run_small(Version::B);
  const auto rc = run_small(Version::C);
  const auto seek_time = [](const RunResult& r) {
    sim::Tick t = 0;
    for (const auto& ev : r.events) {
      if (ev.op == IoOp::kSeek) t += ev.duration;
    }
    return t;
  };
  EXPECT_EQ(ops_of(rb, IoOp::kSeek), ops_of(rc, IoOp::kSeek));  // same count...
  EXPECT_GT(seek_time(rb), seek_time(rc) * 20);                 // ...tiny cost in C
}

TEST(EscatBehavior, ReadsClusterAtStartAndEnd) {
  const auto r = run_small(Version::C);
  const auto& p2 = r.phase("phase2");
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kRead) {
      EXPECT_TRUE(ev.start < p2.t0 || ev.start >= p2.t1);
    }
  }
}

TEST(EscatBehavior, RunsAreDeterministicPerSeed) {
  const auto a1 = run_small(Version::B);
  const auto a2 = run_small(Version::B);
  EXPECT_EQ(a1.exec_time, a2.exec_time);
  EXPECT_EQ(a1.events.size(), a2.events.size());
  const auto b = core::run_escat(make_config(Version::B, small()), /*seed=*/999);
  EXPECT_NE(a1.exec_time, b.exec_time);
}

TEST(EscatConfig, SixProgressionsDescendInTime) {
  const auto runs = six_progressions();
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs.front().version, Version::A);
  EXPECT_EQ(runs.back().version, Version::C);
}

TEST(EscatConfig, OsAssignmentFollowsTable1) {
  EXPECT_FALSE(os_for(Version::A).has_masync);
  EXPECT_FALSE(os_for(Version::B).has_masync);
  EXPECT_TRUE(os_for(Version::C).has_masync);
}

TEST(EscatConfig, CarbonMonoxideScalesThePlatform) {
  const auto co = carbon_monoxide();
  EXPECT_EQ(co.nodes, 256);
  EXPECT_EQ(co.channels, 13);
  EXPECT_GT(co.quad_bytes_per_channel() * static_cast<std::uint64_t>(co.channels),
            ethylene().quad_bytes_per_channel() * 2);
  EXPECT_EQ(co.quad_bytes_per_channel() %
                (static_cast<std::uint64_t>(co.nodes) * co.reload_record),
            0u);
}

// Parameterized: the quadrature invariants hold for every version.
class EscatVersions : public ::testing::TestWithParam<Version> {};

TEST_P(EscatVersions, TraceIsNonEmptyAndWithinExecTime) {
  const auto r = run_small(GetParam());
  EXPECT_GT(r.events.size(), 100u);
  for (const auto& ev : r.events) {
    EXPECT_GE(ev.start, 0);
    EXPECT_LE(ev.end(), r.exec_time);
    EXPECT_GE(ev.duration, 0);
  }
}

TEST_P(EscatVersions, EveryOpenOrGopenIsEventuallyClosed) {
  const auto r = run_small(GetParam());
  const auto opens = ops_of(r, IoOp::kOpen) + ops_of(r, IoOp::kGopen);
  EXPECT_EQ(opens, ops_of(r, IoOp::kClose));
}

INSTANTIATE_TEST_SUITE_P(AllVersions, EscatVersions,
                         ::testing::Values(Version::A, Version::B, Version::C));

}  // namespace
}  // namespace sio::apps::escat
