// Structural and behavioral tests for the PRISM workload model: Table 4
// mode/activity invariants, checkpoint structure (Figure 9), the
// buffering-disabled read blow-up (Table 5, version C), and phase windows.

#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"

namespace sio::apps::prism {
namespace {

using core::RunResult;
using pablo::IoOp;

Workload small() {
  Workload w;
  w.nodes = 8;
  w.steps = 100;
  w.checkpoint_every = 20;  // five checkpoints, as in the paper's setup
  w.step_compute = sim::milliseconds(400);
  w.param_reads = 10;
  w.conn_text_reads = 20;
  w.conn_binary_reads = 5;
  w.phase1_setup = {sim::seconds(1), sim::seconds(1), sim::seconds(1)};
  return w;
}

RunResult run_small(Version v) {
  auto cfg = make_config(v, small());
  cfg.workload.phase1_setup = {sim::seconds(1), sim::seconds(1), sim::seconds(1)};
  return core::run_prism(cfg);
}

std::uint64_t ops_of(const RunResult& r, IoOp op) {
  std::uint64_t n = 0;
  for (const auto& ev : r.events) {
    if (ev.op == op) ++n;
  }
  return n;
}

sim::Tick op_time(const RunResult& r, IoOp op) {
  sim::Tick t = 0;
  for (const auto& ev : r.events) {
    if (ev.op == op) t += ev.duration;
  }
  return t;
}

TEST(PrismStructure, ThreePhasesCoverTheRun) {
  const auto r = run_small(Version::B);
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases.front().t0, 0);
  EXPECT_EQ(r.phases.back().t1, r.exec_time);
}

TEST(PrismStructure, AllNodesReadInPhaseOneInEveryVersion) {
  for (Version v : {Version::A, Version::B, Version::C}) {
    const auto r = run_small(v);
    const auto& p1 = r.phase("phase1");
    std::set<int> readers;
    for (const auto& ev : r.events) {
      if (ev.op == IoOp::kRead && ev.start < p1.t1) readers.insert(ev.node);
    }
    EXPECT_EQ(readers.size(), 8u) << version_name(v);
  }
}

TEST(PrismStructure, PhaseTwoWritesOnlyThroughNodeZero) {
  for (Version v : {Version::A, Version::B, Version::C}) {
    const auto r = run_small(v);
    const auto& p2 = r.phase("phase2");
    for (const auto& ev : r.events) {
      if (ev.op == IoOp::kWrite && ev.start >= p2.t0 && ev.start < p2.t1) {
        EXPECT_EQ(ev.node, 0) << version_name(v);
      }
    }
  }
}

TEST(PrismStructure, PhaseThreeFieldWrittenByAllNodesInBandC) {
  for (Version v : {Version::B, Version::C}) {
    const auto r = run_small(v);
    const auto& p3 = r.phase("phase3");
    std::set<int> writers;
    for (const auto& ev : r.events) {
      if (ev.op == IoOp::kWrite && ev.start >= p3.t0) writers.insert(ev.node);
    }
    EXPECT_EQ(writers.size(), 8u) << version_name(v);
  }
}

TEST(PrismStructure, PhaseThreeFieldWrittenByNodeZeroInA) {
  const auto r = run_small(Version::A);
  const auto& p3 = r.phase("phase3");
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kWrite && ev.start >= p3.t0) {
      EXPECT_EQ(ev.node, 0);
    }
  }
}

TEST(PrismStructure, VersionBUsesIomodeNotGopen) {
  const auto r = run_small(Version::B);
  EXPECT_GT(ops_of(r, IoOp::kIomode), 0u);
  EXPECT_GT(ops_of(r, IoOp::kOpen), 0u);
  // Version B predates the gopen switch except for the field file.
  EXPECT_LE(ops_of(r, IoOp::kGopen), 8u);
}

TEST(PrismStructure, VersionCUsesGopenNotIomode) {
  const auto r = run_small(Version::C);
  EXPECT_GT(ops_of(r, IoOp::kGopen), 0u);
  EXPECT_EQ(ops_of(r, IoOp::kIomode), 0u);
}

TEST(PrismStructure, VersionCFlushesTheRestartFile) {
  const auto r = run_small(Version::C);
  EXPECT_EQ(ops_of(r, IoOp::kFlush), 8u);  // one per node
  EXPECT_EQ(ops_of(run_small(Version::A), IoOp::kFlush), 0u);
}

TEST(PrismData, BinaryConnectivityReducesSmallReads) {
  const auto rb = run_small(Version::B);
  const auto rc = run_small(Version::C);
  EXPECT_LT(ops_of(rc, IoOp::kRead), ops_of(rb, IoOp::kRead));
}

TEST(PrismData, BodyReadsUseThePaper155584ByteRequests) {
  const auto r = run_small(Version::B);
  std::uint64_t body_reads = 0;
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kRead && ev.bytes == 155584) ++body_reads;
  }
  EXPECT_EQ(body_reads, 8u);  // one record per node
}

TEST(PrismBehavior, DisabledBufferingBlowsUpReadTime) {
  // The paper's version-C centerpiece: read time explodes even though the
  // request stream shrinks.
  const auto rb = run_small(Version::B);
  const auto rc = run_small(Version::C);
  EXPECT_GT(op_time(rc, IoOp::kRead), op_time(rb, IoOp::kRead) * 5);
}

TEST(PrismBehavior, CheckpointsProduceFiveWriteBursts) {
  const auto r = run_small(Version::C);
  const auto& p2 = r.phase("phase2");
  auto series = r.op_timeline(IoOp::kWrite);
  std::erase_if(series, [](const pablo::TimelinePoint& p) { return p.bytes < 512; });
  const auto profile = pablo::burst_profile(series, p2.t0, p2.t1, 40);
  EXPECT_EQ(pablo::count_bursts(profile), 5);
}

TEST(PrismBehavior, MeasurementWrittenEveryStep) {
  const auto w = small();
  const auto r = run_small(Version::A);
  std::uint64_t measure_writes = 0;
  for (const auto& ev : r.events) {
    if (ev.op == IoOp::kWrite && ev.bytes == w.measure_write) ++measure_writes;
  }
  EXPECT_EQ(measure_writes, static_cast<std::uint64_t>(w.steps));
}

TEST(PrismBehavior, ExecutionTimeDropsAcrossVersions) {
  const auto ra = run_small(Version::A);
  const auto rb = run_small(Version::B);
  const auto rc = run_small(Version::C);
  EXPECT_GT(ra.exec_time, rb.exec_time);
  EXPECT_GT(rb.exec_time, rc.exec_time);
}

TEST(PrismBehavior, DeterministicPerSeed) {
  const auto r1 = run_small(Version::C);
  const auto r2 = run_small(Version::C);
  EXPECT_EQ(r1.exec_time, r2.exec_time);
  EXPECT_EQ(r1.events.size(), r2.events.size());
}

TEST(PrismConfig, DefaultsMatchThePaperSetup) {
  const auto w = cylinder();
  EXPECT_EQ(w.nodes, 64);
  EXPECT_EQ(w.elements, 201);
  EXPECT_EQ(w.reynolds, 1000);
  EXPECT_EQ(w.steps, 1250);
  EXPECT_EQ(w.checkpoint_every, 250);
  EXPECT_EQ(w.body_record, 155584u);
}

TEST(PrismConfig, ThreeVersionsAreOrdered) {
  const auto versions = three_versions();
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].version, Version::A);
  EXPECT_EQ(versions[2].version, Version::C);
  EXPECT_GT(versions[0].compute_scale, versions[2].compute_scale);
}

class PrismVersions : public ::testing::TestWithParam<Version> {};

TEST_P(PrismVersions, EveryOpenOrGopenIsEventuallyClosed) {
  const auto r = run_small(GetParam());
  EXPECT_EQ(ops_of(r, IoOp::kOpen) + ops_of(r, IoOp::kGopen), ops_of(r, IoOp::kClose));
}

TEST_P(PrismVersions, EventsLieWithinTheRun) {
  const auto r = run_small(GetParam());
  EXPECT_GT(r.events.size(), 50u);
  for (const auto& ev : r.events) {
    EXPECT_GE(ev.start, 0);
    EXPECT_LE(ev.end(), r.exec_time);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, PrismVersions,
                         ::testing::Values(Version::A, Version::B, Version::C));

}  // namespace
}  // namespace sio::apps::prism
