// Building your own workload on the public API: a checkpointing stencil
// application (the paper's third I/O class, alongside compulsory and data
// staging I/O).  Every node computes, and every K steps the application
// checkpoints its state — either naively (each node many small M_UNIX
// writes) or tuned (aggregated, stripe-aligned M_ASYNC writes), with and
// without the §7 file-system policies.  The Pablo layer then reports the
// burst structure and cost of each variant.
//
// The library version of this workload lives in `src/apps/ckpt.*` (per-epoch
// files, restart read-storm, journal-ablation hooks — see `bench_ckpt`);
// this example stays self-contained to show the raw API.
//
//   ./build/examples/custom_checkpoint_app

#include <cstdio>

#include "core/sio.hpp"

namespace {

using namespace sio;

constexpr int kNodes = 32;
constexpr int kSteps = 40;
constexpr int kCheckpointEvery = 10;
constexpr std::uint64_t kStatePerNode = 256 * 1024;

struct Variant {
  const char* name;
  bool tuned;              // aggregated stripe-aligned M_ASYNC vs tiny M_UNIX
  int prefetch_units;      // server policy for the restart read-back
};

sim::Task<void> app_node(pfs::Pfs& fs, pfs::Group& group,
                         apps::ComputeModel& compute, int node, bool tuned) {
  pfs::OpenOptions opts;
  opts.truncate = true;
  if (tuned) opts.mode = pfs::IoMode::kAsync;
  auto ckpt = co_await fs.gopen(node, "app/checkpoint", group, opts);
  const int rank = group.rank_of(node);

  for (int step = 1; step <= kSteps; ++step) {
    co_await compute.run(node, sim::milliseconds(800), 0.05);
    if (step % kCheckpointEvery != 0) continue;

    // Checkpoint: dump this node's state slab.
    const std::uint64_t base = static_cast<std::uint64_t>(rank) * kStatePerNode;
    if (tuned) {
      // Stripe-sized direct writes.
      co_await ckpt.seek(base);
      for (std::uint64_t off = 0; off < kStatePerNode; off += 64 * 1024) {
        co_await ckpt.write(64 * 1024);
      }
    } else {
      // The "natural" version: a few thousand small variable writes.
      co_await ckpt.seek(base);
      for (std::uint64_t off = 0; off < kStatePerNode; off += 1024) {
        co_await ckpt.write(1024);
      }
    }
  }
  co_await ckpt.close();

  // Restart read-back: every node re-reads its slab sequentially.
  auto rd = co_await fs.gopen(node, "app/checkpoint", group,
                              {.mode = pfs::IoMode::kAsync});
  co_await rd.seek(static_cast<std::uint64_t>(rank) * kStatePerNode);
  for (std::uint64_t off = 0; off < kStatePerNode; off += 64 * 1024) {
    co_await rd.read(64 * 1024);
  }
  co_await rd.close();
}

void run_variant(const Variant& v) {
  hw::Machine machine(hw::Machine::caltech_paragon(kNodes));
  pablo::Collector collector(machine.engine());
  pfs::Pfs fs(machine, collector,
              pfs::PfsConfig{pfs::with_prefetch(pfs::ServerConfig{}, v.prefetch_units),
                             pfs::ContentPolicy::kExtentsOnly});
  auto group = pfs::Group::contiguous(machine.engine(), kNodes);
  apps::ComputeModel compute(machine.engine(), 7, kNodes);

  machine.engine().spawn(
      apps::parallel_section(machine.engine(), kNodes, [&](int node) -> sim::Task<void> {
        co_await app_node(fs, *group, compute, node, v.tuned);
      }));
  machine.engine().run();

  const pablo::AggregateBreakdown b(collector, machine.engine().now());
  const auto writes = pablo::timeline(collector, pablo::IoOp::kWrite);
  const auto bursts =
      pablo::count_bursts(pablo::burst_profile(writes, 0, machine.engine().now(), 48));
  std::printf("%-28s wall %7.2fs  io %7.2fs (%5.2f%%)  write-bursts %d\n", v.name,
              sim::to_seconds(machine.engine().now()), sim::to_seconds(b.total_io_time()),
              b.pct_io_of_exec(), bursts);
}

}  // namespace

int main() {
  std::printf("Checkpointing stencil app, %d nodes, %d steps, checkpoint every %d:\n\n",
              kNodes, kSteps, kCheckpointEvery);
  run_variant({"naive (1KB M_UNIX writes)", false, 0});
  run_variant({"tuned (64KB M_ASYNC writes)", true, 0});
  run_variant({"tuned + server prefetch", true, 2});
  std::printf(
      "\nThe checkpoint bursts mirror PRISM's Figure 9; the naive/tuned gap is the\n"
      "hand-aggregation the paper argues the file system should do for you.\n");
  return 0;
}
