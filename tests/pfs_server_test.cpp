// Tests for the I/O-node server: stripe cache hits/misses, write-back
// behavior and dirty-limit flushing, unbuffered bypass, eviction, and the
// sequential-prefetch policy extension.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "machine/disk.hpp"
#include "pfs/server.hpp"
#include "sim/task.hpp"

namespace sio::pfs {
namespace {

constexpr std::uint64_t kUnit = 64 * 1024;

struct Fixture {
  sim::Engine engine;
  hw::DiskConfig disk{};
  ServerConfig cfg{};

  IoServer make(int prefetch = 0, std::size_t cache_units = 8, std::size_t dirty_limit = 4) {
    cfg.prefetch_units = prefetch;
    cfg.cache_units = cache_units;
    cfg.dirty_limit = dirty_limit;
    return IoServer(engine, 0, disk, kUnit, 16, cfg);
  }

  void run(sim::Task<void> t) {
    engine.spawn(std::move(t));
    engine.run();
  }
};

sim::Task<void> read_unit(IoServer& s, std::uint32_t file, std::uint64_t unit, bool buffered) {
  co_await s.read(UnitKey{file, unit}, unit * kUnit, 0, kUnit, buffered);
}

sim::Task<void> write_unit(IoServer& s, std::uint32_t file, std::uint64_t unit, bool buffered) {
  co_await s.write(UnitKey{file, unit}, unit * kUnit, 0, 2048, buffered);
}

TEST(IoServer, FirstReadMissesSecondHits) {
  Fixture f;
  auto s = f.make();
  f.run(read_unit(s, 1, 0, true));
  EXPECT_EQ(s.cache_misses(), 1u);
  EXPECT_EQ(s.cache_hits(), 0u);
  f.run(read_unit(s, 1, 0, true));
  EXPECT_EQ(s.cache_hits(), 1u);
}

TEST(IoServer, HitIsMuchCheaperThanMiss) {
  Fixture f;
  auto s = f.make();
  f.run(read_unit(s, 1, 0, true));
  const sim::Tick miss_time = f.engine.now();
  const sim::Tick before = f.engine.now();
  f.run(read_unit(s, 1, 0, true));
  const sim::Tick hit_time = f.engine.now() - before;
  EXPECT_LT(hit_time * 10, miss_time);
}

TEST(IoServer, UnbufferedReadBypassesCache) {
  Fixture f;
  auto s = f.make();
  f.run(read_unit(s, 1, 0, false));
  f.run(read_unit(s, 1, 0, false));
  EXPECT_EQ(s.cache_misses(), 0u);
  EXPECT_EQ(s.cache_hits(), 0u);
  EXPECT_EQ(s.unbuffered_ops(), 2u);
  EXPECT_EQ(s.disk().ops(), 2u);  // every access hits the array
}

TEST(IoServer, BufferedWriteIsAbsorbedNotWrittenThrough) {
  Fixture f;
  auto s = f.make();
  f.run(write_unit(s, 1, 0, true));
  EXPECT_EQ(s.disk().ops(), 0u);
  EXPECT_EQ(s.dirty_units(), 1u);
}

TEST(IoServer, DirtyLimitTriggersInlineFlush) {
  Fixture f;
  auto s = f.make(0, 16, 2);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    for (std::uint64_t u = 0; u < 5; ++u) {
      co_await srv.write(UnitKey{1, u}, u * kUnit, 0, 2048, true);
    }
  };
  f.run(writer(s));
  EXPECT_GT(s.disk().ops(), 0u);        // some units were flushed inline
  EXPECT_LE(s.dirty_units(), 3u);       // backlog stays bounded
}

TEST(IoServer, FlushAllDrainsDirty) {
  Fixture f;
  auto s = f.make(0, 16, 16);
  auto writer = [](IoServer& srv) -> sim::Task<void> {
    for (std::uint64_t u = 0; u < 4; ++u) {
      co_await srv.write(UnitKey{1, u}, u * kUnit, 0, 2048, true);
    }
    co_await srv.flush_all();
  };
  f.run(writer(s));
  EXPECT_EQ(s.dirty_units(), 0u);
  EXPECT_EQ(s.disk().ops(), 4u);
}

TEST(IoServer, WriteThenReadHitsCache) {
  Fixture f;
  auto s = f.make();
  f.run(write_unit(s, 1, 3, true));
  f.run(read_unit(s, 1, 3, true));
  EXPECT_EQ(s.cache_hits(), 1u);
  EXPECT_EQ(s.cache_misses(), 0u);
}

TEST(IoServer, EvictionRespectsCapacityAndWritesBackDirty) {
  Fixture f;
  auto s = f.make(0, /*cache_units=*/2, /*dirty_limit=*/16);
  auto worker = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.write(UnitKey{1, 0}, 0, 0, 2048, true);  // dirty
    co_await srv.read(UnitKey{1, 1}, kUnit, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 2}, 2 * kUnit, 0, kUnit, true);  // evicts unit 0
  };
  f.run(worker(s));
  EXPECT_LE(s.cached_units(), 2u);
  // The dirty victim was written back: at least 3 disk ops (2 fetches + 1 WB).
  EXPECT_GE(s.disk().ops(), 3u);
}

sim::Task<void> read_units(IoServer& s, std::vector<std::uint64_t> units) {
  for (std::uint64_t u : units) co_await s.read(UnitKey{1, u}, u * kUnit, 0, kUnit, true);
}

TEST(IoServer, CacheHitsRefreshRecencySoEvictionTakesTheLeastRecent) {
  Fixture f;
  auto s = f.make(0, /*cache_units=*/3, /*dirty_limit=*/16);
  // LRU, most recent first: [2 1 0] -> hits on 0, 1 -> [1 0 2]; 3 evicts 2;
  // a hit on 1 -> [1 3 0]; 4 evicts 0, leaving [4 1 3].
  f.run(read_units(s, {0, 1, 2, 0, 1, 3, 1, 4}));
  EXPECT_EQ(s.cache_misses(), 5u);
  EXPECT_EQ(s.cache_hits(), 3u);
  EXPECT_EQ(s.cached_units(), 3u);
  f.run(read_units(s, {1, 4, 3}));  // the survivors all hit
  EXPECT_EQ(s.cache_hits(), 6u);
  EXPECT_EQ(s.cache_misses(), 5u);
  f.run(read_units(s, {0, 2}));  // the evicted units miss
  EXPECT_EQ(s.cache_misses(), 7u);
}

TEST(IoServer, PrefetchFetchesAheadOnSequentialRun) {
  Fixture f;
  auto s = f.make(/*prefetch=*/2, /*cache_units=*/32);
  // Units on this server for one file differ by the stripe factor (16).
  auto reader = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.read(UnitKey{1, 0}, 0, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 16}, kUnit, 0, kUnit, true);  // sequential -> prefetch
    co_await srv.read(UnitKey{1, 32}, 2 * kUnit, 0, kUnit, true);  // prefetched: hit
    co_await srv.read(UnitKey{1, 48}, 3 * kUnit, 0, kUnit, true);  // prefetched: hit
  };
  f.run(reader(s));
  EXPECT_EQ(s.prefetched_units(), 2u);
  EXPECT_EQ(s.cache_hits(), 2u);
  EXPECT_EQ(s.cache_misses(), 2u);
}

TEST(IoServer, NoPrefetchOnRandomRun) {
  Fixture f;
  auto s = f.make(/*prefetch=*/2, /*cache_units=*/32);
  auto reader = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.read(UnitKey{1, 0}, 0, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 80}, kUnit, 0, kUnit, true);
    co_await srv.read(UnitKey{1, 32}, 2 * kUnit, 0, kUnit, true);
  };
  f.run(reader(s));
  EXPECT_EQ(s.prefetched_units(), 0u);
  EXPECT_EQ(s.cache_misses(), 3u);
}

TEST(IoServer, SeparateFilesDoNotConfusePrefetchDetector) {
  Fixture f;
  auto s = f.make(/*prefetch=*/1, /*cache_units=*/32);
  auto reader = [](IoServer& srv) -> sim::Task<void> {
    co_await srv.read(UnitKey{1, 0}, 0, 0, kUnit, true);
    co_await srv.read(UnitKey{2, 16}, kUnit, 0, kUnit, true);  // other file
  };
  f.run(reader(s));
  EXPECT_EQ(s.prefetched_units(), 0u);
}

TEST(UnitKeyHash, AdversarialKeyFamiliesDisperse) {
  // Families chosen to defeat weak mixes:
  //  * shift-overlap pairs — {file, unit} vs {file^1, unit^(1<<40)} collide
  //    under the old `(file << 40) ^ unit`;
  //  * stride-aligned units (consecutive stripe units of one file, and
  //    power-of-two strides) — low-entropy low bits feed the identity
  //    std::hash straight into the table's bucket mask;
  //  * file-id sweeps at unit 0 — all entropy in the top bits.
  UnitKeyHash h;
  std::vector<UnitKey> keys;
  for (std::uint32_t f = 0; f < 64; ++f) {
    keys.push_back({f, 0});
    keys.push_back({f ^ 1u, 1ull << 40});
  }
  for (std::uint64_t u = 0; u < 64; ++u) {
    keys.push_back({7, u});            // sequential units
    keys.push_back({7, u << 16});      // 64 KB-stride units
    keys.push_back({8, u * 1048576});  // 1 MB-stride units
  }

  std::unordered_set<std::size_t> hashes;
  std::unordered_set<std::size_t> distinct;  // families overlap at {7,0}/{8,0}
  for (const auto& k : keys) {
    hashes.insert(h(k));
    distinct.insert((static_cast<std::size_t>(k.file) << 48) ^ k.unit);
  }
  // A good mix maps distinct keys to (almost) as many distinct hashes.
  // Allow a tiny slack for honest 64-bit coincidences.
  EXPECT_GE(hashes.size(), distinct.size() - 2);

  // Bucket dispersion: project onto a small power-of-two table the way
  // libstdc++ masks hashes, and require every family to spread out instead
  // of piling onto a handful of buckets.
  std::unordered_set<std::size_t> buckets;
  for (const auto& k : keys) buckets.insert(h(k) % 128);
  EXPECT_GE(buckets.size(), 96u);
}

TEST(UnitKeyHash, ShiftOverlapPairNoLongerCollides) {
  // The specific collision family of the old hash: flipping file bit 0 and
  // unit bit 40 cancelled out.  The mixed hash must tell them apart.
  UnitKeyHash h;
  const UnitKey a{3, 5};
  const UnitKey b{3 ^ 1u, 5ull ^ (1ull << 40)};
  EXPECT_FALSE(a == b);
  EXPECT_NE(h(a), h(b));
}

}  // namespace
}  // namespace sio::pfs
