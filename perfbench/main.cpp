// perfbench: single-process, single-thread batch driver for the repo benchmark.
//
// Runs one workload in a closed loop — each simulation starts after the
// previous one finished, never through core::ParallelRunner — for a fixed
// host-time window, checks every output, and prints one JSON document of raw
// samples on stdout.  run.py builds this binary, turns the samples into the
// benchmark's metrics and compares fingerprints against references.json.
//
//   perfbench --workload repro|traced|ckpt_faults --seed N --seconds S
//             --mode measure|trace [--verify-seed X]...
//
// measure: timed passes through the public entry points (core::run_*), plus
//          a companion run of the workload's capture probe that feeds
//          trace_overhead_x.
// trace:   alternates plain passes with passes composed from the public
//          constructors (hw::Machine, pablo::Collector, pfs::Pfs,
//          fault::FaultClock, apps::*::run, Engine::run) that record a span
//          around every layer call, plus capture-cost arms.
//
// Every pass must reproduce the first pass's per-job fingerprints; a job that
// throws or differs counts all its simulated ops as failed.  Each
// --verify-seed adds one untimed pass at that simulation seed whose
// fingerprints run.py checks against references.json.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/figures.hpp"
#include "core/overload.hpp"
#include "core/sio.hpp"
#include "fault/clock.hpp"
#include "pablo/binsddf.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

namespace {

using namespace sio;
/// Wall seconds.  They bound only how long a run lasts.
double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

/// CPU seconds of this process: every timing the benchmark reports.  Unlike
/// wall time they leave out the time the process waits for a processor,
/// whether neighbouring processes hold it or the hypervisor steals it.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Spans: one per layer call made by this file, kept in memory and written out
// with the result.  Disabled (nullptr) outside traced passes.

struct Span {
  int parent;
  const char* layer;
  std::string name;
  double t0;
  double t1;
};

class SpanLog {
 public:
  int open(const char* layer, std::string_view name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({parent, layer, std::string(name), cpu_now(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = cpu_now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog* g_spans = nullptr;

/// Runs `f` inside a span of `layer` when tracing is on; the span closes on
/// return and on exception.
template <class F>
decltype(auto) in_layer(const char* layer, std::string_view name, F&& f) {
  struct Closer {
    int id;
    ~Closer() {
      if (id >= 0) g_spans->close(id);
    }
  } closer{g_spans != nullptr ? g_spans->open(layer, name) : -1};
  return f();
}

// ---------------------------------------------------------------------------
// Exact per-layer counters, summed over one traced pass.

struct Counters {
  std::uint64_t sim_events = 0;
  std::uint64_t run_events = 0;  // dispatched inside the Engine::run spans
  std::uint64_t disk_ops = 0, disk_bytes = 0, net_messages = 0, net_dropped = 0;
  std::uint64_t data_ops = 0, bytes_read = 0, bytes_written = 0, meta_requests = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, retries = 0, timeouts = 0, replayed_ops = 0;
  std::uint64_t journal_appends = 0, journal_redone = 0, integrity_repaired = 0;
  std::uint64_t acked_bytes_lost = 0;
  std::uint64_t qos_admitted = 0, qos_rejected = 0, qos_shed = 0, breaker_opens = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t io_events = 0, binsddf_bytes = 0, trace_mem_bytes = 0;
  std::uint64_t spans = 0, span_io_events = 0;
  sim::Tick sim_exec = 0;
};

bool is_injection(pablo::FaultKind k) {
  using K = pablo::FaultKind;
  switch (k) {
    case K::kDiskDegraded: case K::kDiskSlow: case K::kDiskStuck: case K::kServerCrash:
    case K::kServerDegraded: case K::kLinkDown: case K::kLinkSlow: case K::kBitRot:
    case K::kWriteBackCorrupt: case K::kLinkCorrupt:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// One simulation: an application config, a fault plan and capture options.

using AppConfig = std::variant<apps::escat::Config, apps::prism::Config, apps::ckpt::Config>;

struct SimSpec {
  AppConfig cfg;
  fault::FaultPlan plan = fault::FaultPlan::fault_free();
  core::TraceOptions trace{};
};

core::TraceOptions production_capture() {
  core::TraceOptions t;
  t.spans = true;
  t.streaming = true;
  t.binary_trace = true;
  t.retain_events = false;
  return t;
}

core::RunResult run_core(const SimSpec& s, std::uint64_t seed) {
  if (const auto* e = std::get_if<apps::escat::Config>(&s.cfg))
    return core::run_escat(*e, s.plan, s.trace, seed);
  if (const auto* p = std::get_if<apps::prism::Config>(&s.cfg))
    return core::run_prism(*p, s.plan, s.trace, seed);
  return core::run_ckpt(std::get<apps::ckpt::Config>(s.cfg), s.plan, s.trace, seed);
}

/// Mirrors core::run_app's policy for when a plan takes the fault path.
bool plan_active(const fault::FaultPlan& plan) {
  return !plan.empty() || plan.retry.enabled || plan.qos.enabled ||
         plan.journal != pfs::JournalMode::kOff || plan.integrity.enabled();
}

/// The same simulation composed from the public constructors, one span per
/// layer call.  Fills the RunResult fields the fingerprints and renderers
/// read, and adds the run's layer counters to `c`.
core::RunResult run_composed(const SimSpec& s, std::uint64_t seed, Counters* c) {
  hw::OsProfile os = hw::osf_r13();
  int nodes = 0;
  std::optional<pfs::ServerConfig> server;
  std::string label;
  if (const auto* e = std::get_if<apps::escat::Config>(&s.cfg)) {
    os = apps::escat::os_for(e->version);
    nodes = e->workload.nodes;
    label = e->label;
  } else if (const auto* p = std::get_if<apps::prism::Config>(&s.cfg)) {
    nodes = p->workload.nodes;
    label = p->label;
  } else {
    const auto& k = std::get<apps::ckpt::Config>(s.cfg);
    nodes = k.workload.nodes;
    label = k.label;
    server = apps::ckpt::tuned_server();
  }
  const fault::FaultPlan* plan = plan_active(s.plan) ? &s.plan : nullptr;

  auto mc = hw::Machine::caltech_paragon(nodes, os);
  mc.seed = seed;
  std::optional<hw::Machine> machine;
  in_layer("machine", "Machine()", [&] { machine.emplace(mc); });
  sim::Engine& engine = machine->engine();

  std::optional<pablo::Collector> col;
  in_layer("pablo", "Collector()", [&] {
    col.emplace(engine);
    if (s.trace.binary_trace) col->enable_binary_trace();
    if (s.trace.streaming) {
      pablo::StreamingConfig scfg;
      scfg.sketch_precision = s.trace.sketch_precision;
      col->enable_streaming(scfg);
    }
    col->set_retain_events(s.trace.retain_events);
  });
  if (s.trace.spans) in_layer("obs", "enable_spans", [&] { col->enable_spans(); });

  pfs::PfsConfig pcfg;
  if (server) pcfg.server = *server;
  if (plan != nullptr) {
    pcfg.retry = plan->retry;
    pcfg.qos = plan->qos;
    pcfg.server.journal = plan->journal;
    pcfg.server.integrity = plan->integrity;
  }
  std::optional<pfs::Pfs> fs;
  in_layer("pfs", "Pfs()", [&] { fs.emplace(*machine, *col, pcfg); });
  apps::PhaseLog log;
  std::optional<fault::FaultClock> fclock;
  if (plan != nullptr) {
    in_layer("fault", "FaultClock::arm", [&] {
      fclock.emplace(*machine, *fs, *col, *plan);
      fclock->arm();
    });
  }

  sim::Tick app_done = 0;
  auto wrap = [](sim::Engine& eng, sim::Task<void> inner, sim::Tick* done) -> sim::Task<void> {
    co_await std::move(inner);
    *done = eng.now();
  };
  in_layer("apps", "apps::run", [&] {
    sim::Task<void> app = std::visit(
        [&](const auto& cfg) -> sim::Task<void> {
          using T = std::decay_t<decltype(cfg)>;
          if constexpr (std::is_same_v<T, apps::escat::Config>)
            return apps::escat::run(*machine, *fs, cfg, &log);
          else if constexpr (std::is_same_v<T, apps::prism::Config>)
            return apps::prism::run(*machine, *fs, cfg, &log);
          else
            return apps::ckpt::run(*machine, *fs, cfg, &log);
        },
        s.cfg);
    engine.spawn(wrap(engine, std::move(app), &app_done));
  });
  in_layer("sim", "Engine::run", [&] { engine.run(); });
  if (s.trace.spans) in_layer("obs", "finish_spans", [&] { col->finish_spans(); });

  core::RunResult r;
  r.label = label;
  r.exec_time = app_done;
  r.events_processed = engine.events_processed();
  in_layer("pablo", "collect", [&] {
    r.events = col->events();
    for (std::size_t i = 0; i < col->file_count(); ++i)
      r.file_names.push_back(col->file_name(static_cast<pablo::FileId>(i)));
    r.fault_events = col->fault_events();
    r.qos_events = col->qos_events();
    r.loss_events = col->loss_events();
    r.integrity_events = col->integrity_events();
    r.span_events = col->span_events();
    if (const auto* st = col->streaming()) {
      r.streaming = *st;
      r.critical_path = st->critical_path();
    }
    if (col->binary_writer() != nullptr) r.binary_trace = col->finish_binary_trace();
    r.trace_memory = col->memory_stats();
  });
  r.phases = log.spans();
  in_layer("pfs", "scrub", [&] {
    r.scrub = fs->scrub();
    r.integrity = fs->integrity_report();
  });
  r.resilience.failed_ops = fs->failed_ops();

  if (c != nullptr) {
    c->sim_events += r.events_processed;
    c->run_events += r.events_processed;
    c->net_messages += machine->network().messages_sent();
    c->net_dropped += machine->network().messages_dropped();
    c->data_ops += fs->data_ops();
    c->bytes_read += fs->bytes_read();
    c->bytes_written += fs->bytes_written();
    c->meta_requests += fs->metadata().requests_served();
    c->retries += fs->op_retries();
    c->timeouts += fs->op_timeouts();
    for (int i = 0; i < fs->server_count(); ++i) {
      auto& srv = fs->server(i);
      c->disk_ops += srv.disk().ops();
      c->disk_bytes += srv.disk().bytes_transferred();
      c->cache_hits += srv.cache_hits();
      c->cache_misses += srv.cache_misses();
      c->replayed_ops += srv.replayed_ops();
      if (auto* q = fs->server_qos(i)) {
        c->qos_admitted += q->admitted();
        c->qos_rejected += q->rejected();
        c->qos_shed += q->shed();
      }
      if (auto* b = fs->breaker(i)) c->breaker_opens += b->opens();
    }
    if (auto* q = fs->metadata_qos()) {
      c->qos_admitted += q->admitted();
      c->qos_rejected += q->rejected();
      c->qos_shed += q->shed();
    }
    c->journal_appends += r.scrub.journal_appends;
    c->journal_redone += r.scrub.journal_redone;
    c->acked_bytes_lost += r.scrub.acked_bytes_lost;
    c->integrity_repaired += r.integrity.read_repairs + r.integrity.scrub_repairs;
    for (const auto& f : r.fault_events) c->faults_injected += is_injection(f.kind) ? 1 : 0;
    c->io_events += r.trace_memory.events_recorded;
    c->binsddf_bytes += r.binary_trace.size();
    c->trace_mem_bytes = std::max<std::uint64_t>(c->trace_mem_bytes,
                                                 r.trace_memory.peak_bytes_retained);
    if (r.streaming) {
      c->spans += r.streaming->spans_folded();
      if (s.trace.spans) c->span_io_events += r.trace_memory.events_recorded;
    }
    c->sim_exec += r.exec_time;
  }

  // Tear down in run_app's order, each inside its layer.
  in_layer("fault", "~FaultClock", [&] { fclock.reset(); });
  in_layer("pfs", "~Pfs", [&] { fs.reset(); });
  in_layer("pablo", "~Collector", [&] { col.reset(); });
  in_layer("machine", "~Machine", [&] { machine.reset(); });
  return r;
}

// ---------------------------------------------------------------------------
// Host-speed calibration.
//
// On a shared host the same pass runs up to twice as slow while neighbours
// load the machine, and that load changes from one run to the next.  CPU
// time does not remove it: the slowdown is in the work itself, not in
// waiting for a processor.  So slices of a fixed calibration kernel run
// after every job of a plain pass and around every set-up, and run.py
// divides each timing by how much slower than nominal the mean slice of the
// run was.  The kernel uses the standard library only, so no change to
// the simulator moves it.  It mixes what the simulator spends its time on:
// a binary-heap event queue, small heap allocations, hash-table updates,
// decimal formatting and dependent loads over a 4 MB ring.

volatile std::uint64_t g_calibration_sink = 0;

class Calibration {
 public:
  Calibration() : ring_(kRing) {
    // Sattolo's shuffle: a single cycle through every slot, so that each
    // load depends on the one before.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < kRing; ++i) ring_[i] = i;
    for (std::uint32_t i = kRing - 1; i > 0; --i) {
      x = splitmix64(x);
      std::swap(ring_[i], ring_[x % i]);
    }
  }

  /// Runs one slice, records its CPU seconds and returns them.
  double slice() {
    const double t0 = cpu_now();
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    std::unordered_map<std::uint32_t, std::uint64_t> table;
    std::vector<std::unique_ptr<std::array<std::uint64_t, 6>>> live(256);
    char digits[24];
    std::uint64_t clock = 0, h = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      at_ = ring_[ring_[at_]];
      queue.emplace(clock + (at_ & 1023), at_);
      if (queue.size() > kQueue) {
        clock = queue.top().first;
        queue.pop();
      }
      table[at_ & 0x3fff] += clock;
      auto& cell = live[i & 255];
      const std::uint64_t old = cell ? (*cell)[i % 6] : 0;
      cell = std::make_unique<std::array<std::uint64_t, 6>>();
      (*cell)[i % 6] = h;
      const int n = std::snprintf(digits, sizeof digits, "%llu",
                                  static_cast<unsigned long long>(clock ^ old));
      h = fnv1a(std::string_view(digits, static_cast<std::size_t>(n)), h);
    }
    g_calibration_sink = h + table.size();
    samples_.push_back(cpu_now() - t0);
    return samples_.back();
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::uint32_t kRing = 1u << 20;
  static constexpr std::uint32_t kSteps = 1u << 13;
  static constexpr std::size_t kQueue = 4096;
  std::vector<std::uint32_t> ring_;
  std::uint32_t at_ = 0;
  std::vector<double> samples_;
};

Calibration* g_calibration = nullptr;

// ---------------------------------------------------------------------------
// Passes.

struct JobOut {
  std::string id;
  std::string fp;
  std::uint64_t ops = 0;     // simulated ops: I/O events recorded plus failed ops
  std::uint64_t failed = 0;  // of which failed (or all of them, on a bad job)
  bool bad = false;          // threw, or missed its fingerprint
};

struct PassOut {
  double start = 0;
  /// CPU seconds of the workload's own work.  The companion runs that feed
  /// only trace_overhead_x come after it; total_s includes them.  Neither
  /// includes the calibration slices.
  double cpu_s = 0, total_s = 0;
  /// Whether calibration slices run after each job (plain passes), and the
  /// slices' CPU seconds.
  bool calibrate = false;
  double calibration_s = 0;
  std::uint64_t io_ops = 0;  // simulated ops of the workload's own work
  std::vector<JobOut> jobs;
  /// CPU seconds of the capture-probe runs without and with production
  /// capture (run calls only), and the probe's binary trace size.
  double probe_untraced_s = 0, probe_traced_s = 0;
  std::uint64_t probe_bytes = 0, probe_ios = 0;
  Counters counters;
  /// Retained-vector results kept for the trace-mode analytics probe.
  std::vector<core::RunResult> retained;
};

enum class Workload { kRepro, kTraced, kCkptFaults };

struct Ctx {
  Workload workload = Workload::kRepro;
  std::uint64_t seed = 0;  // simulation seed
  bool composed = false;   // build sims from constructors (trace mode)
  bool keep_retained = false;
};

/// Closes the timed part of a pass; what follows is companion work.
void end_primary(PassOut& p) {
  p.cpu_s = cpu_now() - p.start - p.calibration_s;
  for (const auto& o : p.jobs) p.io_ops += o.ops;
}

/// A job's weight in the failed-op accounting: its simulated ops, or one for
/// a job that simulates nothing (a rendered artifact).
std::uint64_t weight(const JobOut& o) { return std::max<std::uint64_t>(o.ops, 1); }

/// CPU seconds of job per calibration slice: a plain pass runs one slice
/// after each job and one more per kSliceEvery of it, so the mean slice
/// weighs the host's speeds by how long the jobs ran at them.
constexpr double kSliceEvery = 0.1;

void add_job(PassOut& p, const std::string& id, const std::function<JobOut()>& f) {
  const double t0 = cpu_now();
  in_layer("bench", id, [&] {
    try {
      JobOut o = f();
      o.id = id;
      p.jobs.push_back(std::move(o));
    } catch (const std::exception& e) {
      p.jobs.push_back({id, std::string("exception: ") + e.what(), 0, 0, true});
    }
  });
  if (p.calibrate) {
    const int slices = 1 + static_cast<int>((cpu_now() - t0) / kSliceEvery);
    for (int i = 0; i < slices; ++i) p.calibration_s += g_calibration->slice();
  }
}

core::RunResult simulate(const Ctx& ctx, const SimSpec& s, PassOut& p, double* secs = nullptr) {
  const double t0 = cpu_now();
  core::RunResult r = ctx.composed ? run_composed(s, ctx.seed, &p.counters) : run_core(s, ctx.seed);
  if (secs != nullptr) *secs += cpu_now() - t0;
  return r;
}

std::string common_fp(const core::RunResult& r) {
  return "exec=" + std::to_string(r.exec_time) + " events=" + std::to_string(r.events_processed) +
         " failed=" + std::to_string(r.resilience.failed_ops) +
         " lost=" + std::to_string(r.scrub.acked_bytes_lost) +
         " journal=" + std::to_string(r.scrub.journal_appends) + "/" +
         std::to_string(r.scrub.journal_redone) +
         " repaired=" + std::to_string(r.integrity.read_repairs + r.integrity.scrub_repairs);
}

JobOut run_out(const core::RunResult& r, std::string fp) {
  JobOut o;
  o.fp = std::move(fp);
  o.failed = r.resilience.failed_ops;
  o.ops = r.trace_memory.events_recorded + o.failed;
  return o;
}

/// Fingerprint of a retained-vector run: its full text SDDF.
JobOut retained_out(const core::RunResult& r) {
  const std::string text = in_layer("pablo", "to_sddf", [&] { return r.to_sddf(); });
  return run_out(r, common_fp(r) + " sddf=" + hex(fnv1a(text)));
}

/// Fingerprint of a production-capture run.  Its live binary trace is
/// decoded and re-folded; the fold must equal the live streaming fold.
JobOut captured_out(const core::RunResult& r) {
  if (!r.streaming) throw std::runtime_error("capture run has no streaming fold");
  const pablo::TraceFile tf =
      in_layer("pablo", "from_binary_sddf", [&] { return pablo::from_binary_sddf(r.binary_trace); });
  pablo::StreamingConfig scfg;
  scfg.sketch_precision = r.streaming->config().sketch_precision;
  pablo::StreamingAnalytics fold(scfg);
  in_layer("pablo", "refold", [&] {
    for (std::size_t i = 0; i < tf.file_names.size(); ++i)
      fold.ensure_file(static_cast<pablo::FileId>(i));
    for (const auto& ev : tf.events) fold.on_event(ev);
    for (const auto& ev : tf.integrity) fold.on_integrity(ev);
  });
  in_layer("obs", "critical_path_fold", [&] {
    for (const auto& sp : tf.spans) fold.on_span(sp);
  });
  if (fold.fingerprint() != r.streaming->fingerprint())
    throw std::runtime_error("decoded binary trace folds differently from the live fold");
  return run_out(r, common_fp(r) + " fold=" + hex(r.streaming->fingerprint()) +
                        " path=" + hex(r.critical_path.fingerprint()) +
                        " binary=" + hex(fnv1a(r.binary_trace)) +
                        " spans=" + std::to_string(r.streaming->spans_folded()));
}

JobOut artifact_out(const char* name, const std::function<std::string()>& render) {
  const std::string text = in_layer("core", name, render);
  JobOut o;
  o.fp = "bytes=" + std::to_string(text.size()) + " hash=" + hex(fnv1a(text));
  return o;
}

/// A production-capture probe run must not perturb simulated timing.
void check_same_timing(const core::RunResult& traced, const core::RunResult& plain) {
  if (traced.exec_time != plain.exec_time || traced.events_processed != plain.events_processed)
    throw std::runtime_error("capture changed simulated timing");
}

apps::escat::Config escat_cfg(apps::escat::Version v) { return apps::escat::make_config(v); }

apps::escat::Config carbon_monoxide_cfg() {
  auto cfg = apps::escat::make_config(apps::escat::Version::C, apps::escat::carbon_monoxide());
  cfg.label = "C (carbon monoxide)";
  return cfg;
}

apps::prism::Config prism_cfg(apps::prism::Version v) { return apps::prism::make_config(v); }

apps::ckpt::Config ckpt_cfg(apps::ckpt::Variant v) { return apps::ckpt::make_config(v); }

std::string ckpt_name(apps::ckpt::Variant v) { return std::string(apps::ckpt::variant_name(v)); }

/// The three ckpt_faults arms for one variant: fault-free, torn crashes with
/// full journaling, bit-rot with repair, full journaling and QoS.
std::vector<std::pair<std::string, fault::FaultPlan>> ckpt_arms(std::uint64_t seed) {
  auto torn = fault::FaultPlan::io_node_crash_torn(seed);
  torn.journal = pfs::JournalMode::kFull;
  auto rot = fault::FaultPlan::bit_rot_plan(seed, pfs::IntegrityMode::kRepair);
  rot.journal = pfs::JournalMode::kFull;
  rot.qos.enabled = true;
  return {{"ff", fault::FaultPlan::fault_free()}, {"torn", torn}, {"bitrot", rot}};
}

/// The capture probe of each workload: the configs whose untraced and
/// production-capture run times feed trace_overhead_x and whose capture
/// arms give the per-layer capture costs.
std::vector<std::pair<std::string, SimSpec>> probe_set(const Ctx& ctx) {
  switch (ctx.workload) {
    case Workload::kRepro:
      return {{"escat/A", {escat_cfg(apps::escat::Version::A)}},
              {"prism/A", {prism_cfg(apps::prism::Version::A)}}};
    case Workload::kTraced:
      return {{"escat/A", {escat_cfg(apps::escat::Version::A)}},
              {"escat/CO", {carbon_monoxide_cfg()}},
              {"prism/A", {prism_cfg(apps::prism::Version::A)}},
              {"ckpt/naive", {ckpt_cfg(apps::ckpt::Variant::kNaive)}}};
    case Workload::kCkptFaults:
      return {{"ckpt/naive/torn",
               {ckpt_cfg(apps::ckpt::Variant::kNaive), ckpt_arms(ctx.seed)[1].second}}};
  }
  return {};
}

/// Runs the probe set with production capture, checking each run against
/// the untraced run of the same config from `plain` (same order).
void capture_probe(const Ctx& ctx, PassOut& p, const std::vector<const core::RunResult*>& plain) {
  const auto probes = probe_set(ctx);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    SimSpec s = probes[i].second;
    s.trace = production_capture();
    add_job(p, "capture/" + probes[i].first, [&] {
      const core::RunResult r = simulate(ctx, s, p, &p.probe_traced_s);
      if (plain[i] == nullptr) throw std::runtime_error("untraced probe run missing");
      check_same_timing(r, *plain[i]);
      p.probe_bytes += r.binary_trace.size();
      p.probe_ios += r.trace_memory.events_recorded;
      return captured_out(r);
    });
  }
}

void pass_repro(const Ctx& ctx, PassOut& p) {
  using apps::escat::Version;
  const auto progressions = apps::escat::six_progressions();
  for (std::size_t i = 0; i < progressions.size(); ++i) {
    add_job(p, "fig1/" + std::to_string(i + 1), [&] {
      return retained_out(simulate(ctx, {progressions[i]}, p));
    });
  }
  core::EscatStudy es;
  core::PrismStudy ps;
  core::RunResult co;
  // The untraced probe time is the run call of escat/A and prism/A.
  const auto study_job = [&](const std::string& id, const SimSpec& s, core::RunResult& into,
                             bool probe) {
    add_job(p, id, [&] {
      into = simulate(ctx, s, p, probe ? &p.probe_untraced_s : nullptr);
      return retained_out(into);
    });
  };
  study_job("escat/A", {escat_cfg(Version::A)}, es.a, true);
  study_job("escat/B", {escat_cfg(Version::B)}, es.b, false);
  study_job("escat/C", {escat_cfg(Version::C)}, es.c, false);
  study_job("escat/CO", {carbon_monoxide_cfg()}, co, false);
  study_job("prism/A", {prism_cfg(apps::prism::Version::A)}, ps.a, true);
  study_job("prism/B", {prism_cfg(apps::prism::Version::B)}, ps.b, false);
  study_job("prism/C", {prism_cfg(apps::prism::Version::C)}, ps.c, false);

  const std::vector<std::pair<const char*, std::function<std::string()>>> artifacts = {
      {"table1", [] { return core::render_table1(); }},
      {"table2", [&] { return core::render_table2(es); }},
      {"table3", [&] { return core::render_table3(es, co); }},
      {"table4", [] { return core::render_table4(); }},
      {"table5", [&] { return core::render_table5(ps); }},
      {"fig2", [&] { return core::render_fig2(es); }},
      {"fig3", [&] { return core::render_fig3(es); }},
      {"fig4", [&] { return core::render_fig4(es); }},
      {"fig5", [&] { return core::render_fig5(es); }},
      {"fig6", [&] { return core::render_fig6(ps); }},
      {"fig7", [&] { return core::render_fig7(ps); }},
      {"fig8", [&] { return core::render_fig8(ps); }},
      {"fig9", [&] { return core::render_fig9(ps); }},
  };
  for (const auto& [name, render] : artifacts) {
    add_job(p, name, [&] { return artifact_out(name, render); });
  }
  end_primary(p);
  capture_probe(ctx, p, {&es.a, &ps.a});
  if (ctx.keep_retained) {
    for (auto* r : {&es.a, &es.b, &es.c, &co, &ps.a, &ps.b, &ps.c}) p.retained.push_back(std::move(*r));
  }
}

void pass_traced(const Ctx& ctx, PassOut& p) {
  const auto probes = probe_set(ctx);
  for (const auto& [id, spec] : probes) {
    SimSpec s = spec;
    s.trace = production_capture();
    add_job(p, "traced/" + id, [&] {
      const core::RunResult r = simulate(ctx, s, p, &p.probe_traced_s);
      p.probe_bytes += r.binary_trace.size();
      p.probe_ios += r.trace_memory.events_recorded;
      JobOut o = captured_out(r);
      const std::string table = in_layer("core", "critical_path_table",
                                         [&] { return r.critical_path_table(); });
      o.fp += " table=" + hex(fnv1a(table));
      return o;
    });
  }
  // The untraced pass of the same configs feeds only trace_overhead_x.
  end_primary(p);
  for (const auto& [id, spec] : probes) {
    add_job(p, "untraced/" + id, [&] {
      core::RunResult r = simulate(ctx, spec, p, &p.probe_untraced_s);
      JobOut o = retained_out(r);
      if (ctx.keep_retained) p.retained.push_back(std::move(r));
      return o;
    });
  }
}

void pass_ckpt_faults(const Ctx& ctx, PassOut& p) {
  const core::RunResult* probe_plain = nullptr;
  std::vector<core::RunResult> runs;
  runs.reserve(6);
  for (const auto variant : {apps::ckpt::Variant::kNaive, apps::ckpt::Variant::kAggregated}) {
    const std::size_t base = runs.size();
    for (const auto& [arm, plan] : ckpt_arms(ctx.seed)) {
      const std::string id = "ckpt/" + ckpt_name(variant) + "/" + arm;
      const bool probe = variant == apps::ckpt::Variant::kNaive && arm == "torn";
      runs.emplace_back();
      core::RunResult& into = runs.back();
      add_job(p, id, [&] {
        into = simulate(ctx, {ckpt_cfg(variant), plan}, p, probe ? &p.probe_untraced_s : nullptr);
        JobOut o = retained_out(into);
        if (arm != "ff") {
          const std::string summary = in_layer("core", "render_resilience_summary", [&] {
            return core::render_resilience_summary(into, runs[base]);
          });
          o.fp += " summary=" + hex(fnv1a(summary));
        }
        return o;
      });
      if (probe) probe_plain = &into;
    }
  }
  for (int sc = 0; sc < 4; ++sc) {
    core::OverloadConfig oc;
    oc.scenario = static_cast<core::OverloadScenario>(sc);
    oc.offered_load = 4.0;
    oc.qos = true;
    oc.seed = ctx.seed;
    add_job(p, std::string("storm/") + core::overload_scenario_name(oc.scenario), [&] {
      const core::OverloadResult r =
          in_layer("core", "run_overload", [&] { return core::run_overload(oc); });
      auto& c = p.counters;
      c.sim_events += r.events_processed;
      c.retries += r.retries;
      c.timeouts += r.timeouts;
      c.qos_admitted += r.admitted;
      c.qos_rejected += r.rejected;
      c.qos_shed += r.shed;
      c.breaker_opens += r.breaker_opens;
      c.io_events += r.offered_ops;
      c.sim_exec += r.exec_time;
      JobOut o;
      o.ops = r.offered_ops;
      o.failed = r.failed_ops;
      o.fp = "exec=" + std::to_string(r.exec_time) + " events=" +
             std::to_string(r.events_processed) + " completed=" +
             std::to_string(r.completed_ops) + " failed=" + std::to_string(r.failed_ops) +
             " admitted=" + std::to_string(r.admitted) + " rejected=" +
             std::to_string(r.rejected) + " shed=" + std::to_string(r.shed) +
             " sddf=" + hex(fnv1a(r.sddf));
      return o;
    });
  }
  end_primary(p);
  capture_probe(ctx, p, {probe_plain});
  if (ctx.keep_retained) {
    for (auto& r : runs) p.retained.push_back(std::move(r));
  }
}

PassOut run_pass(const Ctx& ctx) {
  PassOut p;
  p.calibrate = !ctx.composed;
  p.start = cpu_now();
  in_layer("bench", "pass", [&] {
    switch (ctx.workload) {
      case Workload::kRepro: pass_repro(ctx, p); break;
      case Workload::kTraced: pass_traced(ctx, p); break;
      case Workload::kCkptFaults: pass_ckpt_faults(ctx, p); break;
    }
  });
  p.total_s = cpu_now() - p.start - p.calibration_s;
  return p;
}

// ---------------------------------------------------------------------------
// Set-up: build the inputs, calibrate the reference loop, warm up.

sim::Task<void> hopper(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) co_await e.delay(1);
}

/// The in-process reference loop: empty schedule/dispatch calls plus
/// coroutine delay-resumes.  Returns CPU seconds for kRefEvents events.
constexpr int kRefEvents = 1 << 20;

double reference_loop() {
  const double t0 = cpu_now();
  std::uint64_t seen = 0;
  for (int round = 0; round < 16; ++round) {
    sim::Engine e;
    for (int i = 0; i < kRefEvents / 32; ++i) e.schedule_at(i, [] {});
    e.spawn(hopper(e, kRefEvents / 32));
    e.run();
    seen += e.events_processed();
  }
  if (seen < static_cast<std::uint64_t>(kRefEvents)) throw std::runtime_error("reference loop short");
  return cpu_now() - t0;
}

constexpr int kSetups = 5;

struct Setup {
  double seconds = 0;
  double ref_loop_s = 0;
};

Setup set_up(const Ctx& ctx) {
  Setup s;
  const double t0 = cpu_now();
  // Inputs: every plan the pass will arm must validate on the machine.
  if (ctx.workload == Workload::kCkptFaults) {
    for (const auto& [arm, plan] : ckpt_arms(ctx.seed)) plan.validate(16);
  }
  s.ref_loop_s = reference_loop();
  // Warm-up: one untimed run of the workload's first capture-probe config.
  PassOut scratch;
  Ctx warm = ctx;
  warm.composed = false;
  SimSpec spec = probe_set(ctx).front().second;
  if (ctx.workload == Workload::kTraced) spec.trace = production_capture();
  simulate(warm, spec, scratch);
  s.seconds = cpu_now() - t0;
  return s;
}

/// Time of each capture arm over the probe set: options added in turn.
std::vector<double> capture_arms(const Ctx& ctx) {
  std::vector<core::TraceOptions> arms(4);
  for (auto& a : arms) a.retain_events = false;
  arms[1].streaming = true;
  arms[2] = arms[1];
  arms[2].binary_trace = true;
  arms[3] = arms[2];
  arms[3].spans = true;
  std::vector<double> secs(arms.size(), 0.0);
  for (const auto& [id, spec] : probe_set(ctx)) {
    for (std::size_t a = 0; a < arms.size(); ++a) {
      SimSpec s = spec;
      s.trace = arms[a];
      const double t0 = cpu_now();
      run_core(s, ctx.seed);
      secs[a] += cpu_now() - t0;
    }
  }
  return secs;
}

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// CPU seconds of the retained-vector analytics the renderers call.
double analytics_probe(const std::vector<core::RunResult>& runs) {
  const double t0 = cpu_now();
  std::uint64_t sink = 0;
  for (const auto& r : runs) {
    sink += static_cast<std::uint64_t>(r.breakdown().total_io_time());
    sink += r.read_cdf().points().size() + r.write_cdf().points().size();
    sink += r.op_timeline(pablo::IoOp::kRead).size() + r.op_timeline(pablo::IoOp::kWrite).size();
  }
  g_sink = sink;
  return cpu_now() - t0;
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  Json& key(std::string_view k) {
    sep();
    quote(k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& str(std::string_view s) {
    sep();
    quote(s);
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out_ += buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void emit_counters(Json& j, const Counters& c) {
  j.open('{');
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"sim_events", c.sim_events}, {"run_events", c.run_events}, {"disk_ops", c.disk_ops}, {"disk_bytes", c.disk_bytes},
      {"net_messages", c.net_messages}, {"net_dropped", c.net_dropped},
      {"data_ops", c.data_ops}, {"bytes_read", c.bytes_read},
      {"bytes_written", c.bytes_written}, {"meta_requests", c.meta_requests},
      {"cache_hits", c.cache_hits}, {"cache_misses", c.cache_misses}, {"retries", c.retries},
      {"timeouts", c.timeouts}, {"replayed_ops", c.replayed_ops},
      {"journal_appends", c.journal_appends}, {"journal_redone", c.journal_redone},
      {"acked_bytes_lost", c.acked_bytes_lost},
      {"integrity_repaired", c.integrity_repaired}, {"qos_admitted", c.qos_admitted},
      {"qos_rejected", c.qos_rejected}, {"qos_shed", c.qos_shed},
      {"breaker_opens", c.breaker_opens}, {"faults_injected", c.faults_injected},
      {"io_events", c.io_events}, {"binsddf_bytes", c.binsddf_bytes},
      {"trace_mem_bytes", c.trace_mem_bytes}, {"spans", c.spans},
      {"span_io_events", c.span_io_events},
  };
  for (const auto& [k, v] : fields) j.key(k).num(v);
  j.key("sim_exec_s").num(sim::to_seconds(c.sim_exec));
  j.close('}');
}

void emit_jobs(Json& j, const std::vector<JobOut>& jobs) {
  j.open('{');
  for (const auto& o : jobs) {
    j.key(o.id).open('[');
    j.str(o.fp).num(o.ops).num(o.failed);
    j.close(']');
  }
  j.close('}');
}

void emit_list(Json& j, const std::vector<double>& v) {
  j.open('[');
  for (const double x : v) j.num(x);
  j.close(']');
}

struct Args {
  Workload workload = Workload::kRepro;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::vector<std::uint64_t> verify_seeds;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(k));
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload_name = v;
      have_workload = true;
      if (v == "repro") a.workload = Workload::kRepro;
      else if (v == "traced") a.workload = Workload::kTraced;
      else if (v == "ckpt_faults") a.workload = Workload::kCkptFaults;
      else throw std::invalid_argument("unknown workload " + v);
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--mode") {
      if (v != "measure" && v != "trace") throw std::invalid_argument("unknown mode " + v);
      a.trace = v == "trace";
    } else if (k == "--verify-seed") {
      a.verify_seeds.push_back(std::stoull(v));
    } else {
      throw std::invalid_argument("unknown option " + std::string(k));
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// Adds a problem once, however many passes repeat it.
void note(std::vector<std::string>& problems, std::string msg) {
  if (std::find(problems.begin(), problems.end(), msg) == problems.end())
    problems.push_back(std::move(msg));
}

/// Marks every job of `p` whose fingerprint differs from `first` as failed.
void check_against(PassOut& p, const PassOut& first, std::vector<std::string>& mismatches) {
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    auto& o = p.jobs[i];
    const bool known = i < first.jobs.size() && first.jobs[i].id == o.id;
    if (!o.bad && known && first.jobs[i].fp == o.fp) continue;
    if (!o.bad) note(mismatches, o.id + ": differs from the first pass");
    o.bad = true;
    if (known) o.ops = std::max(o.ops, first.jobs[i].ops);
    o.failed = weight(o);
  }
}

int run(const Args& a) {
  Ctx ctx;
  ctx.workload = a.workload;
  ctx.seed = splitmix64(a.seed);

  Calibration calibration;
  g_calibration = &calibration;
  std::vector<double> setup_s, ref_loop_s;
  for (int i = 0; i < kSetups; ++i) {
    calibration.slice();
    const Setup s = set_up(ctx);
    calibration.slice();
    setup_s.push_back(s.seconds);
    ref_loop_s.push_back(s.ref_loop_s);
  }

  std::vector<PassOut> plain, traced;
  std::vector<std::vector<double>> arms;
  std::vector<double> analytics_s;
  SpanLog log;
  std::vector<std::string> mismatches;
  double traced_s = 0;
  const double start = wall_now();
  do {
    Ctx c = ctx;
    c.keep_retained = a.trace;
    plain.push_back(run_pass(c));
    if (a.trace) {
      analytics_s.push_back(analytics_probe(plain.back().retained));
      plain.back().retained.clear();
      c.composed = true;
      c.keep_retained = false;
      g_spans = &log;
      const double t0 = cpu_now();
      traced.push_back(run_pass(c));
      traced_s += cpu_now() - t0;
      g_spans = nullptr;
      arms.push_back(capture_arms(ctx));
    }
  } while (wall_now() - start < a.seconds);
  const double window_s = wall_now() - start;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const std::uint64_t peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);

  const PassOut& first = plain.front();
  for (auto& p : plain) check_against(p, first, mismatches);
  for (auto& p : traced) check_against(p, first, mismatches);

  std::vector<std::pair<std::uint64_t, PassOut>> verified;
  for (const std::uint64_t vs : a.verify_seeds) {
    Ctx c = ctx;
    c.seed = vs;
    c.composed = a.trace;
    verified.emplace_back(vs, run_pass(c));
  }

  // Verification passes are tallied by run.py against the references.
  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const PassOut& p) {
    for (const auto& o : p.jobs) {
      attempted += weight(o);
      failed += o.bad ? weight(o) : o.failed;
    }
  };
  for (const auto& p : plain) tally(p);
  for (const auto& p : traced) tally(p);
  const auto note_exceptions = [&](const PassOut& p) {
    for (const auto& o : p.jobs) {
      if (o.fp.rfind("exception", 0) == 0) note(mismatches, o.id + ": " + o.fp);
    }
  };
  for (const auto& p : plain) note_exceptions(p);
  for (const auto& p : traced) note_exceptions(p);
  for (const auto& [vs, p] : verified) note_exceptions(p);

  Json j;
  j.open('{');
  j.key("workload").str(a.workload_name);
  j.key("mode").str(a.trace ? "trace" : "measure");
  j.key("seed").num(a.seed);
  j.key("sim_seed").num(ctx.seed);
  j.key("build").open('{');
  j.key("compiler").str(std::string("GCC ") + __VERSION__);
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("flags").str(PERFBENCH_FLAGS);
#ifdef __OPTIMIZE__
  j.key("optimized").boolean(true);
#else
  j.key("optimized").boolean(false);
#endif
#ifdef NDEBUG
  j.key("ndebug").boolean(true);
#else
  j.key("ndebug").boolean(false);
#endif
  j.key("sim_checks").num(static_cast<std::uint64_t>(SIO_SIM_CHECKS));
  j.close('}');
  j.key("setup_s");
  emit_list(j, setup_s);
  j.key("calibration_s");
  emit_list(j, calibration.samples());
  j.key("ref_loop_s");
  emit_list(j, ref_loop_s);
  j.key("ref_loop_events").num(static_cast<std::uint64_t>(kRefEvents));
  j.key("window_s").num(window_s);
  j.key("peak_rss_kb").num(peak_rss_kb);
  const auto emit_passes = [&](const std::vector<PassOut>& ps) {
    j.open('[');
    for (const auto& p : ps) {
      j.open('{');
      j.key("cpu_s").num(p.cpu_s);
      j.key("total_s").num(p.total_s);
      j.key("io_ops").num(p.io_ops);
      j.key("probe_untraced_s").num(p.probe_untraced_s);
      j.key("probe_traced_s").num(p.probe_traced_s);
      j.key("probe_bytes").num(p.probe_bytes);
      j.key("probe_ios").num(p.probe_ios);
      j.close('}');
    }
    j.close(']');
  };
  j.key("passes");
  emit_passes(plain);
  j.key("attempted_ops").num(attempted);
  j.key("failed_ops").num(failed);
  j.key("mismatches").open('[');
  for (const auto& m : mismatches) j.str(m);
  j.close(']');
  j.key("fingerprints").open('{');
  j.key(std::to_string(ctx.seed));
  emit_jobs(j, first.jobs);
  for (const auto& [vs, p] : verified) {
    j.key(std::to_string(vs));
    emit_jobs(j, p.jobs);
  }
  j.close('}');
  if (a.trace) {
    j.key("traced_passes");
    emit_passes(traced);
    j.key("traced_s").num(traced_s);
    j.key("counters");
    emit_counters(j, traced.front().counters);
    j.key("analytics_s");
    emit_list(j, analytics_s);
    j.key("capture_arms").open('[');
    for (const auto& arm : arms) emit_list(j, arm);
    j.close(']');
    j.key("spans").open('[');
    for (const auto& s : log.spans()) {
      j.open('[');
      j.num(static_cast<double>(s.parent)).str(s.layer).str(s.name).num(s.t0).num(s.t1);
      j.close(']');
    }
    j.close(']');
  }
  j.close('}');
  std::fputs(j.text().c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
