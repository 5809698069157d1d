#include "obs/trace.hpp"

#include <algorithm>

#include "sim/engine.hpp"

namespace sio::obs {

std::uint32_t Tracer::open(std::uint32_t parent, StageKind stage,
                           std::uint64_t op_id, std::int32_t node,
                           std::int32_t target, std::uint64_t bytes,
                           std::uint64_t info) {
  if (parent != 0 && index_.find(parent) == kNone) return 0;
  const std::uint32_t s = slots_.acquire();
  const std::uint32_t id = next_id_++;
  slots_[s] = OpenSpan{.start = engine_.now(),
                       .op_id = op_id,
                       .bytes = bytes,
                       .info = info,
                       .id = id,
                       .parent = parent,
                       .node = node,
                       .target = target,
                       .stage = stage};
  index_.exchange(id, s);
  return id;
}

void Tracer::close(std::uint32_t id) {
  const std::uint32_t s = index_.find(id);
  if (s == kNone) return;
  emit(slots_[s], 0);
  release(s);
}

void Tracer::release(std::uint32_t s) {
  index_.take(slots_[s].id);
  slots_.release(s);
}

bool Tracer::descends_from(std::uint32_t parent, std::uint32_t ancestor) const {
  // Parents have smaller ids than their children, so the walk can stop
  // once it passes below `ancestor`.
  while (parent >= ancestor) {
    if (parent == ancestor) return true;
    const std::uint32_t s = index_.find(parent);
    if (s == kNone) return false;
    parent = slots_[s].parent;
  }
  return false;
}

void Tracer::abandon(std::uint32_t id) {
  const std::uint32_t s = index_.find(id);
  if (s == kNone) return;
  // Collect the whole open subtree before releasing anything, so parent
  // chains stay walkable.
  doomed_.assign(1, s);
  for (std::uint32_t t = 0; t < slots_.size(); ++t) {
    if (slots_[t].id > id && descends_from(slots_[t].parent, id)) doomed_.push_back(t);
  }
  force_close_doomed();
}

void Tracer::finish() {
  doomed_.clear();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].id != 0) doomed_.push_back(s);
  }
  force_close_doomed();
}

void Tracer::force_close_doomed() {
  // Descendants always have larger ids than their ancestors, so descending
  // id order emits children before parents, just like a normal unwind.
  std::sort(doomed_.begin(), doomed_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].id > slots_[b].id;
  });
  for (std::uint32_t s : doomed_) {
    emit(slots_[s], kSpanAbandoned);
    release(s);
  }
  doomed_.clear();
}

void Tracer::emit(const OpenSpan& s, std::uint64_t flags) {
  sim::Tick now = engine_.now();
  sink_.on_span(SpanEvent{.start = s.start,
                          .duration = now > s.start ? now - s.start : 0,
                          .op_id = s.op_id,
                          .span = s.id,
                          .parent = s.parent,
                          .stage = s.stage,
                          .node = s.node,
                          .target = s.target,
                          .bytes = s.bytes,
                          .flags = flags,
                          .info = s.info});
  ++emitted_;
}

void Tracer::set_bytes(std::uint32_t id, std::uint64_t bytes) {
  if (OpenSpan* o = find(id)) o->bytes = bytes;
}

void Tracer::set_op_id(std::uint32_t id, std::uint64_t op_id) {
  if (OpenSpan* o = find(id)) o->op_id = op_id;
}

void Tracer::set_info(std::uint32_t id, std::uint64_t info) {
  if (OpenSpan* o = find(id)) o->info = info;
}

}  // namespace sio::obs
