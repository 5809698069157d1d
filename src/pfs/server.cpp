#include "pfs/server.hpp"

#include <algorithm>
#include <cmath>

#include "pablo/collector.hpp"
#include "sim/assert.hpp"

namespace sio::pfs {

sim::Tick IoServer::svc(sim::Tick t) const {
  if (!degraded_) return t;
  return static_cast<sim::Tick>(std::llround(static_cast<double>(t) * cfg_.degraded_multiplier));
}

sim::Task<void> IoServer::wait_if_crashed() {
  // Loop: a server may crash again between our wake-up and our service.
  while (crashed_) {
    co_await restart_ev_->wait();
  }
}

void IoServer::emit_loss(std::uint32_t file, std::uint64_t unit, bool torn) {
  if (collector_ == nullptr) return;
  pablo::LossEvent ev;
  ev.at = engine_.now();
  ev.target = id_;
  ev.file = file;
  ev.offset = unit * stripe_unit_;
  ev.bytes = ledger_.acked_undurable_bytes(file, unit);
  ev.torn = torn ? 1 : 0;
  collector_->record_loss(ev);
}

void IoServer::crash(bool torn) {
  const bool was_crashed = crashed_;
  crashed_ = true;
  ++crashes_;
  // Torn write: the crash caught an in-flight write-back and the array
  // applied only a deterministic prefix of the unit (half the stripe unit,
  // rounded down to the RAID-3 granule).  The write-back coroutine sees
  // `wb_.torn` when its access returns and skips the durability marking.
  if (torn && wb_.active && !wb_.torn) {
    const std::uint64_t granule = disk_.config().granule;
    const std::uint64_t half = stripe_unit_ / 2;
    const std::uint64_t prefix = granule > 0 ? half / granule * granule : half;
    ledger_.torn(wb_.file, wb_.unit, prefix);
    ++torn_units_;
    wb_.torn = true;
    emit_loss(wb_.file, wb_.unit, /*torn=*/true);
  }
  lost_dirty_ += dirty_.size();
  // One #loss record per dropped dirty unit, in FIFO (oldest-dirty) order.
  for (const auto& key : dirty_) emit_loss(key.file, key.unit, /*torn=*/false);
  // A crash while a recovery pass is redoing records aborts the pass; the
  // next restart resumes from whatever is still unapplied.
  if (was_crashed && recovering_) {
    recovering_ = false;
    if (collector_ != nullptr) {
      pablo::FaultEvent f;
      f.at = engine_.now();
      f.kind = pablo::FaultKind::kJournalAbort;
      f.target = id_;
      f.info = journal_.unapplied().size();
      collector_->record_fault(f);
    }
  }
  cache_.clear();
  lru_.clear();
  dirty_.clear();
  last_unit_.clear();
  completed_.clear();
  // The cache copies are gone: spans not yet on the array stay undurable
  // unless a full-journal redo restores them.
  ledger_.drop_residency();
  // Forget in-flight registrations: pre-crash attempts still hold their own
  // event handles and will wake their joined duplicates when they finish;
  // post-restart retries must re-execute, not join a doomed twin.
  in_flight_.clear();
  // Only a *fresh* crash re-arms the restart event.  A double fault during
  // recovery keeps the parked clients waiting on the same event — swapping
  // it here would orphan them forever (nothing would ever set the old one).
  if (!was_crashed) {
    restart_ev_ = std::make_unique<sim::Event>(engine_, "IoServer::restart");
  }
}

sim::Task<void> IoServer::begin_op(std::uint64_t op_id, bool* handled,
                                   std::shared_ptr<sim::Event>* done) {
  *handled = false;
  if (op_id == 0 || !replay_tracking_) co_return;
  bool joined = false;
  for (;;) {
    // Replay: the original attempt completed but its reply was lost in a
    // timeout/drop.  Acknowledge from the id set — for a write this avoids
    // applying it twice; for a read the produced unit is (at worst) one
    // cache probe away, so the front-end ack stands in for a hit.
    if (completed_.contains(op_id)) {
      if (!joined) ++replayed_;
      co_await engine_.delay(svc(cfg_.hit_service));
      *handled = true;
      co_return;
    }
    // Coalesce: the original attempt is still queued or on the array.
    // Joining it (instead of enqueueing a duplicate access) is what stops a
    // timed-out burst from re-feeding the very queue that made it time out.
    // After the twin wakes us we loop and re-check: a twin that *finished*
    // left the id in the completed set and we ack above, but a twin turned
    // away at QoS admission never completed — the work is still undone and
    // this attempt must register and drive it itself.
    auto it = in_flight_.find(op_id);
    if (it == in_flight_.end()) break;
    if (!joined) {
      joined = true;
      ++coalesced_;
    }
    const std::shared_ptr<sim::Event> twin = it->second;
    co_await twin->wait();
    co_await wait_if_crashed();
  }
  *done = std::make_shared<sim::Event>(engine_, "IoServer::op");
  in_flight_.emplace(op_id, *done);
}

void IoServer::finish_op(std::uint64_t op_id, const std::shared_ptr<sim::Event>& done) {
  if (done == nullptr) return;
  completed_.insert(op_id);
  // A crash may have wiped our registration — or a post-restart retry may
  // have re-registered the id.  Only erase the entry if it is still ours.
  auto it = in_flight_.find(op_id);
  if (it != in_flight_.end() && it->second == done) in_flight_.erase(it);
  done->set();
}

void IoServer::abort_op(std::uint64_t op_id, const std::shared_ptr<sim::Event>& done) {
  if (done == nullptr) return;
  // No completed_ insertion: the op was never applied, so a joined duplicate
  // waking here must re-drive it rather than treat the id as acknowledged.
  auto it = in_flight_.find(op_id);
  if (it != in_flight_.end() && it->second == done) in_flight_.erase(it);
  done->set();
}

sim::Tick IoServer::estimate_read(const UnitKey& key, std::uint64_t unit_disk_offset,
                                  std::uint64_t offset_in_unit, std::uint64_t len,
                                  bool buffered) const {
  if (!buffered) {
    return svc(cfg_.miss_setup) + disk_.service_time(unit_disk_offset + offset_in_unit, len);
  }
  if (cache_.find(key) != cache_.end()) return svc(cfg_.hit_service);
  return svc(cfg_.miss_setup) + disk_.service_time(unit_disk_offset, stripe_unit_);
}

sim::Tick IoServer::estimate_write(std::uint64_t unit_disk_offset, std::uint64_t offset_in_unit,
                                   std::uint64_t len, bool buffered) const {
  if (!buffered) {
    return svc(cfg_.miss_setup) + disk_.service_time(unit_disk_offset + offset_in_unit, len);
  }
  return svc(cfg_.write_absorb +
             static_cast<sim::Tick>(static_cast<double>(len) / cfg_.absorb_bytes_per_tick));
}

void IoServer::note_cpu_queue() {
  peak_cpu_queue_ = std::max(peak_cpu_queue_, cpu_.queue_length() + 1);
}

void IoServer::restart() {
  SIO_ASSERT(crashed_);
  if (!journal_.enabled() || !journal_.has_unapplied()) {
    // Pre-journal path (and the journal-on path with nothing to redo):
    // byte-identical with the original cold restart.
    crashed_ = false;
    restart_ev_->set();
    return;
  }
  recovering_ = true;
  engine_.spawn(recover(crashes_));
}

sim::Task<void> IoServer::recover(std::uint64_t epoch) {
  // Serialize behind any pre-crash operation still holding the CPU; new
  // arrivals stay parked (crashed_ is still true) until recovery finishes.
  auto guard = co_await cpu_.scoped();
  if (crashes_ != epoch) co_return;  // a second crash superseded this pass
  std::uint64_t redone = 0;
  std::uint64_t detected = 0;
  for (const auto& rec : journal_.unapplied()) {
    co_await engine_.delay(svc(cfg_.journal_replay_setup));
    if (crashes_ != epoch) co_return;
    if (journal_.mode() == JournalMode::kFull) {
      if (rec.payload_corrupt && cfg_.integrity.enabled()) {
        // The logged payload's checksum does not verify: redoing it would
        // write garbage over good data.  Skip the redo as a *detected* loss
        // (the clients must re-drive; the scrub attributes the bytes).
        journal_.note_detected_lost(rec.file, rec.unit);
        ++integ_.journal_csum_fails;
        emit_integrity(pablo::IntegrityKind::kJournalCsumFail, rec.file, rec.unit, rec.bytes);
        ++detected;
        continue;
      }
      // Redo the whole unit from the logged payload.  Only a *completed*
      // redo retires the record, so an interrupted pass re-redoes it —
      // exactly once per record across however many attempts it takes.
      const bool applied = co_await write_back(rec.file, rec.unit, rec.disk_offset);
      if (applied) {
        // The log holds the payload of every acked write folded into the
        // record, so the redo restores the unit's entire acked set — not
        // just whatever happens to be resident (the crash dropped that).
        ledger_.redone(rec.file, rec.unit);
        if (rec.payload_corrupt) {
          // Integrity off: the rotted payload was faithfully written back.
          // The unit now holds wrong-but-parity-consistent bytes — silent
          // corruption only the omniscient ledger can see.
          ledger_.mark_stale(rec.file, rec.unit);
        }
        journal_.note_redone(rec.file, rec.unit);
        ++redone;
      }
      if (crashes_ != epoch) co_return;
    } else {
      // Meta mode logged only the intent: the payload is gone.  Flag the
      // loss so the scrub can attribute it, but there is nothing to redo.
      journal_.note_detected_lost(rec.file, rec.unit);
      ++detected;
    }
  }
  journal_.note_recovery_done();
  recovering_ = false;
  if (collector_ != nullptr) {
    pablo::FaultEvent f;
    f.at = engine_.now();
    f.kind = pablo::FaultKind::kJournalRecovery;
    f.target = id_;
    f.info = journal_.mode() == JournalMode::kFull ? redone : detected;
    collector_->record_fault(f);
  }
  crashed_ = false;
  restart_ev_->set();
}

bool IoServer::lookup(const UnitKey& key) { return cache_.find(key) != cache_.end(); }

void IoServer::touch(const UnitKey& key) {
  auto it = cache_.find(key);
  SIO_ASSERT(it != cache_.end());
  // Relinks the node in place: no free/malloc per hit, and lru_pos stays valid.
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

void IoServer::insert(const UnitKey& key, std::uint64_t disk_offset, bool dirty) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    touch(key);
    if (dirty && !it->second.dirty) {
      it->second.dirty = true;
      dirty_.push_back(key);
    }
    return;
  }
  lru_.push_front(key);
  CacheEntry entry;
  entry.lru_pos = lru_.begin();
  entry.disk_offset = disk_offset;
  entry.dirty = dirty;
  cache_.emplace(key, entry);
  if (dirty) dirty_.push_back(key);
}

sim::Task<bool> IoServer::write_back(std::uint32_t file, std::uint64_t unit,
                                     std::uint64_t disk_offset) {
  // All write-backs run under the CPU mutex and complete their array access
  // before releasing it, so the single slot can never be overwritten while
  // a transfer is in flight.
  wb_.file = file;
  wb_.unit = unit;
  wb_.active = true;
  wb_.torn = false;
  co_await disk_.access(disk_offset, stripe_unit_, /*write=*/true);
  // Unless a torn crash clipped the transfer, the DMA completed and the
  // unit's acked contents are on the array — even if a plain crash wiped
  // the cache meanwhile.
  const bool applied = !wb_.torn;
  if (applied) {
    const WbCorruptWindow* w = wb_corrupt_active();
    if (w == nullptr) {
      ledger_.durable(file, unit);
      last_wb_ = UnitKey{file, unit};
      has_last_wb_ = true;
    } else if (w->phantom || !has_last_wb_ ||
               (last_wb_.file == file && last_wb_.unit == unit)) {
      // Phantom write-back: the server believes the DMA completed (it will
      // trim the journal record below), but the array never saw the bytes.
      // Old durable content is now wrong against the acked set — and the
      // stored checksum was updated to the *new* content, so verify-on-read
      // detects the mismatch, but parity matches the old bytes: stale.
      const std::uint64_t stale = ledger_.mark_stale(file, unit);
      ++integ_.phantom_write_backs;
      emit_integrity(pablo::IntegrityKind::kPhantomWrite, file, unit,
                     stale != 0 ? stale : ledger_.acked_undurable_bytes(file, unit));
    } else {
      // Misdirected write-back: the bytes land on the previously written
      // unit's location, clobbering it, while the target keeps its old
      // content.  Both are wrong-but-parity-consistent.
      const std::uint64_t victim = ledger_.mark_stale(last_wb_.file, last_wb_.unit);
      ledger_.mark_stale(file, unit);
      ++integ_.misdirected_write_backs;
      emit_integrity(pablo::IntegrityKind::kMisdirectedWrite, last_wb_.file, last_wb_.unit,
                     victim);
    }
  }
  wb_.active = false;
  wb_.torn = false;
  co_return applied;
}

sim::Task<void> IoServer::evict_if_needed() {
  while (lru_.size() > cfg_.cache_units) {
    const UnitKey victim = lru_.back();
    auto it = cache_.find(victim);
    SIO_ASSERT(it != cache_.end());
    if (it->second.dirty) {
      // Write the victim back before dropping it.
      const std::uint64_t off = it->second.disk_offset;
      dirty_.remove(victim);
      it->second.dirty = false;
      const bool applied = co_await write_back(victim.file, victim.unit, off);
      if (applied) journal_.mark_applied(victim.file, victim.unit);
      // A crash during the write-back wipes the whole cache; nothing left
      // for this pass to evict.
      if (cache_.find(victim) == cache_.end()) continue;
    }
    lru_.pop_back();
    cache_.erase(victim);
  }
}

sim::Task<void> IoServer::flush_oldest_dirty() {
  if (dirty_.empty()) co_return;
  const UnitKey key = dirty_.front();
  dirty_.pop_front();
  auto it = cache_.find(key);
  if (it == cache_.end()) co_return;
  it->second.dirty = false;
  const std::uint64_t off = it->second.disk_offset;
  const bool applied = co_await write_back(key.file, key.unit, off);
  if (applied) journal_.mark_applied(key.file, key.unit);
}

sim::Task<qos::Admission> IoServer::read(UnitKey key, std::uint64_t unit_disk_offset,
                                         std::uint64_t offset_in_unit, std::uint64_t len,
                                         bool buffered, int prefetch_cap, OpCtx ctx) {
  // Admission stage: crash parking, replay/coalescing lookup, and the QoS
  // front door — everything between arrival and the grant of server work.
  obs::SpanScope admit_span(ctx.span, obs::StageKind::kAdmit, ctx.node, id_);
  co_await wait_if_crashed();
  bool handled = false;
  std::shared_ptr<sim::Event> done;
  co_await begin_op(ctx.op_id, &handled, &done);
  if (handled) {
    admit_span.close();
    co_return qos::Admission{};
  }

  // Bounded admission (when a QoS front door is attached).  An op turned
  // away holds no server resources: its in-flight registration is withdrawn
  // and the verdict travels back to the client with the retry-after credit.
  sim::Tick est = 0;
  sim::Tick granted_at = 0;
  if (qos_ != nullptr) {
    est = estimate_read(key, unit_disk_offset, offset_in_unit, len, buffered);
    const qos::Admission adm =
        co_await qos_->admit(ctx.node, qos::OpClass::kData, est, ctx.deadline_left, ctx.op_id);
    if (adm.verdict != qos::Verdict::kAdmitted) {
      abort_op(ctx.op_id, done);
      admit_span.close();
      co_return adm;
    }
    granted_at = adm.granted_at;
  }
  admit_span.close();
  note_cpu_queue();
  obs::SpanScope svc_span(ctx.span, obs::StageKind::kService, ctx.node, id_, len);
  {
    auto guard = co_await cpu_.scoped();
    const std::uint64_t disk_offset = unit_disk_offset;

    if (!buffered) {
      ++unbuffered_;
      co_await engine_.delay(svc(cfg_.miss_setup));
      {
        // Unbuffered access bypasses the cache and pays a raw array access;
        // RAID-3 rounds the transfer up to its granule internally.
        obs::SpanScope disk_span(svc_span.ctx(), obs::StageKind::kDisk, ctx.node, id_, len);
        co_await disk_.access(unit_disk_offset + offset_in_unit, len, /*write=*/false);
      }
      observe_fetched(key, unit_disk_offset, offset_in_unit, len);
      if (cfg_.integrity.enabled()) {
        obs::SpanScope verify_span(svc_span.ctx(), obs::StageKind::kVerify, ctx.node, id_, len);
        co_await verify_range(key, unit_disk_offset, offset_in_unit, len);
      } else {
        note_corrupt_served(key, offset_in_unit, len);
      }
    } else if (lookup(key)) {
      ++hits_;
      touch(key);
      // Hits advance the sequential detector too, so a run that alternates
      // between prefetched hits and misses keeps prefetching.
      last_unit_[key.file] = key.unit;
      co_await engine_.delay(svc(cfg_.hit_service));
      // A tainted entry serves the corrupt bytes its fetch copied in: with a
      // checksum it is a *detected* stale serve, without one a silent ack.
      const auto hit = cache_.find(key);
      if (hit != cache_.end() && hit->second.tainted) {
        if (cfg_.integrity.enabled()) {
          const std::uint64_t bad = ledger_.corrupt_overlap(key.file, key.unit, 0, stripe_unit_);
          ++integ_.stale_served;
          emit_integrity(pablo::IntegrityKind::kStaleServed, key.file, key.unit, bad);
        } else {
          note_corrupt_served(key, offset_in_unit, len);
        }
      }
    } else {
      ++misses_;
      co_await engine_.delay(svc(cfg_.miss_setup));

      // Sequential prefetch (policy extension): if this miss extends a
      // sequential run for the file, fetch extra units in the same array
      // access.  On this server, consecutive units of one file differ by the
      // stripe factor in global index but are contiguous on the local array.
      int extra = 0;
      if (cfg_.prefetch_units > 0) {
        auto it = last_unit_.find(key.file);
        if (it != last_unit_.end() && key.unit == it->second + stripe_factor_) {
          extra = std::min(cfg_.prefetch_units, prefetch_cap);
        }
      }
      last_unit_[key.file] = key.unit;

      const std::uint64_t fetch_bytes = stripe_unit_ * static_cast<std::uint64_t>(1 + extra);
      {
        obs::SpanScope disk_span(svc_span.ctx(), obs::StageKind::kDisk, ctx.node, id_,
                                 fetch_bytes);
        co_await disk_.access(disk_offset, fetch_bytes, /*write=*/false);
      }
      insert(key, disk_offset, /*dirty=*/false);
      for (int i = 1; i <= extra; ++i) {
        const auto step = static_cast<std::uint64_t>(i);
        insert(UnitKey{key.file, key.unit + step * stripe_factor_},
               disk_offset + step * stripe_unit_,
               /*dirty=*/false);
        ++prefetched_;
      }
      // Every unit the fetch brought in is checksummed (or, with integrity
      // off, silently copies whatever the array held — including rot).
      for (int i = 0; i <= extra; ++i) {
        const auto step = static_cast<std::uint64_t>(i);
        const UnitKey fkey{key.file, key.unit + step * stripe_factor_};
        observe_fetched(fkey, disk_offset + step * stripe_unit_, 0, stripe_unit_);
        if (cfg_.integrity.enabled()) {
          obs::SpanScope verify_span(svc_span.ctx(), obs::StageKind::kVerify, ctx.node, id_,
                                     stripe_unit_);
          co_await verify_fetched(fkey, disk_offset + step * stripe_unit_);
        } else if (ledger_.unit_corrupt_bytes(fkey.file, fkey.unit) > 0) {
          const auto ent = cache_.find(fkey);
          if (ent != cache_.end()) ent->second.tainted = true;
        }
      }
      if (!cfg_.integrity.enabled()) note_corrupt_served(key, offset_in_unit, len);
      co_await evict_if_needed();
    }
    finish_op(ctx.op_id, done);
  }
  svc_span.close();
  if (qos_ != nullptr) qos_->release(est, granted_at);
  co_return qos::Admission{};
}

sim::Task<qos::Admission> IoServer::write(UnitKey key, std::uint64_t unit_disk_offset,
                                          std::uint64_t offset_in_unit, std::uint64_t len,
                                          bool buffered, OpCtx ctx) {
  obs::SpanScope admit_span(ctx.span, obs::StageKind::kAdmit, ctx.node, id_);
  co_await wait_if_crashed();
  bool handled = false;
  std::shared_ptr<sim::Event> done;
  co_await begin_op(ctx.op_id, &handled, &done);
  if (handled) {
    admit_span.close();
    co_return qos::Admission{};
  }

  sim::Tick est = 0;
  sim::Tick granted_at = 0;
  if (qos_ != nullptr) {
    est = estimate_write(unit_disk_offset, offset_in_unit, len, buffered);
    const qos::Admission adm =
        co_await qos_->admit(ctx.node, qos::OpClass::kData, est, ctx.deadline_left, ctx.op_id);
    if (adm.verdict != qos::Verdict::kAdmitted) {
      abort_op(ctx.op_id, done);
      admit_span.close();
      co_return adm;
    }
    granted_at = adm.granted_at;
  }
  admit_span.close();
  note_cpu_queue();
  obs::SpanScope svc_span(ctx.span, obs::StageKind::kService, ctx.node, id_, len);
  {
    auto guard = co_await cpu_.scoped();
    const std::uint64_t disk_offset = unit_disk_offset;

    if (!buffered) {
      ++unbuffered_;
      co_await engine_.delay(svc(cfg_.miss_setup));
      {
        obs::SpanScope disk_span(svc_span.ctx(), obs::StageKind::kDisk, ctx.node, id_, len);
        co_await disk_.access(unit_disk_offset + offset_in_unit, len, /*write=*/true);
      }
    } else {
      co_await engine_.delay(svc(cfg_.write_absorb +
                                 static_cast<sim::Tick>(static_cast<double>(len) /
                                                        cfg_.absorb_bytes_per_tick)));
      // Write-ahead ordering: the journal record is forced to the log
      // region before the write is applied to the cache (and long before
      // the ack below).  With the journal off this adds neither state nor
      // time and the path is byte-identical with the pre-journal model.
      if (journal_.enabled()) {
        const std::uint64_t logged =
            journal_.append(ctx.op_id, key.file, key.unit, disk_offset, len);
        obs::SpanScope journal_span(svc_span.ctx(), obs::StageKind::kJournal, ctx.node, id_,
                                    logged);
        co_await engine_.delay(
            svc(cfg_.journal_append_setup +
                static_cast<sim::Tick>(static_cast<double>(logged) /
                                       cfg_.journal_bytes_per_tick)));
      }
      insert(key, disk_offset, /*dirty=*/true);
      ledger_.ack(key.file, key.unit, offset_in_unit, len, ctx.op_id);
      // A client write refreshes the cache copy: whatever taint the entry
      // carried is superseded for serving purposes once this unit flushes,
      // and the scrubber/injector learn the unit's physical location here.
      unit_locations_[{key.file, key.unit}] = disk_offset;
      if (dirty_.size() > cfg_.dirty_limit) {
        co_await flush_oldest_dirty();
      }
      co_await evict_if_needed();
    }
    finish_op(ctx.op_id, done);
  }
  svc_span.close();
  if (qos_ != nullptr) qos_->release(est, granted_at);
  co_return qos::Admission{};
}

sim::Task<void> IoServer::flush_all() {
  co_await wait_if_crashed();
  auto guard = co_await cpu_.scoped();
  while (!dirty_.empty()) {
    co_await flush_oldest_dirty();
  }
}

}  // namespace sio::pfs
