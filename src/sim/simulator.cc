#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <chrono>

namespace hipress {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Simulator::Simulator() : spill_pool_(nullptr, "sim") {
  buckets_.assign(kBuckets, nullptr);
  outer_buckets_.resize(kBuckets);
  width_shift_ = 16;  // 65.5 us buckets, ~134 ms frame before re-framing
  frame_start_ = 0;
  frame_end_ = static_cast<SimTime>(kBuckets) << width_shift_;
  active_bucket_ = 0;
  active_end_ = SimTime{1} << width_shift_;
}

Simulator::~Simulator() {
  for (PublishHook* hook : publish_hooks_) {
    hook->sim_ = nullptr;
  }
  DrainAll();
}

Simulator::PublishHook::PublishHook(Simulator* sim,
                                    std::function<void()> publish)
    : sim_(sim), publish_(std::move(publish)) {
  sim_->publish_hooks_.push_back(this);
}

Simulator::PublishHook::~PublishHook() {
  if (sim_ != nullptr) {
    std::erase(sim_->publish_hooks_, this);
  }
}

void Simulator::RunPublishHooks() {
  for (PublishHook* hook : publish_hooks_) {
    hook->publish_();
  }
}

SimTime Simulator::Run() {
  const auto start = std::chrono::steady_clock::now();
  while (Step()) {
  }
  run_wall_seconds_ += SecondsSince(start);
  RunPublishHooks();
  return now_;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  const auto start = std::chrono::steady_clock::now();
  // PrepareNext surfaces the globally earliest event without running it, so
  // peeking across bucket/frame boundaries is free of side effects. Events
  // exactly at the deadline still run; `now_` only jumps to the deadline
  // when nothing at all remains queued.
  while (PrepareNext() && active_.front()->when <= deadline) {
    Step();
  }
  if (now_ < deadline && queued_ == 0) {
    now_ = deadline;
  }
  run_wall_seconds_ += SecondsSince(start);
  RunPublishHooks();
  return now_;
}

bool Simulator::Step() {
  if (!PrepareNext()) {
    return false;
  }
  EventRecord* record = PopActive();
  --queued_;
  now_ = record->when;
  ++events_processed_;
  record->invoke(record);  // may schedule more events
  ReleaseRecord(record);
  return true;
}

void Simulator::Enqueue(EventRecord* record) {
  record->seq = next_seq_++;
  ++queued_;
  if (queued_ > queue_peak_depth_) {
    queue_peak_depth_ = queued_;
  }
  if (record->when < active_end_) {
    PushActive(record);
    return;
  }
  if (record->when < frame_end_) {
    const int b =
        static_cast<int>((record->when - frame_start_) >> width_shift_);
    record->next = buckets_[b];
    buckets_[b] = record;
    bucket_bitmap_[b >> 6] |= uint64_t{1} << (b & 63);
    return;
  }
  if (outer_active_ && record->when < outer_end_) {
    PushOuter(static_cast<int>((record->when - outer_start_) >> outer_shift_),
              record);
    return;
  }
  PushSpill(record);
}

void Simulator::PushSpill(EventRecord* record) {
  if (spill_queue_.empty()) {
    spill_min_ = record->when;
    spill_max_ = record->when;
  } else {
    spill_min_ = std::min(spill_min_, record->when);
    spill_max_ = std::max(spill_max_, record->when);
  }
  record->next = nullptr;
  spill_queue_.push_back(record);
}

void Simulator::PushOuter(int bucket, EventRecord* record) {
  outer_buckets_[bucket].push_back(OuterEntry{record->when, record});
  outer_bitmap_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
}

void Simulator::PushActive(EventRecord* record) {
  active_.push_back(record);
  std::push_heap(active_.begin(), active_.end(), RecordLater{});
}

Simulator::EventRecord* Simulator::PopActive() {
  std::pop_heap(active_.begin(), active_.end(), RecordLater{});
  EventRecord* record = active_.back();
  active_.pop_back();
  return record;
}

bool Simulator::PrepareNext() {
  while (active_.empty()) {
    const int b = ScanBitmap(bucket_bitmap_, active_bucket_ + 1);
    if (b >= 0) {
      active_bucket_ = b;
      active_end_ =
          frame_start_ + (static_cast<SimTime>(b + 1) << width_shift_);
      EventRecord* chain = buckets_[b];
      buckets_[b] = nullptr;
      bucket_bitmap_[b >> 6] &= ~(uint64_t{1} << (b & 63));
      while (chain != nullptr) {
        EventRecord* next = chain->next;
        if (next != nullptr) {
          __builtin_prefetch(next);
        }
        chain->next = nullptr;
        active_.push_back(chain);
        chain = next;
      }
      if (active_.size() > kSplitThreshold && width_shift_ > kMinWidthShift) {
        // Ladder step: heapifying a chain this long costs O(n log n) with
        // scattered accesses; subdivide the bucket into a finer frame and
        // rescan instead.
        NarrowFrame(b);
        continue;
      }
      std::make_heap(active_.begin(), active_.end(), RecordLater{});
      return true;
    }
    if (outer_active_) {
      // Rescan from the cursor (inclusive): a just-drained frame re-chains
      // its leftovers into the cursor bucket, which must be carved again
      // before advancing.
      const int ob = ScanBitmap(outer_bitmap_, outer_cursor_);
      if (ob >= 0) {
        BuildFrameFromOuter(ob);
        continue;
      }
      outer_active_ = false;
    }
    if (spill_queue_.empty()) {
      return false;
    }
    RebuildFromSpill();
  }
  return true;
}

int Simulator::ScanBitmap(const uint64_t* bitmap, int from) {
  if (from >= kBuckets) {
    return -1;
  }
  int word = from >> 6;
  uint64_t bits = bitmap[word] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      return (word << 6) + std::countr_zero(bits);
    }
    if (++word >= kBitmapWords) {
      return -1;
    }
    bits = bitmap[word];
  }
}

void Simulator::RebuildFromSpill() {
  if (spill_queue_.size() <= kSplitThreshold) {
    // Thin spillover: one fine frame anchored at the earliest far-future
    // event covers it without the outer rung. Pick a bucket width that
    // spreads the span across the calendar — narrow for dense schedules,
    // wide when events stretch far apart — then narrow further until the
    // expected chain approaches kTargetChain (the far tail just stays in
    // the spillover for the next rebuild).
    frame_start_ = spill_min_;
    const SimTime span = spill_max_ - spill_min_;
    int shift = kMinWidthShift;
    while (shift < kMaxWidthShift && (span >> shift) >= kBuckets) {
      ++shift;
    }
    const uint64_t count = spill_queue_.size();
    while (shift > kMinWidthShift && span > 0 &&
           (count << shift) / static_cast<uint64_t>(span) > kTargetChain) {
      --shift;
    }
    width_shift_ = shift;
    frame_end_ = frame_start_ + (static_cast<SimTime>(kBuckets) << shift);
    active_bucket_ = -1;
    active_end_ = frame_start_;
    rebuild_scratch_.swap(spill_queue_);
    spill_queue_.clear();
    spill_min_ = 0;
    spill_max_ = 0;
    for (size_t i = 0; i < rebuild_scratch_.size(); ++i) {
      if (i + 8 < rebuild_scratch_.size()) {
        __builtin_prefetch(rebuild_scratch_[i + 8]);
      }
      EventRecord* record = rebuild_scratch_[i];
      if (record->when < frame_end_) {
        const int b =
            static_cast<int>((record->when - frame_start_) >> width_shift_);
        record->next = buckets_[b];
        buckets_[b] = record;
        bucket_bitmap_[b >> 6] |= uint64_t{1} << (b & 63);
      } else {
        PushSpill(record);
      }
    }
    rebuild_scratch_.clear();
    return;
  }
  // Deep spillover: seed the coarse outer calendar over the whole span so
  // each later rebuild touches only one outer bucket instead of rescanning
  // the entire far-future set. Oversized outer chains are fine — they get
  // carved into frames (and split further) as they come due.
  outer_start_ = spill_min_;
  const SimTime span = spill_max_ - spill_min_;
  int shift = kMinWidthShift;
  while (shift < kMaxOuterShift && (span >> shift) >= kBuckets) {
    ++shift;
  }
  outer_shift_ = shift;
  outer_end_ = outer_start_ + (static_cast<SimTime>(kBuckets) << shift);
  outer_cursor_ = 0;
  outer_active_ = true;
  // Empty frame sentinel until the first carve; the fine bitmap is clear,
  // so PrepareNext falls through to the outer scan.
  frame_start_ = outer_start_;
  frame_end_ = outer_start_;
  active_end_ = outer_start_;
  active_bucket_ = -1;
  rebuild_scratch_.swap(spill_queue_);
  spill_queue_.clear();
  spill_min_ = 0;
  spill_max_ = 0;
  for (size_t i = 0; i < rebuild_scratch_.size(); ++i) {
    if (i + 8 < rebuild_scratch_.size()) {
      __builtin_prefetch(rebuild_scratch_[i + 8]);
    }
    EventRecord* record = rebuild_scratch_[i];
    if (record->when < outer_end_) {
      PushOuter(
          static_cast<int>((record->when - outer_start_) >> outer_shift_),
          record);
    } else {
      PushSpill(record);
    }
  }
  rebuild_scratch_.clear();
}

void Simulator::BuildFrameFromOuter(int bucket) {
  outer_cursor_ = bucket;
  std::vector<OuterEntry>& entries = outer_buckets_[bucket];
  const SimTime bucket_end =
      outer_start_ + (static_cast<SimTime>(bucket + 1) << outer_shift_);
  // The times sit in the dense entry array: finding the minimum touches no
  // record (records scheduled long ago are cache misses).
  SimTime lo = entries.front().when;
  for (const OuterEntry& entry : entries) {
    lo = std::min(lo, entry.when);
  }
  const uint64_t count = entries.size();
  // Anchor the frame at the bucket minimum (so it always admits at least
  // one event) and size the width like RebuildFromSpill: span-fit over the
  // rest of this outer bucket, then density-narrowed toward kTargetChain.
  const SimTime span = bucket_end - lo;
  int shift = kMinWidthShift;
  while (shift < kMaxWidthShift && (span >> shift) >= kBuckets) {
    ++shift;
  }
  while (shift > kMinWidthShift && span > 0 &&
         (count << shift) / static_cast<uint64_t>(span) > kTargetChain) {
    --shift;
  }
  frame_start_ = lo;
  frame_end_ = std::min(
      bucket_end, frame_start_ + (static_cast<SimTime>(kBuckets) << shift));
  width_shift_ = shift;
  active_bucket_ = -1;
  active_end_ = frame_start_;
  // Distribute: in-frame records chain into fine buckets (prefetched a few
  // entries ahead, since each is written); the tail stays in this same
  // outer bucket, compacted in place, and the cursor rescans it after the
  // frame drains. The frame never reaches past bucket_end, so Enqueue
  // routing into later outer buckets stays consistent.
  constexpr size_t kPrefetchAhead = 8;
  const size_t n = entries.size();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n &&
        entries[i + kPrefetchAhead].when < frame_end_) {
      __builtin_prefetch(entries[i + kPrefetchAhead].record, 1);
    }
    const OuterEntry entry = entries[i];
    if (entry.when < frame_end_) {
      const int fb =
          static_cast<int>((entry.when - frame_start_) >> width_shift_);
      entry.record->next = buckets_[fb];
      buckets_[fb] = entry.record;
      bucket_bitmap_[fb >> 6] |= uint64_t{1} << (fb & 63);
    } else {
      entries[kept++] = entry;
    }
  }
  entries.resize(kept);
  if (kept == 0) {
    outer_bitmap_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
  }
  // Hand back capacity the leftovers do not need, so no bucket keeps its
  // peak size; a small array stays, so steady churn through the calendar
  // (a few events per bucket) does not allocate on every carve.
  if (entries.capacity() > std::max(kOuterRetainedEntries, 2 * kept)) {
    entries.shrink_to_fit();
  }
}

void Simulator::NarrowFrame(int bucket) {
  // `active_` holds the oversized chain, not yet heapified. Later buckets
  // hold events at or past this bucket's end; they move up a rung — into
  // the cursor's outer bucket when the outer calendar is live (the frame is
  // always carved from that bucket, so its window covers them), otherwise
  // into the spillover — so the finer frame can take over just this
  // bucket's window. The new frame_end_ is exactly the old bucket end,
  // which keeps every displaced record at or past frame_end_ — the
  // invariant Enqueue routing and in-order draining rely on.
  const SimTime bucket_start =
      frame_start_ + (static_cast<SimTime>(bucket) << width_shift_);
  const SimTime bucket_end = bucket_start + (SimTime{1} << width_shift_);
  for (int b = ScanBitmap(bucket_bitmap_, bucket + 1); b >= 0;
       b = ScanBitmap(bucket_bitmap_, b + 1)) {
    EventRecord* chain = buckets_[b];
    buckets_[b] = nullptr;
    bucket_bitmap_[b >> 6] &= ~(uint64_t{1} << (b & 63));
    while (chain != nullptr) {
      EventRecord* next = chain->next;
      chain->next = nullptr;
      if (outer_active_) {
        PushOuter(outer_cursor_, chain);
      } else {
        PushSpill(chain);
      }
      chain = next;
    }
  }
  // Subdivide the window; with 2048 buckets one ladder step covers the old
  // bucket exactly, and the density correction can go finer still.
  int shift = std::max(kMinWidthShift, width_shift_ - kBucketsShift);
  const uint64_t count = active_.size();
  const uint64_t window = uint64_t{1} << width_shift_;
  while (shift > kMinWidthShift &&
         (count << shift) / window > kTargetChain) {
    --shift;
  }
  frame_start_ = bucket_start;
  frame_end_ = bucket_end;
  width_shift_ = shift;
  active_bucket_ = -1;
  active_end_ = frame_start_;
  rebuild_scratch_.swap(active_);
  active_.clear();
  for (EventRecord* record : rebuild_scratch_) {
    const int b =
        static_cast<int>((record->when - frame_start_) >> width_shift_);
    record->next = buckets_[b];
    buckets_[b] = record;
    bucket_bitmap_[b >> 6] |= uint64_t{1} << (b & 63);
  }
  rebuild_scratch_.clear();
}

Simulator::EventRecord* Simulator::AcquireRecord() {
  if (free_records_ != nullptr) {
    EventRecord* record = free_records_;
    free_records_ = record->next;
    record->next = nullptr;
    ++sched_pool_hits_;
    return record;
  }
  if (slab_used_ == kSlabRecords) {
    slabs_.push_back(std::make_unique<EventRecord[]>(kSlabRecords));
    slab_used_ = 0;
  }
  ++sched_pool_misses_;
  return &slabs_.back()[slab_used_++];
}

void Simulator::ReleaseRecord(EventRecord* record) {
  if (record->spill) {
    spill_pool_.Release(record->spill);
    record->spill = BufferPool::Block();
  }
  record->invoke = nullptr;
  record->discard = nullptr;
  record->next = free_records_;
  free_records_ = record;
}

void Simulator::DrainAll() {
  auto drop = [this](EventRecord* record) {
    if (record->discard != nullptr) {
      record->discard(record);
    }
    if (record->spill) {
      spill_pool_.Release(record->spill);
      record->spill = BufferPool::Block();
    }
  };
  for (EventRecord* record : active_) {
    drop(record);
  }
  active_.clear();
  for (int b = 0; b < kBuckets; ++b) {
    for (EventRecord* record = buckets_[b]; record != nullptr;
         record = record->next) {
      drop(record);
    }
    buckets_[b] = nullptr;
    for (const OuterEntry& entry : outer_buckets_[b]) {
      drop(entry.record);
    }
    outer_buckets_[b].clear();
  }
  for (EventRecord* record : spill_queue_) {
    drop(record);
  }
  spill_queue_.clear();
  queued_ = 0;
}

}  // namespace hipress
