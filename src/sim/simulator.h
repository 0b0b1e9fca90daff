// Discrete-event simulation core.
//
// The cluster substrate (network links, GPU streams, training loops) runs on
// this engine. Events at equal timestamps fire in scheduling order, which
// makes whole-cluster simulations bit-reproducible.
//
// Internally the scheduler is a two-rung ladder/calendar queue sized for
// thousand-node multi-job clusters (millions of pending events): near-future
// events hash into fine fixed-width buckets over a bounded frame and the
// active bucket is kept as a small binary heap; mid-future events hash into a
// coarse outer calendar whose buckets are subdivided into fresh frames as
// they come due; far-future events wait in an unsorted spillover that seeds
// the next outer calendar. Each outer bucket is a dense array of
// (when, record) entries, so carving a frame scans the times without
// touching the records and only the records moving into the frame are
// fetched; leftovers stay behind as entries. Bucket widths adapt to event
// density (span- and count-aware), and an overcrowded bucket is split into
// a finer sub-frame instead of heapified wholesale, so per-event cost stays
// near O(1) at any queue depth. Event records live in slab arenas and
// recycle through a free list, and callables are constructed in place
// inside the record (oversized captures spill to a BufferPool), so
// steady-state scheduling allocates nothing per event — the BufferPool
// discipline applied to the simulator itself; outer-bucket arrays keep a
// small capacity across carves and only grow for unusually full buckets.
// The `(when, seq)` FIFO tie-break of the original global heap is
// preserved exactly, so existing runs stay bit-identical.
//
// Publish hooks run each time Run() or RunUntil() returns, and when a
// caller runs RunPublishHooks(): the components on the per-event path
// (network, GPU devices, CaSync engine, bulk coordinator) tally their
// metrics in plain fields and publish them into their MetricsRegistry
// from a hook, so the event loop pays no lock or atomic for
// instrumentation (src/common/metrics.h).
#ifndef HIPRESS_SRC_SIM_SIMULATOR_H_
#define HIPRESS_SRC_SIM_SIMULATOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/logging.h"
#include "src/common/units.h"

namespace hipress {

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Runs `publish` each time Run() or RunUntil() returns, in the order
  // the hooks were created, for as long as the hook lives. A component
  // that owns one also publishes from its destructor, so a registry read
  // after either point sees every event the component recorded; a reader
  // inside an event callback sees the values of the last return. A hook
  // that outlives its simulator is detached and never runs again.
  class PublishHook {
   public:
    PublishHook(Simulator* sim, std::function<void()> publish);
    ~PublishHook();
    PublishHook(const PublishHook&) = delete;
    PublishHook& operator=(const PublishHook&) = delete;

   private:
    friend class Simulator;
    Simulator* sim_;
    std::function<void()> publish_;
  };

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // Schedules `fn` to run `delay` ns from now (delay >= 0). The callable is
  // constructed in place inside a pooled event record; any callable type
  // (lambda, std::function, function pointer) works without conversion.
  template <typename Fn>
  void Schedule(SimTime delay, Fn&& fn) {
    CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  // Schedules `fn` at absolute time `when` (must be >= now()).
  template <typename Fn>
  void ScheduleAt(SimTime when, Fn&& fn) {
    CHECK_GE(when, now_);
    EventRecord* record = AcquireRecord();
    record->when = when;
    ConstructCallable(record, std::forward<Fn>(fn));
    Enqueue(record);
  }

  // Runs until the event queue drains. Returns the final time.
  SimTime Run();

  // Runs until the queue drains or simulated time would exceed `deadline`;
  // events after the deadline stay queued. Returns the current time.
  SimTime RunUntil(SimTime deadline);

  // Runs a single event if one is pending; returns false when idle.
  bool Step();

  // Runs every publish hook now, as a return from Run() does: for a reader
  // that samples a registry from inside an event callback.
  void RunPublishHooks();

  bool idle() const { return queued_ == 0; }

  // --- scheduler health (docs/TOPOLOGY.md) --------------------------------
  // Pending events right now, and the high-water mark over the run.
  uint64_t queue_depth() const { return queued_; }
  uint64_t queue_peak_depth() const { return queue_peak_depth_; }
  // Event records served from the recycle list vs. fresh slab memory. After
  // warm-up, the free list must serve everything: a steady-state schedule
  // rate with zero new misses is the invariant bench_sim_scale gates.
  uint64_t sched_pool_hits() const { return sched_pool_hits_; }
  uint64_t sched_pool_misses() const { return sched_pool_misses_; }
  // Events whose captures did not fit the record's inline storage and
  // spilled to the (pooled) side allocator.
  uint64_t sched_spilled_events() const { return sched_spilled_events_; }
  // Wall-clock seconds spent inside Run()/RunUntil() event loops; with
  // events_processed() this yields events per wall second.
  double run_wall_seconds() const { return run_wall_seconds_; }
  double events_per_wall_second() const {
    return run_wall_seconds_ > 0.0
               ? static_cast<double>(events_processed_) / run_wall_seconds_
               : 0.0;
  }

 private:
  // One pending event. Records live in slab arenas and never move, so the
  // callable is constructed directly into `inline_storage` (or a pooled
  // spill block when the capture is larger) and invoked in place.
  struct EventRecord {
    static constexpr size_t kInlineBytes = 128;

    SimTime when = 0;
    uint64_t seq = 0;             // FIFO tie-break for same-time events
    EventRecord* next = nullptr;  // fine-bucket chain / free-list link
    void (*invoke)(EventRecord*) = nullptr;   // run, then destroy callable
    void (*discard)(EventRecord*) = nullptr;  // destroy without running
    BufferPool::Block spill;                  // oversized-capture storage
    alignas(std::max_align_t) unsigned char inline_storage[kInlineBytes];

    void* callable() {
      return spill ? spill.data : static_cast<void*>(inline_storage);
    }
  };

  // An outer-calendar slot: the record's time kept beside the pointer so a
  // carve can bucket entries from a dense array.
  struct OuterEntry {
    SimTime when;
    EventRecord* record;
  };

  // Orders records later-first so std::push_heap/pop_heap keep the earliest
  // `(when, seq)` at the heap front — the exact ordering of the original
  // global priority queue.
  struct RecordLater {
    bool operator()(const EventRecord* a, const EventRecord* b) const {
      if (a->when != b->when) {
        return a->when > b->when;
      }
      return a->seq > b->seq;
    }
  };

  static constexpr int kBuckets = 2048;  // power of two; frame = B * width
  static constexpr int kBucketsShift = 11;
  static constexpr int kBitmapWords = kBuckets / 64;
  static constexpr int kMinWidthShift = 6;    // 64 ns fine buckets
  static constexpr int kMaxWidthShift = 26;   // 67 ms fine buckets
  static constexpr int kMaxOuterShift = 40;   // ~18 min outer buckets
  static constexpr int kSlabRecords = 256;
  // Ladder behavior: a bucket chain longer than this is split into a finer
  // sub-frame instead of heapified wholesale, and frame rebuilds narrow the
  // width until the expected chain stays near kTargetChain.
  static constexpr size_t kSplitThreshold = 1024;
  // Entries an outer bucket may keep allocated across carves (1 KiB).
  static constexpr size_t kOuterRetainedEntries = 64;
  static constexpr uint64_t kTargetChain = 32;

  template <typename Fn>
  void ConstructCallable(EventRecord* record, Fn&& fn) {
    using F = std::decay_t<Fn>;
    static_assert(alignof(F) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    void* where;
    if constexpr (sizeof(F) <= EventRecord::kInlineBytes) {
      record->spill = BufferPool::Block();
      where = record->inline_storage;
    } else {
      record->spill = spill_pool_.Acquire(sizeof(F));
      where = record->spill.data;
      ++sched_spilled_events_;
    }
    ::new (where) F(std::forward<Fn>(fn));
    record->invoke = [](EventRecord* rec) {
      F* f = static_cast<F*>(rec->callable());
      (*f)();
      f->~F();
    };
    record->discard = [](EventRecord* rec) {
      static_cast<F*>(rec->callable())->~F();
    };
  }

  EventRecord* AcquireRecord();
  void ReleaseRecord(EventRecord* record);
  void Enqueue(EventRecord* record);
  void PushActive(EventRecord* record);
  EventRecord* PopActive();
  // Ensures the globally earliest pending event sits at the active heap's
  // front, advancing the frame/spillover as needed. False when empty. Does
  // not execute anything, so RunUntil can peek across frame boundaries.
  bool PrepareNext();
  static int ScanBitmap(const uint64_t* bitmap, int from);
  void PushSpill(EventRecord* record);
  void PushOuter(int bucket, EventRecord* record);
  // Seeds the outer calendar (or, for thin spillovers, a frame directly)
  // from the unsorted far-future queue.
  void RebuildFromSpill();
  // Subdivides outer bucket `bucket` into a fresh fine frame anchored at
  // its earliest event; leftovers past the frame stay in the outer bucket
  // as entries, their records untouched.
  void BuildFrameFromOuter(int bucket);
  void NarrowFrame(int bucket);
  void DrainAll();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;

  // Calendar frame: bucket b spans
  // [frame_start_ + b << width_shift_, frame_start_ + (b + 1) << width_shift_).
  // Every queued record with when < active_end_ lives in the active heap;
  // buckets after active_bucket_ hold unsorted chains; records at or past
  // frame_end_ wait unsorted in the spillover.
  SimTime frame_start_ = 0;
  SimTime frame_end_ = 0;
  SimTime active_end_ = 0;
  int width_shift_ = 0;
  int active_bucket_ = -1;
  std::vector<EventRecord*> buckets_;
  uint64_t bucket_bitmap_[kBitmapWords] = {};
  std::vector<EventRecord*> active_;  // binary heap, earliest at front

  // Outer (coarse) calendar: mid-future records with
  // frame_end_ <= when < outer_end_ are appended to outer bucket
  // (when - outer_start_) >> outer_shift_. The fine frame is always carved
  // out of outer bucket outer_cursor_; when the frame drains, the cursor
  // bucket is rescanned (carve leftovers stay in it, and NarrowFrame pushes
  // displaced records into it) and then the cursor advances. A carve hands
  // back the bucket's spare capacity, so no bucket keeps its peak size.
  // Inactive until the spillover seeds it.
  bool outer_active_ = false;
  SimTime outer_start_ = 0;
  SimTime outer_end_ = 0;
  int outer_shift_ = 0;
  int outer_cursor_ = 0;
  std::vector<std::vector<OuterEntry>> outer_buckets_;
  uint64_t outer_bitmap_[kBitmapWords] = {};

  // Far-future records (when >= outer_end_, or >= frame_end_ while the
  // outer calendar is inactive) wait here unsorted.
  std::vector<EventRecord*> spill_queue_;
  std::vector<EventRecord*> rebuild_scratch_;  // reused across rebuilds
  SimTime spill_min_ = 0;
  SimTime spill_max_ = 0;

  // Record arena + recycle list; spill_pool_ backs oversized captures.
  std::vector<std::unique_ptr<EventRecord[]>> slabs_;
  int slab_used_ = kSlabRecords;
  EventRecord* free_records_ = nullptr;
  BufferPool spill_pool_;

  uint64_t queued_ = 0;
  uint64_t queue_peak_depth_ = 0;
  uint64_t sched_pool_hits_ = 0;
  uint64_t sched_pool_misses_ = 0;
  uint64_t sched_spilled_events_ = 0;
  double run_wall_seconds_ = 0.0;
  std::vector<PublishHook*> publish_hooks_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_SIM_SIMULATOR_H_
