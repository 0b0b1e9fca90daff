// Global coordinator for compression-aware bulk synchronization
// (Section 3.2, Figure 3).
//
// Nodes submit the metadata of pending transfers (source, destination,
// bytes); the coordinator maintains per-link queues and flushes each queue
// as one batched message, either when the queued bytes reach the size
// threshold or when the batch timeout expires — "whichever is met first".
// Link conflict avoidance falls out of the network model: every uplink and
// downlink is FIFO-serialized, so batched messages on disjoint links flow in
// parallel while same-link batches queue. The coordinator's own metadata
// traffic is not modelled; the paper measures it as negligible because it
// overlaps the previous batch's bulk transfer.
//
// Real-data transfers (EnqueueTransfer) ride the same queues with pooled
// payloads: the flush assembles one batch frame directly into a PooledBytes
// block drawn from the network's wire pool, and the size threshold rounds
// up to a whole BufferPool bucket so flushed frames land in a recycled
// block instead of a fresh heap allocation. See docs/COMMUNICATION.md.
#ifndef HIPRESS_SRC_CASYNC_COORDINATOR_H_
#define HIPRESS_SRC_CASYNC_COORDINATOR_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/sim/simulator.h"

namespace hipress {

// Batch frame layout (little-endian, positional):
//   u32 entry_count
//   per entry: u64 tag, u32 payload_len, payload bytes
// Entries map one-to-one onto the flushed transfers in enqueue order, so
// the receiver dispatches entry i to the i-th transfer's on_deliver.
// Metadata-only transfers batched alongside real ones carry len = 0.
//
// BatchFrameReader is the allocation-free cursor over such a frame. Like
// ByteBuffer::ReadAt, every read is bounds-checked: a truncated or
// corrupted frame is a programming error upstream (the coordinator built
// the frame it is now parsing) and aborts rather than reading out of
// bounds. Spans returned by Next() alias the frame.
class BatchFrameReader {
 public:
  explicit BatchFrameReader(std::span<const uint8_t> frame) : frame_(frame) {
    count_ = Read<uint32_t>();
  }

  uint32_t entry_count() const { return count_; }

  struct Entry {
    uint64_t tag = 0;
    std::span<const uint8_t> payload;
  };

  // Reads the next entry; CHECK-fails past entry_count() or on a frame too
  // short for its own headers/payload lengths.
  Entry Next() {
    CHECK_LT(read_, count_) << "BatchFrameReader::Next past the "
                            << count_ << " entries the frame declares";
    ++read_;
    Entry entry;
    entry.tag = Read<uint64_t>();
    const uint32_t len = Read<uint32_t>();
    CHECK(len <= frame_.size() - offset_)
        << "batch frame entry of " << len << " bytes at offset " << offset_
        << " overruns frame of " << frame_.size() << " bytes";
    entry.payload = frame_.subspan(offset_, len);
    offset_ += len;
    return entry;
  }

 private:
  template <typename T>
  T Read() {
    CHECK(sizeof(T) <= frame_.size() && offset_ <= frame_.size() - sizeof(T))
        << "batch frame read of " << sizeof(T) << " bytes at offset "
        << offset_ << " overruns frame of " << frame_.size() << " bytes";
    T value;
    std::memcpy(&value, frame_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::span<const uint8_t> frame_;
  size_t offset_ = 0;
  uint32_t count_ = 0;
  uint32_t read_ = 0;
};

class BulkCoordinator {
 public:
  // `metrics` (optional) receives batch/transfer counts, batch-size and
  // queueing-delay histograms ("coordinator.batches",
  // "coordinator.batch_bytes", "coordinator.queue_delay_us") plus the
  // bucket-padding counter ("coordinator.batch_bucket_waste_bytes");
  // `spans` (optional) receives one coordinator-round span per flushed
  // batch on the source node's track. Flush only bumps the coordinator's
  // own tallies (batches_sent() and friends); they are published into
  // `metrics` each time the simulator's Run()/RunUntil() returns and when
  // the coordinator is destroyed (Simulator::PublishHook).
  //
  // `size_threshold` rounds up to the containing BufferPool bucket
  // (BucketCapacity), so a size-triggered flush produces a frame that fits
  // the recycled block a previous batch released — the wire path stops
  // allocating once every link has flushed once.
  BulkCoordinator(Simulator* sim, Network* net, uint64_t size_threshold,
                  SimTime timeout, MetricsRegistry* metrics = nullptr,
                  SpanCollector* spans = nullptr)
      : sim_(sim),
        net_(net),
        size_threshold_(BufferPool::BucketCapacity(size_threshold)),
        timeout_(timeout),
        spans_(spans),
        num_nodes_(net->num_nodes()),
        link_rows_(num_nodes_),
        publish_hook_(sim, [this] { PublishMetrics(); }) {
    if (metrics != nullptr) {
      batches_metric_ =
          CounterPublisher(&metrics->counter("coordinator.batches"));
      transfers_metric_ = CounterPublisher(
          &metrics->counter("coordinator.transfers_batched"));
      waste_metric_ = CounterPublisher(
          &metrics->counter("coordinator.batch_bucket_waste_bytes"));
      batch_bytes_ = LocalHistogram(&metrics->histogram(
          "coordinator.batch_bytes", HistogramBuckets::DefaultBytes()));
      queue_delay_us_ =
          LocalHistogram(&metrics->histogram("coordinator.queue_delay_us"));
    }
  }
  ~BulkCoordinator() { PublishMetrics(); }

  // Routes flushed batches through `channel` (reliable transport) instead
  // of the raw network; batch completions then carry the channel's Status,
  // including peer-failure reports. Must outlive the coordinator.
  void set_channel(ReliableChannel* channel) { channel_ = channel; }

  // Submits one transfer's metadata from `src` to `dst` (valid, distinct
  // node ids; CHECK-enforced). `on_complete` fires with OkStatus() when the
  // batch containing it arrives at `dst`, or with the reliable channel's
  // error (UNAVAILABLE peer) when the batch could not be delivered.
  void EnqueueWithStatus(int src, int dst, uint64_t bytes,
                         std::function<void(const Status&)> on_complete);

  // Real-data variant: the transfer carries `payload` (pooled, refcounted)
  // through the batch frame to the receiver. `on_deliver` (optional) fires
  // at the receiver's delivery time with a span aliasing this transfer's
  // bytes inside the delivered frame; `on_complete` fires as in
  // EnqueueWithStatus. The coordinator holds the payload shared_ptr until
  // the flush has assembled the frame; the frame itself is a pooled block
  // that the reliable channel re-sends by reference on retransmit.
  void EnqueueTransfer(int src, int dst, uint64_t tag,
                       std::shared_ptr<PooledBytes> payload,
                       std::function<void(std::span<const uint8_t>)> on_deliver,
                       std::function<void(const Status&)> on_complete);

  // True when no link holds queued transfers awaiting a flush. The adaptive
  // controller's codec swap asserts this at iteration boundaries: a pending
  // batch would otherwise be priced under one codec and delivered under
  // another.
  bool Idle() const {
    for (const LinkQueue& queue : links_) {
      if (!queue.pending.empty()) {
        return false;
      }
    }
    return true;
  }

  uint64_t batches_sent() const { return batches_sent_; }
  uint64_t transfers_batched() const { return transfers_batched_; }
  // Bucket-rounded threshold actually in force (tests assert alignment).
  uint64_t size_threshold() const { return size_threshold_; }
  // Cumulative padding between flushed frames (or metadata batch bytes)
  // and the pool bucket each one occupies.
  uint64_t bucket_waste_bytes() const { return bucket_waste_bytes_; }

 private:
  struct Pending {
    uint64_t bytes;
    uint64_t tag = 0;
    std::shared_ptr<PooledBytes> payload;  // null for metadata-only
    std::function<void(std::span<const uint8_t>)> on_deliver;
    std::function<void(const Status&)> on_complete;
    SimTime enqueued_at = 0;
  };
  struct LinkQueue {
    int src = 0;
    int dst = 0;
    std::vector<Pending> pending;
    uint64_t queued_bytes = 0;
    uint64_t flush_epoch = 0;  // invalidates stale timeout events
    SimTime first_enqueued_at = 0;
  };

  void EnqueuePending(int src, int dst, Pending pending);
  // Makes room for one more entry in a full link queue: moves its entries
  // into the smallest spare vector with more capacity and returns the old
  // vector to the spares. With no such spare, the caller's push_back grows
  // the vector.
  void GrowPending(std::vector<Pending>* pending);
  // Files an emptied batch vector (capacity > 0) under its spare class.
  void ReturnSpare(std::vector<Pending> spare);
  // spare_ index for a vector of `capacity` > 0 entries.
  static int SpareClass(size_t capacity);
  void Flush(int32_t link);
  // Completion of a raw-network batch: fans the delivered frame out and
  // recycles the batch's storage.
  void OnBatchDelivered(int32_t slot, const NetMessage& delivered);
  // Serializes `batch` into one pooled frame drawn from the network's wire
  // pool and fans delivered entries back out to each transfer's on_deliver.
  std::shared_ptr<PooledBytes> BuildFrame(const std::vector<Pending>& batch);
  static void DispatchFrame(const NetMessage& message,
                            std::vector<Pending>& batch);
  void PublishMetrics();

  Simulator* sim_;
  Network* net_;
  ReliableChannel* channel_ = nullptr;
  uint64_t size_threshold_;
  SimTime timeout_;
  SpanCollector* spans_ = nullptr;
  // Registry counters the tallies at the end publish into; unbound when
  // no registry is wired.
  CounterPublisher batches_metric_;
  CounterPublisher transfers_metric_;
  CounterPublisher waste_metric_;
  LocalHistogram batch_bytes_;
  LocalHistogram queue_delay_us_;
  int num_nodes_;
  // Dense link table: link_rows_[src][dst] -> index into links_, or -1
  // until the link first carries a transfer. A source's row of num_nodes_
  // slots is allocated when that source first sends, so a job's
  // coordinator on a shared network pays only for the job's own senders.
  // links_ never moves its elements, so queue references survive new
  // links.
  std::vector<std::unique_ptr<int32_t[]>> link_rows_;
  std::deque<LinkQueue> links_;
  // Raw-network batches in flight, indexed by the slot their delivery
  // callback captures (a deque, so a completion that re-enters Flush does
  // not move the batch being completed).
  std::deque<std::vector<Pending>> batches_;
  std::vector<int32_t> free_batches_;
  // Emptied batch vectors, capacity kept, binned by capacity: spare_[k]
  // holds capacities in [2^k, 2^(k+1)), the last bin everything larger. A
  // link queue that fills takes the smallest spare with room, so
  // steady-state batching allocates nothing and each vector's capacity
  // stays near the batches it carries.
  static constexpr int kSpareClasses = 8;
  std::array<std::vector<std::vector<Pending>>, kSpareClasses> spare_;
  uint64_t batches_sent_ = 0;
  uint64_t transfers_batched_ = 0;
  uint64_t bucket_waste_bytes_ = 0;
  Simulator::PublishHook publish_hook_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_CASYNC_COORDINATOR_H_
