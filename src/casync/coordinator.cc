#include "src/casync/coordinator.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "src/common/string_util.h"

namespace hipress {

namespace {

// Per-entry frame overhead: u64 tag + u32 payload length.
constexpr size_t kEntryHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t);

template <typename T>
void AppendScalar(PooledBytes& frame, T value) {
  const size_t offset = frame.size();
  frame.resize(offset + sizeof(T));
  std::memcpy(frame.data() + offset, &value, sizeof(T));
}

}  // namespace

void BulkCoordinator::EnqueueWithStatus(
    int src, int dst, uint64_t bytes,
    std::function<void(const Status&)> on_complete) {
  Pending pending;
  pending.bytes = bytes;
  pending.on_complete = std::move(on_complete);
  EnqueuePending(src, dst, std::move(pending));
}

void BulkCoordinator::EnqueueTransfer(
    int src, int dst, uint64_t tag, std::shared_ptr<PooledBytes> payload,
    std::function<void(std::span<const uint8_t>)> on_deliver,
    std::function<void(const Status&)> on_complete) {
  CHECK(payload != nullptr) << "EnqueueTransfer requires a payload; use "
                               "EnqueueWithStatus for metadata-only sends";
  Pending pending;
  pending.bytes = payload->size();
  pending.tag = tag;
  pending.payload = std::move(payload);
  pending.on_deliver = std::move(on_deliver);
  pending.on_complete = std::move(on_complete);
  EnqueuePending(src, dst, std::move(pending));
}

void BulkCoordinator::EnqueuePending(int src, int dst, Pending pending) {
  CHECK(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_ &&
        src != dst)
      << "coordinator link " << src << "->" << dst << " is not a pair of "
      << "distinct nodes in [0, " << num_nodes_ << ")";
  std::unique_ptr<int32_t[]>& row = link_rows_[src];
  if (row == nullptr) {
    row = std::make_unique<int32_t[]>(num_nodes_);
    std::fill_n(row.get(), num_nodes_, -1);
  }
  int32_t& slot = row[dst];
  if (slot < 0) {
    slot = static_cast<int32_t>(links_.size());
    LinkQueue& created = links_.emplace_back();
    created.src = src;
    created.dst = dst;
  }
  const int32_t link = slot;
  LinkQueue& queue = links_[link];
  if (queue.pending.empty()) {
    queue.first_enqueued_at = sim_->now();
  }
  if (queue.pending.size() == queue.pending.capacity()) {
    GrowPending(&queue.pending);
  }
  pending.enqueued_at = sim_->now();
  queue.queued_bytes += pending.bytes;
  queue.pending.push_back(std::move(pending));

  if (queue.queued_bytes >= size_threshold_) {
    Flush(link);
    return;
  }
  // Work-conserving: when the link is idle there is nothing to batch
  // against — send immediately. Batching only pays under backpressure.
  if (net_->EarliestStart(src, dst) <= sim_->now()) {
    Flush(link);
    return;
  }
  if (queue.pending.size() == 1) {
    // First entry in an empty queue arms the batch timeout.
    const uint64_t epoch = queue.flush_epoch;
    sim_->Schedule(timeout_, [this, link, epoch] {
      const LinkQueue& armed = links_[link];
      if (armed.flush_epoch == epoch && !armed.pending.empty()) {
        Flush(link);
      }
    });
  }
}

int BulkCoordinator::SpareClass(size_t capacity) {
  return std::min(kSpareClasses, static_cast<int>(std::bit_width(capacity))) -
         1;
}

void BulkCoordinator::GrowPending(std::vector<Pending>* pending) {
  const size_t capacity = pending->capacity();
  for (int k = capacity == 0 ? 0 : SpareClass(capacity); k < kSpareClasses;
       ++k) {
    std::vector<std::vector<Pending>>& bin = spare_[k];
    if (bin.empty() || bin.back().capacity() <= capacity) {
      continue;
    }
    std::vector<Pending> roomier = std::move(bin.back());
    bin.pop_back();
    roomier.insert(roomier.end(), std::make_move_iterator(pending->begin()),
                   std::make_move_iterator(pending->end()));
    pending->clear();
    pending->swap(roomier);
    if (roomier.capacity() > 0) {
      ReturnSpare(std::move(roomier));
    }
    return;
  }
  // No spare has room: the caller's push_back grows the vector.
}

void BulkCoordinator::ReturnSpare(std::vector<Pending> spare) {
  spare_[SpareClass(spare.capacity())].push_back(std::move(spare));
}

std::shared_ptr<PooledBytes> BulkCoordinator::BuildFrame(
    const std::vector<Pending>& batch) {
  // One pass to size the frame exactly, so the single resize below acquires
  // the right bucket up front instead of growing through smaller ones.
  size_t frame_bytes = sizeof(uint32_t);
  for (const Pending& pending : batch) {
    frame_bytes += kEntryHeaderBytes;
    if (pending.payload != nullptr) {
      frame_bytes += pending.payload->size();
    }
  }
  auto frame = std::make_shared<PooledBytes>(net_->wire_pool());
  frame->reserve(frame_bytes);
  AppendScalar(*frame, static_cast<uint32_t>(batch.size()));
  for (const Pending& pending : batch) {
    AppendScalar(*frame, pending.tag);
    const uint32_t len =
        pending.payload != nullptr
            ? static_cast<uint32_t>(pending.payload->size())
            : 0;
    AppendScalar(*frame, len);
    if (len > 0) {
      const size_t offset = frame->size();
      frame->resize(offset + len);
      std::memcpy(frame->data() + offset, pending.payload->data(), len);
    }
  }
  CHECK_EQ(frame->size(), frame_bytes);
  return frame;
}

void BulkCoordinator::DispatchFrame(const NetMessage& message,
                                    std::vector<Pending>& batch) {
  auto frame = std::static_pointer_cast<PooledBytes>(message.payload);
  BatchFrameReader reader(frame->span());
  CHECK_EQ(reader.entry_count(), batch.size())
      << "delivered batch frame does not match the flushed transfer count";
  for (Pending& pending : batch) {
    const BatchFrameReader::Entry entry = reader.Next();
    if (pending.on_deliver) {
      pending.on_deliver(entry.payload);
    }
  }
}

void BulkCoordinator::Flush(int32_t link) {
  LinkQueue& queue = links_[link];
  const int src = queue.src;
  const int dst = queue.dst;
  std::vector<Pending>& batch = queue.pending;
  const uint64_t batch_bytes = queue.queued_bytes;
  queue.queued_bytes = 0;
  ++queue.flush_epoch;
  ++batches_sent_;
  transfers_batched_ += batch.size();

  bool has_payload = false;
  for (const Pending& pending : batch) {
    if (pending.payload != nullptr) {
      has_payload = true;
      break;
    }
  }

  NetMessage message;
  message.src = src;
  message.dst = dst;
  message.bytes = batch_bytes;
  if (has_payload) {
    // Real-data batch: serialize into one pooled frame. The wire size is
    // the frame size (payloads plus framing headers), and the payload
    // shared_ptr keeps exactly this block alive across retransmits. The
    // enqueued payloads themselves drop here — frame assembly is the last
    // copy on the send path.
    std::shared_ptr<PooledBytes> frame = BuildFrame(batch);
    message.bytes = frame->size();
    message.payload = std::move(frame);
    for (Pending& pending : batch) {
      pending.payload.reset();
    }
  }
  // Padding between what this batch used and the pool bucket it occupies
  // (projected from batch_bytes for metadata-only batches): the price of
  // bucket-aligned sizing, bounded by the threshold's bucket rounding.
  const uint64_t waste =
      message.bytes > 0
          ? BufferPool::BucketCapacity(message.bytes) - message.bytes
          : 0;
  bucket_waste_bytes_ += waste;

  batch_bytes_.Observe(static_cast<double>(batch_bytes));
  for (const Pending& pending : batch) {
    queue_delay_us_.Observe(
        static_cast<double>(sim_->now() - pending.enqueued_at) /
        kMicrosecond);
  }
  if (spans_ != nullptr) {
    // A coordinator round: from the first transfer queued on this link to
    // the flush decision. The batched wire transfer itself shows up on the
    // network lanes.
    spans_->Add(src, kTraceLaneCoordinator,
                StrFormat("round %d->%d (%zu, %s)", src, dst, batch.size(),
                          HumanBytes(batch_bytes).c_str()),
                queue.first_enqueued_at, sim_->now());
  }

  if (channel_ != nullptr) {
    // Reliable path: the whole batch shares one transfer's fate — delivered
    // (possibly after retries) or failed with the channel's peer status.
    // The batch is shared between the deliver and completion callbacks;
    // exactly one delivery dispatch fires (the channel latches duplicates).
    auto shared_batch = std::make_shared<std::vector<Pending>>(std::move(batch));
    channel_->Send(
        std::move(message),
        has_payload ? std::function<void(const NetMessage&)>(
                          [shared_batch](const NetMessage& delivered) {
                            DispatchFrame(delivered, *shared_batch);
                          })
                    : nullptr,
        [shared_batch](const Status& status) {
          for (Pending& pending : *shared_batch) {
            pending.on_complete(status);
          }
        });
    return;
  }
  // Raw network: the batch moves into a recycled slot (the link queue keeps
  // an empty vector) and the delivery callback captures only the slot.
  int32_t slot;
  if (!free_batches_.empty()) {
    slot = free_batches_.back();
    free_batches_.pop_back();
  } else {
    slot = static_cast<int32_t>(batches_.size());
    batches_.emplace_back();
  }
  batches_[slot].swap(batch);
  net_->Send(std::move(message), [this, slot](const NetMessage& delivered) {
    OnBatchDelivered(slot, delivered);
  });
}

void BulkCoordinator::PublishMetrics() {
  batches_metric_.Publish(batches_sent_);
  transfers_metric_.Publish(transfers_batched_);
  waste_metric_.Publish(bucket_waste_bytes_);
  batch_bytes_.Publish();
  queue_delay_us_.Publish();
}

void BulkCoordinator::OnBatchDelivered(int32_t slot,
                                       const NetMessage& delivered) {
  std::vector<Pending>& batch = batches_[slot];
  if (delivered.payload != nullptr) {
    DispatchFrame(delivered, batch);
  }
  for (Pending& pending : batch) {
    pending.on_complete(OkStatus());
  }
  batch.clear();
  ReturnSpare(std::move(batch));
  free_batches_.push_back(slot);
}

}  // namespace hipress
