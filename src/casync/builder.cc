#include "src/casync/builder.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/logging.h"

namespace hipress {
namespace {

uint64_t WireBytes(uint64_t partition_bytes, const GradientSync& gradient) {
  if (!gradient.compress) {
    return partition_bytes;
  }
  const auto compressed = static_cast<uint64_t>(
      static_cast<double>(partition_bytes) * gradient.rate);
  return std::max(compressed, kMinWireBytes);
}

using Action = std::function<void()>;

SyncTask MakeTask(PrimitiveType type, int node, uint64_t bytes,
                  uint32_t gradient_id, int peer = -1) {
  SyncTask task;
  task.type = type;
  task.node = node;
  task.peer = peer;
  task.bytes = bytes;
  task.gradient_id = gradient_id;
  return task;
}

// A computing task or join point doing `action` (empty in timing-only
// graphs).
SyncTask MakeTask(PrimitiveType type, int node, uint64_t bytes,
                  uint32_t gradient_id, Action action) {
  SyncTask task = MakeTask(type, node, bytes, gradient_id);
  task.action = std::move(action);
  return task;
}

// Partition p of k of a data binding: its elements, the remainder of the
// split going to the leading partitions. `data` is null in timing-only
// graphs and for empty partitions; every accessor and action is then
// empty, so the builders call them unconditionally.
struct Slice {
  Slice(const SyncData* bound, int k, int p) {
    if (bound == nullptr) {
      return;
    }
    const size_t elements = bound->result.size();
    const auto parts = static_cast<size_t>(k);
    const auto index = static_cast<size_t>(p);
    offset = index * (elements / parts) + std::min(index, elements % parts);
    count = elements / parts + (index < elements % parts ? 1 : 0);
    data = count > 0 ? bound : nullptr;
  }

  std::span<const float> input(int node) const {
    return data != nullptr ? data->inputs[node].subspan(offset, count)
                           : std::span<const float>();
  }
  std::span<float> result() const {
    return data != nullptr ? data->result.subspan(offset, count)
                           : std::span<float>();
  }
  ByteBuffer* NewWire() const {
    return data != nullptr ? data->workspace->Wire() : nullptr;
  }
  void Check(const Status& status) const { data->workspace->Check(status); }
  // `into` += the decoded `wire` (compressed) or `raw` (uncompressed).
  void Add(std::span<float> into, const ByteBuffer* wire,
           std::span<const float> raw) const {
    if (data->codec != nullptr) {
      Check(data->codec->DecodeAdd(*wire, into));
      return;
    }
    for (size_t i = 0; i < into.size(); ++i) {
      into[i] += raw[i];
    }
  }

  template <typename Fn>
  Action Bind(Fn fn) const {
    return data != nullptr ? Action(std::move(fn)) : Action();
  }
  Action Encode(std::span<const float> from, ByteBuffer* wire) const {
    return Bind([*this, from, wire] {
      Check(data->codec->Encode(from, wire));
    });
  }
  // The final decode into the result, run by every node the aggregate
  // reaches. With `encode_first` it encodes the result into `wire` first:
  // the single-node case, where no other node decodes.
  Action Decode(ByteBuffer* wire, bool encode_first = false) const {
    return Bind([*this, wire, encode_first] {
      if (encode_first) {
        Check(data->codec->Encode(result(), wire));
      }
      Check(data->codec->Decode(*wire, result()));
    });
  }
  // `into` = `seed` (when non-empty) + the decoded `wire` or `raw`.
  Action Merge(std::span<float> into, std::span<const float> seed,
               const ByteBuffer* wire, std::span<const float> raw) const {
    return Bind([*this, into, seed, wire, raw] {
      std::copy(seed.begin(), seed.end(), into.begin());
      Add(into, wire, raw);
    });
  }
  // The PS aggregate join: the aggregator's own shard, then every other
  // worker's push in worker order, whatever order they arrived in
  // (`pushes` by worker; empty when uncompressed).
  Action Join(int aggregator, std::vector<ByteBuffer*> pushes) const {
    return Bind([*this, aggregator, pushes = std::move(pushes)] {
      std::copy_n(input(aggregator).begin(), count, result().begin());
      for (int w = 0; w < static_cast<int>(data->inputs.size()); ++w) {
        if (w != aggregator) {
          Add(result(), pushes.empty() ? nullptr : pushes[w], input(w));
        }
      }
    });
  }

  const SyncData* data = nullptr;
  size_t offset = 0;
  size_t count = 0;
};

// The whole sync on one node: each partition's result is its input, or
// decode(encode(input)) when compressed.
Action SyncOneNode(const SyncData* data, int k) {
  if (data == nullptr) {
    return {};
  }
  ByteBuffer* wire =
      data->codec != nullptr ? data->workspace->Wire() : nullptr;
  return [data, k, wire] {
    for (int p = 0; p < k; ++p) {
      const Slice slice(data, k, p);
      if (slice.data != nullptr) {
        const std::span<const float> input = slice.input(0);
        std::copy(input.begin(), input.end(), slice.result().begin());
        if (wire != nullptr) {
          slice.Decode(wire, /*encode_first=*/true)();
        }
      }
    }
  };
}

// PS, per partition: the aggregate barrier and the co-located merge; per
// remote worker a push (encode?, send, recv, decode-or-merge) and a pull
// (send, recv, decode?); and, when compressed, the encode-back. The pull
// root (the barrier, or the encode-back) feeds all N-1 pulls; every other
// task feeds at most one.
SyncTaskCounts CountPs(int n, int k, bool compress) {
  const size_t c = compress ? 1 : 0;
  const auto workers = static_cast<size_t>(n - 1);
  return {static_cast<size_t>(k) * (2 + c + workers * (5 + 2 * c)),
          static_cast<size_t>(k) * (workers > 0 ? workers - 1 : 0)};
}

// Ring, per chunk: N-1 reduce hops (encode?, send, recv, decode-or-merge),
// the final encode when compressed, and N-1 forwarding hops (send, recv,
// decode?). A forwarding recv feeds the next send and, when compressed,
// its own decode; every other task feeds at most one. A single node is one
// barrier.
SyncTaskCounts CountRing(int n, int k, bool compress) {
  if (n == 1) {
    return {1, 0};
  }
  const size_t c = compress ? 1 : 0;
  const auto hops = static_cast<size_t>(n - 1);
  return {static_cast<size_t>(k) * (hops * (5 + 2 * c) + c),
          static_cast<size_t>(k) * c * (hops - 1)};
}

// ceil(log2 n): the binomial tree's rounds each way.
int TreeRounds(int n) {
  int rounds = 0;
  while ((1 << rounds) < n) {
    ++rounds;
  }
  return rounds;
}

// Binomial tree: the ring's task count per partition (N-1 reduce edges,
// the root's encode when compressed, N-1 broadcast edges). Reduce tasks
// feed at most one task each; in the broadcast, the logical root's carrier
// feeds one send per round, and every other node's recv feeds its decode
// (when compressed) plus one send per child.
SyncTaskCounts CountTree(int n, int k, bool compress) {
  if (n == 1) {
    return {1, 0};
  }
  const int rounds = TreeRounds(n);
  const int c = compress ? 1 : 0;
  int overflow = rounds - 1;
  for (int u = 1; u < n; ++u) {
    // u receives in the round of its lowest set bit and forwards in each
    // earlier round whose partner exists.
    int fanout = c;
    for (int r = 0; ((u >> r) & 1) == 0; ++r) {
      fanout += u + (1 << r) < n ? 1 : 0;
    }
    overflow += std::max(0, fanout - 1);
  }
  return {CountRing(n, k, compress).tasks,
          static_cast<size_t>(k) * static_cast<size_t>(overflow)};
}

void ReserveFor(const SyncTaskCounts& counts, TaskGraph* graph) {
  graph->Reserve(graph->size() + counts.tasks,
                 graph->overflow_edges() + counts.overflow_edges);
}

}  // namespace

SyncTaskCounts CountSyncTasks(const SyncConfig& config,
                              const GradientSync& gradient) {
  CHECK_GT(config.num_nodes, 0);
  const int k = std::max(1, gradient.partitions);
  switch (config.strategy) {
    case StrategyKind::kPs:
      return CountPs(config.num_nodes, k, gradient.compress);
    case StrategyKind::kRing:
      return CountRing(config.num_nodes, k, gradient.compress);
    case StrategyKind::kTree:
      return CountTree(config.num_nodes, k, gradient.compress);
  }
  return {};
}

void AppendSyncTasks(const SyncConfig& config, const GradientSync& gradient,
                     TaskGraph* graph, const SyncData* data) {
  CHECK(data == nullptr || (data->codec != nullptr) == gradient.compress);
  switch (config.strategy) {
    case StrategyKind::kPs:
      AppendPsSyncTasks(config, gradient, graph, data);
      return;
    case StrategyKind::kRing:
      AppendRingSyncTasks(config, gradient, graph, data);
      return;
    case StrategyKind::kTree:
      AppendTreeSyncTasks(config, gradient, graph, data);
      return;
  }
}

void AppendSyncTasksOver(const SyncConfig& config, const GradientSync& gradient,
                         const std::vector<int>& nodes, TaskGraph* graph) {
  CHECK_GT(nodes.size(), 0u);
  SyncConfig over = config;
  over.num_nodes = static_cast<int>(nodes.size());
  const size_t first = graph->size();
  AppendSyncTasks(over, gradient, graph);
  // The builders emitted logical ids in [0, nodes.size()); map them onto the
  // listed physical nodes.
  for (size_t id = first; id < graph->size(); ++id) {
    TaskRecord& task = graph->task(static_cast<TaskId>(id));
    if (task.node >= 0) {
      task.node = nodes[task.node];
    }
    if (task.peer >= 0) {
      task.peer = nodes[task.peer];
    }
  }
}

void AppendPsSyncTasks(const SyncConfig& config, const GradientSync& gradient,
                       TaskGraph* graph, const SyncData* data) {
  const int n = config.num_nodes;
  CHECK_GT(n, 0);
  const int k = std::max(1, gradient.partitions);
  const uint64_t partition_bytes =
      std::max<uint64_t>(1, gradient.bytes / static_cast<uint64_t>(k));
  const uint64_t wire = WireBytes(partition_bytes, gradient);
  ReserveFor(CountPs(n, k, gradient.compress), graph);

  for (int p = 0; p < k; ++p) {
    // Aggregator assignment: spread partitions across nodes, offset by the
    // gradient id so different gradients load-balance (BytePS-style).
    const int aggregator = static_cast<int>((gradient.id + p) % n);
    const Slice slice(data, k, p);
    // Bound to data: each worker's encoded push, and the encoded aggregate.
    std::vector<ByteBuffer*> pushes(
        slice.data != nullptr && gradient.compress ? n : 0);
    for (ByteBuffer*& push : pushes) {
      push = slice.NewWire();
    }
    ByteBuffer* pull = gradient.compress ? slice.NewWire() : nullptr;

    // Aggregate-ready join point: all remote shards merged. The data merges
    // run here, in worker order, so the sum's rounding does not depend on
    // the order the pushes arrive in.
    const TaskId aggregate = graph->Add(
        MakeTask(PrimitiveType::kBarrier, aggregator, partition_bytes,
                 gradient.id, slice.Join(aggregator, pushes)));

    for (int w = 0; w < n; ++w) {
      if (w == aggregator) {
        // Co-located shard: merged locally, no network round trip
        // (Section 6.1's adjusted alpha = 2(N-1)).
        const TaskId local_merge = graph->Add(MakeTask(
            PrimitiveType::kMerge, aggregator, partition_bytes, gradient.id));
        graph->AddDep(local_merge, aggregate);
        continue;
      }
      TaskId head = kInvalidTask;
      if (gradient.compress) {
        head = graph->Add(
            MakeTask(PrimitiveType::kEncode, w, partition_bytes, gradient.id,
                     slice.Encode(slice.input(w),
                                  pushes.empty() ? nullptr : pushes[w])));
      }
      const TaskId send = graph->Add(MakeTask(PrimitiveType::kSend, w, wire,
                                              gradient.id, aggregator));
      if (head != kInvalidTask) {
        graph->AddDep(head, send);
      }
      const TaskId recv = graph->Add(MakeTask(
          PrimitiveType::kRecv, aggregator, wire, gradient.id));
      graph->AddDep(send, recv);
      if (gradient.compress) {
        // Fused decode+merge into the aggregate.
        const TaskId dec = graph->Add(MakeTask(
            PrimitiveType::kDecode, aggregator, partition_bytes, gradient.id));
        graph->AddDep(recv, dec);
        graph->AddDep(dec, aggregate);
      } else {
        const TaskId merge = graph->Add(MakeTask(
            PrimitiveType::kMerge, aggregator, partition_bytes, gradient.id));
        graph->AddDep(recv, merge);
        graph->AddDep(merge, aggregate);
      }
    }

    // Push the aggregate back to the workers. A lone node has no one to
    // push to and decodes its own aggregate.
    TaskId push_root = aggregate;
    if (gradient.compress) {
      const TaskId enc_back = graph->Add(MakeTask(
          PrimitiveType::kEncode, aggregator, partition_bytes, gradient.id,
          n == 1 ? slice.Decode(pull, /*encode_first=*/true)
                 : slice.Encode(slice.result(), pull)));
      graph->AddDep(aggregate, enc_back);
      push_root = enc_back;
    }
    for (int w = 0; w < n; ++w) {
      if (w == aggregator) {
        continue;
      }
      const TaskId send = graph->Add(MakeTask(PrimitiveType::kSend, aggregator,
                                              wire, gradient.id, w));
      graph->AddDep(push_root, send);
      const TaskId recv =
          graph->Add(MakeTask(PrimitiveType::kRecv, w, wire, gradient.id));
      graph->AddDep(send, recv);
      if (gradient.compress) {
        const TaskId dec = graph->Add(MakeTask(
            PrimitiveType::kDecode, w, partition_bytes, gradient.id,
            slice.Decode(pull)));
        graph->AddDep(recv, dec);
      }
    }
  }
}

void AppendRingSyncTasks(const SyncConfig& config,
                         const GradientSync& gradient, TaskGraph* graph,
                         const SyncData* data) {
  const int n = config.num_nodes;
  CHECK_GT(n, 0);
  const int k = std::max(1, gradient.partitions);
  ReserveFor(CountRing(n, k, gradient.compress), graph);
  if (n == 1) {
    graph->Add(MakeTask(PrimitiveType::kBarrier, 0, gradient.bytes,
                        gradient.id, SyncOneNode(data, k)));
    return;
  }
  const uint64_t chunk_bytes =
      std::max<uint64_t>(1, gradient.bytes / static_cast<uint64_t>(k));
  const uint64_t wire = WireBytes(chunk_bytes, gradient);

  for (int c = 0; c < k; ++c) {
    const int start = c % n;  // chunks start spread around the ring
    // The chunk's running sum lives in its result range; one wire buffer
    // carries each hop in turn, then the final encoding.
    const Slice slice(data, k, c);
    ByteBuffer* hop_wire = gradient.compress ? slice.NewWire() : nullptr;

    // ---------------- aggregation phase: N-1 hops ----------------------
    // prev_ready: the task after which node u's partially-aggregated chunk
    // value is available for forwarding.
    TaskId prev_ready = kInvalidTask;
    for (int h = 1; h < n; ++h) {
      const int u = (start + h - 1) % n;
      const int v = (start + h) % n;
      // The first hop forwards the start node's own chunk.
      const std::span<const float> forwarded =
          h == 1 ? slice.input(start) : slice.result();
      TaskId forward_root = prev_ready;
      if (gradient.compress) {
        // Data dependency: u can only encode after it has decoded and
        // merged its predecessor's chunk (Section 3.3).
        const TaskId enc = graph->Add(
            MakeTask(PrimitiveType::kEncode, u, chunk_bytes, gradient.id,
                     slice.Encode(forwarded, hop_wire)));
        if (prev_ready != kInvalidTask) {
          graph->AddDep(prev_ready, enc);
        }
        forward_root = enc;
      }
      const TaskId send = graph->Add(
          MakeTask(PrimitiveType::kSend, u, wire, gradient.id, v));
      if (forward_root != kInvalidTask) {
        graph->AddDep(forward_root, send);
      }
      const TaskId recv =
          graph->Add(MakeTask(PrimitiveType::kRecv, v, wire, gradient.id));
      graph->AddDep(send, recv);
      if (gradient.compress) {
        // v's own chunk plus the decoded arrival.
        const TaskId dec = graph->Add(
            MakeTask(PrimitiveType::kDecode, v, chunk_bytes, gradient.id,
                     slice.Merge(slice.result(), slice.input(v), hop_wire,
                                 {})));
        graph->AddDep(recv, dec);
        prev_ready = dec;  // fused decode+merge
      } else {
        // The arrival (the start node's chunk on the first hop) plus v's.
        const TaskId merge = graph->Add(MakeTask(
            PrimitiveType::kMerge, v, chunk_bytes, gradient.id,
            slice.Merge(slice.result(),
                        h == 1 ? slice.input(start) : std::span<const float>(),
                        nullptr, slice.input(v))));
        graph->AddDep(recv, merge);
        prev_ready = merge;
      }
    }

    // ---------------- dissemination phase: N-1 hops ---------------------
    // The fully-aggregated chunk lives at f = start + N - 1. It is encoded
    // once; intermediate nodes forward the encoded buffer and decode in
    // parallel with the forwarding (gamma analysis: only the last decode is
    // on the critical path).
    const int final_node = (start + n - 1) % n;
    TaskId carry = prev_ready;
    if (gradient.compress) {
      const TaskId enc_final = graph->Add(
          MakeTask(PrimitiveType::kEncode, final_node, chunk_bytes,
                   gradient.id, slice.Encode(slice.result(), hop_wire)));
      graph->AddDep(prev_ready, enc_final);
      carry = enc_final;
    }
    for (int g = 1; g < n; ++g) {
      const int u = (final_node + g - 1) % n;
      const int v = (final_node + g) % n;
      const TaskId send = graph->Add(
          MakeTask(PrimitiveType::kSend, u, wire, gradient.id, v));
      graph->AddDep(carry, send);
      const TaskId recv =
          graph->Add(MakeTask(PrimitiveType::kRecv, v, wire, gradient.id));
      graph->AddDep(send, recv);
      if (gradient.compress) {
        // Receiver's decode overlaps the onward forward (the forward
        // depends on recv, not on the decode).
        const TaskId dec = graph->Add(
            MakeTask(PrimitiveType::kDecode, v, chunk_bytes, gradient.id,
                     slice.Decode(hop_wire)));
        graph->AddDep(recv, dec);
      }
      carry = recv;
    }
  }
}

void AppendTreeSyncTasks(const SyncConfig& config,
                         const GradientSync& gradient, TaskGraph* graph,
                         const SyncData* data) {
  const int n = config.num_nodes;
  CHECK_GT(n, 0);
  const int k = std::max(1, gradient.partitions);
  ReserveFor(CountTree(n, k, gradient.compress), graph);
  if (n == 1) {
    graph->Add(MakeTask(PrimitiveType::kBarrier, 0, gradient.bytes,
                        gradient.id, SyncOneNode(data, k)));
    return;
  }
  const uint64_t partition_bytes =
      std::max<uint64_t>(1, gradient.bytes / static_cast<uint64_t>(k));
  const uint64_t wire = WireBytes(partition_bytes, gradient);
  const int rounds = TreeRounds(n);

  for (int p = 0; p < k; ++p) {
    // Rotate the tree root per partition so no node hotspots.
    const int root = static_cast<int>((gradient.id + p) % n);
    auto node = [&](int logical) { return (logical + root) % n; };

    // ready[u]: task after which logical node u's partial aggregate is
    // current (kInvalidTask = the local gradient, available at launch).
    std::vector<TaskId> ready(n, kInvalidTask);

    // Bound to data: partial[u] holds logical node u's aggregate once it
    // has absorbed a child (the root's is the result range).
    const Slice slice(data, k, p);
    std::vector<std::span<float>> partial(slice.data != nullptr ? n : 0);

    // ---------------- reduce phase: log N rounds toward logical 0 -------
    for (int r = 0; r < rounds; ++r) {
      const int stride = 1 << r;
      for (int u = stride; u < n; u += 2 * stride) {
        const int v = u - stride;  // u sends its aggregate to v
        // u's aggregate, and v's own gradient on v's first absorb.
        std::span<const float> from;
        std::span<const float> seed;
        if (slice.data != nullptr) {
          from = ready[u] != kInvalidTask ? partial[u] : slice.input(node(u));
          if (ready[v] == kInvalidTask) {
            seed = slice.input(node(v));
            partial[v] = v == 0 ? slice.result()
                                : slice.data->workspace->Floats(slice.count);
          }
        }
        ByteBuffer* push = gradient.compress ? slice.NewWire() : nullptr;
        TaskId forward_root = ready[u];
        if (gradient.compress) {
          const TaskId enc = graph->Add(
              MakeTask(PrimitiveType::kEncode, node(u), partition_bytes,
                       gradient.id, slice.Encode(from, push)));
          if (ready[u] != kInvalidTask) {
            graph->AddDep(ready[u], enc);
          }
          forward_root = enc;
        }
        const TaskId send = graph->Add(MakeTask(
            PrimitiveType::kSend, node(u), wire, gradient.id, node(v)));
        if (forward_root != kInvalidTask) {
          graph->AddDep(forward_root, send);
        }
        const TaskId recv = graph->Add(
            MakeTask(PrimitiveType::kRecv, node(v), wire, gradient.id));
        graph->AddDep(send, recv);
        const TaskId absorb = graph->Add(MakeTask(
            gradient.compress ? PrimitiveType::kDecode : PrimitiveType::kMerge,
            node(v), partition_bytes, gradient.id,
            slice.Merge(partial.empty() ? std::span<float>() : partial[v],
                        seed, push, from)));
        graph->AddDep(recv, absorb);
        if (ready[v] != kInvalidTask) {
          // Merges into v's aggregate serialize with v's earlier rounds.
          graph->AddDep(ready[v], absorb);
        }
        ready[v] = absorb;
      }
    }

    // ---------------- broadcast phase: reverse rounds from logical 0 ----
    // carry[u]: the task holding the (encoded, when compressed) final
    // aggregate at logical node u, ready to forward.
    std::vector<TaskId> carry(n, kInvalidTask);
    ByteBuffer* pull = gradient.compress ? slice.NewWire() : nullptr;
    if (gradient.compress) {
      const TaskId enc_root = graph->Add(
          MakeTask(PrimitiveType::kEncode, node(0), partition_bytes,
                   gradient.id, slice.Encode(slice.result(), pull)));
      if (ready[0] != kInvalidTask) {
        graph->AddDep(ready[0], enc_root);
      }
      carry[0] = enc_root;
    } else {
      carry[0] = ready[0];
    }
    for (int r = rounds - 1; r >= 0; --r) {
      const int stride = 1 << r;
      for (int v = 0; v + stride < n; v += 2 * stride) {
        const int u = v + stride;
        const TaskId send = graph->Add(MakeTask(
            PrimitiveType::kSend, node(v), wire, gradient.id, node(u)));
        if (carry[v] != kInvalidTask) {
          graph->AddDep(carry[v], send);
        }
        const TaskId recv = graph->Add(
            MakeTask(PrimitiveType::kRecv, node(u), wire, gradient.id));
        graph->AddDep(send, recv);
        if (gradient.compress) {
          // Decode overlaps onward forwarding (only recv gates the carry).
          const TaskId dec = graph->Add(
              MakeTask(PrimitiveType::kDecode, node(u), partition_bytes,
                       gradient.id, slice.Decode(pull)));
          graph->AddDep(recv, dec);
        }
        carry[u] = recv;
      }
    }
  }
}

}  // namespace hipress
