#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace hipress {
namespace {

// Minimal copy of the pre-calendar engine: one global priority queue with
// the (when, seq) tie-break. The golden-ordering test drives identical
// churn through both engines and demands identical fire sequences.
class ReferenceHeap {
 public:
  SimTime now() const { return now_; }
  void Schedule(SimTime delay, std::function<void()> fn) {
    queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
  }
  void Run() {
    while (!queue_.empty()) {
      RunTop();
    }
  }
  // Simulator::RunUntil's contract: events at the deadline still run, and
  // the clock jumps to the deadline only once nothing remains queued.
  void RunUntil(SimTime deadline) {
    while (!queue_.empty() && queue_.top().when <= deadline) {
      RunTop();
    }
    if (now_ < deadline && queue_.empty()) {
      now_ = deadline;
    }
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  void RunTop() {
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.when;
    event.fn();
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

TEST(SimulatorTest, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.Run(), 0);
}

TEST(SimulatorTest, EventsRunAtScheduledTimes) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.Schedule(100, [&] { fired.push_back(sim.now()); });
  sim.Schedule(50, [&] { fired.push_back(sim.now()); });
  sim.Schedule(150, [&] { fired.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 50);
  EXPECT_EQ(fired[1], 100);
  EXPECT_EQ(fired[2], 150);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(42, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(10, chain);
  const SimTime end = sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(end, 50);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_fired = false;
  sim.Schedule(100, [] {});
  sim.Schedule(300, [&] { late_fired = true; });
  sim.RunUntil(200);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_FALSE(late_fired);
  sim.Run();
  EXPECT_TRUE(late_fired);
}

TEST(SimulatorTest, RunUntilAdvancesIdleClockToDeadline) {
  Simulator sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulatorTest, RunUntilRunsEventsExactlyAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.Schedule(200, [&] { fired.push_back(sim.now()); });
  sim.Schedule(100, [&] { fired.push_back(sim.now()); });
  sim.Schedule(201, [&] { fired.push_back(sim.now()); });
  sim.RunUntil(200);
  // The t=200 event is inside the window; t=201 stays queued and the clock
  // holds at the last executed event, not the deadline.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 200);
  EXPECT_EQ(sim.now(), 200);
  EXPECT_FALSE(sim.idle());
  sim.Run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[2], 201);
}

TEST(SimulatorTest, StepInterleavesWithScheduleAtNow) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] {
    order.push_back(0);
    // Same-time follow-up gets a later seq, so it runs after the already
    // queued t=10 peer — FIFO across a mid-step enqueue.
    sim.ScheduleAt(sim.now(), [&] { order.push_back(2); });
  });
  sim.Schedule(10, [&] { order.push_back(1); });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(sim.Step());
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, SameTimeFifoAcrossBucketBoundaries) {
  // Timestamps straddle fine-bucket edges, the initial frame boundary, and
  // horizons deep enough to cross the spillover/outer calendar; same-time
  // groups must still fire in scheduling order everywhere.
  Simulator sim;
  const std::vector<SimTime> horizons = {
      0,
      63,
      64,
      65535,
      65536,
      (SimTime{2048} << 16) - 1,  // last tick of the initial frame
      SimTime{2048} << 16,        // first spillover tick
      SimTime{1} << 30,
      SimTime{1} << 40,
  };
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<std::pair<SimTime, int>> fired;
  int id = 0;
  for (int round = 0; round < 3; ++round) {
    for (SimTime t : horizons) {
      scheduled.push_back({t, id});
      sim.ScheduleAt(t, [&fired, &sim, my = id] {
        fired.push_back({sim.now(), my});
      });
      ++id;
    }
  }
  sim.Run();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  EXPECT_EQ(fired, scheduled);
}

TEST(SimulatorTest, OversizedSameWindowChainStaysFifo) {
  // > kSplitThreshold events landing in one calendar window exercises the
  // ladder's narrow-then-heapify path (and the outer calendar on the way,
  // since they first gather in the far-future spillover).
  Simulator sim;
  std::vector<int> order;
  const SimTime when = SimTime{1} << 30;
  constexpr int kEvents = 3000;
  for (int i = 0; i < kEvents; ++i) {
    sim.ScheduleAt(when, [&order, i] { order.push_back(i); });
  }
  SimTime straggler = 0;
  sim.ScheduleAt(when + FromMillis(5), [&] { straggler = sim.now(); });
  sim.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(order[i], i) << "FIFO broke at position " << i;
  }
  EXPECT_EQ(straggler, when + FromMillis(5));
}

// One fired event: its time and its id (ids number events in scheduling
// order, so two engines agree on them exactly as long as they agree on the
// fire order).
using FireTrace = std::vector<std::pair<SimTime, uint64_t>>;

// Seeded churn over `horizon` through `sim` (Simulator or ReferenceHeap).
// Three kinds of event keep the calendar busy:
//   - self-rescheduling churn: mostly uniform delays up to the horizon,
//     frequent exact ties (delay 0) and delays snapped to a coarse grid;
//   - a cluster of 100K events at one instant halfway out, so one fine
//     bucket overflows the split threshold (NarrowFrame, which pushes the
//     later fine buckets into the cursor's outer bucket) and one outer
//     bucket holds more events than a frame spans, leaving entries behind
//     that are carved again from the same bucket;
//   - a tail after the cluster, so that bucket has entries past the frame.
// The driver advances with RunUntil in uneven steps, crossing frame and
// outer-bucket boundaries, and schedules a few events from outside at each
// stop before draining with Run().
template <typename Sim>
FireTrace Churn(Sim* sim, uint64_t seed, SimTime horizon) {
  FireTrace trace;
  uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL;
  auto draw = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 11;
  };
  uint64_t next_id = 0;
  int remaining = 20000;
  std::function<void(SimTime)> schedule = [&](SimTime delay) {
    sim->Schedule(delay, [&, id = next_id++] {
      trace.emplace_back(sim->now(), id);
      if (remaining == 0) {
        return;
      }
      --remaining;
      const uint64_t r = draw();
      SimTime next = static_cast<SimTime>(r % static_cast<uint64_t>(horizon));
      if (r % 7 == 0) {
        next = 0;
      } else if (r % 7 == 1) {
        next -= next % (horizon / 8);
      }
      schedule(next);
    });
  };
  for (int i = 0; i < 3000; ++i) {
    schedule(static_cast<SimTime>(draw() % static_cast<uint64_t>(horizon)));
  }
  const SimTime cluster = horizon / 2;
  for (int i = 0; i < 100'000; ++i) {
    schedule(cluster);
  }
  for (int i = 1; i <= 256; ++i) {
    schedule(cluster + i * (horizon / 4096));
  }
  for (int step = 1; step <= 12; ++step) {
    sim->RunUntil(horizon * step / 7 + step * 12'345);
    for (int i = 0; i < 16; ++i) {
      schedule(static_cast<SimTime>(draw() % 1'000'000));
    }
  }
  sim->Run();
  return trace;
}

TEST(SimulatorTest, MatchesReferenceHeapUnderDeepChurn) {
  // Bit-reproducibility is the contract: every event must fire at the same
  // time and in the same order as on the original global heap.
  for (const SimTime horizon :
       {FromMillis(1.0), FromSeconds(1.0), FromSeconds(60.0)}) {
    for (const uint64_t seed : {1, 2, 3}) {
      Simulator calendar;
      const FireTrace calendar_trace = Churn(&calendar, seed, horizon);
      ReferenceHeap heap;
      const FireTrace heap_trace = Churn(&heap, seed, horizon);
      ASSERT_EQ(calendar_trace.size(), heap_trace.size())
          << "horizon " << horizon << " seed " << seed;
      ASSERT_TRUE(calendar_trace == heap_trace)
          << "horizon " << horizon << " seed " << seed;
    }
  }
}

TEST(SimulatorTest, EventPoolStopsMissingInSteadyState) {
  Simulator sim;
  auto burst = [&] {
    for (int i = 0; i < 512; ++i) {
      sim.Schedule(i, [] {});
    }
    sim.Run();
  };
  for (int round = 0; round < 3; ++round) {
    burst();  // warm the record arena
  }
  const uint64_t misses = sim.sched_pool_misses();
  for (int round = 0; round < 5; ++round) {
    burst();
  }
  EXPECT_EQ(sim.sched_pool_misses(), misses);
  EXPECT_GT(sim.sched_pool_hits(), 0u);
  EXPECT_GE(sim.queue_peak_depth(), 512u);
}

TEST(SimulatorTest, PublishHooksRunWhenRunAndRunUntilReturn) {
  Simulator sim;
  std::vector<int> calls;
  Simulator::PublishHook first(&sim, [&] { calls.push_back(1); });
  {
    Simulator::PublishHook second(&sim, [&] { calls.push_back(2); });
    int fired = 0;
    sim.Schedule(10, [&] { ++fired; });
    sim.RunUntil(5);
    EXPECT_EQ(calls, (std::vector<int>{1, 2}));  // creation order
    EXPECT_TRUE(sim.Step());  // stepping alone publishes nothing
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(calls.size(), 2u);
  }
  sim.Run();  // the destroyed hook is gone
  EXPECT_EQ(calls, (std::vector<int>{1, 2, 1}));
}

TEST(SimulatorTest, PublishHookOutlivingItsSimulatorDetaches) {
  auto sim = std::make_unique<Simulator>();
  int calls = 0;
  Simulator::PublishHook hook(sim.get(), [&] { ++calls; });
  sim->Run();
  sim.reset();  // the hook's destructor must not touch the simulator
  EXPECT_EQ(calls, 1);
}

TEST(SimResourceTest, SerializesJobsBackToBack) {
  Simulator sim;
  SimResource resource(&sim, "link");
  std::vector<SimTime> done;
  resource.Submit(100, [&] { done.push_back(sim.now()); });
  resource.Submit(50, [&] { done.push_back(sim.now()); });
  resource.Submit(25, [&] { done.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], 100);
  EXPECT_EQ(done[1], 150);
  EXPECT_EQ(done[2], 175);
  EXPECT_EQ(resource.busy_time(), 175);
  EXPECT_EQ(resource.jobs_completed(), 3u);
}

TEST(SimResourceTest, IdleGapsDoNotAccumulateBusyTime) {
  Simulator sim;
  SimResource resource(&sim, "gpu");
  resource.Submit(10, [] {});
  sim.Run();
  sim.Schedule(100, [&] { resource.Submit(20, [] {}); });
  sim.Run();
  EXPECT_EQ(resource.busy_time(), 30);
  // Second job started at t=110 (after the idle gap), not t=10.
  EXPECT_EQ(resource.free_at(), 130);
}

TEST(SimResourceTest, SubmitFromWithinCompletionCallback) {
  Simulator sim;
  SimResource resource(&sim, "r");
  SimTime second_done = 0;
  resource.Submit(10, [&] {
    resource.Submit(5, [&] { second_done = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(second_done, 15);
}

}  // namespace
}  // namespace hipress
