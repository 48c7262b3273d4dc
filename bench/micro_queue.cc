// Micro-benchmarks (google-benchmark) over the event queue's hot paths:
//
//  * ping-pong: two streams exchanging sequenced transactions, each
//    delivery scheduled into the other stream (the shared-link pattern),
//  * fan-out: a hub posting one transaction per worker stream each round,
//  * timer storm: independent self-rescheduling timers on many streams,
//    through the timer wheel,
//  * steady depth: ScheduleAt + Step against a heap held at a constant
//    depth (the event heap's push and pop alone).
//
// Wall-clock events/sec here measure the simulator itself and are
// host-machine dependent.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace escort {
namespace {

constexpr Cycles kLatency = 100;

// One simulated ping-pong match: `hops` sequenced round trips between two
// streams, each delivery landing one latency later.
uint64_t RunPingPong(int hops) {
  EventQueue eq;
  EventQueue::StreamId a = eq.NewStream();
  EventQueue::StreamId b = eq.NewStream();
  int remaining = hops;
  std::function<void(EventQueue::StreamId, EventQueue::StreamId)> volley =
      [&](EventQueue::StreamId from, EventQueue::StreamId to) {
        if (remaining-- <= 0) {
          return;
        }
        eq.PostSequenced([&eq, &volley, from, to] {
          eq.ScheduleAtFrom(to, eq.now() + kLatency, [&volley, from, to] { volley(to, from); });
        });
      };
  {
    EventQueue::StreamScope scope(&eq, a);
    eq.ScheduleAt(1, [&] { volley(a, b); });
  }
  eq.RunToCompletion();
  return eq.fired_count();
}

// One fan-out round: the hub posts a delivery to every worker stream and
// re-arms itself until `rounds` is spent.
uint64_t RunFanOut(int workers, int rounds) {
  EventQueue eq;
  EventQueue::StreamId hub = eq.NewStream();
  std::vector<EventQueue::StreamId> crew;
  crew.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    crew.push_back(eq.NewStream());
  }
  int remaining = rounds;
  std::function<void()> broadcast = [&] {
    if (remaining-- <= 0) {
      return;
    }
    for (EventQueue::StreamId w : crew) {
      eq.PostSequenced([&eq, w] { eq.ScheduleAtFrom(w, eq.now() + kLatency, [] {}); });
    }
    eq.PostSequenced([&eq, &broadcast, hub] {
      eq.ScheduleAtFrom(hub, eq.now() + kLatency, [&broadcast] { broadcast(); });
    });
  };
  {
    EventQueue::StreamScope scope(&eq, hub);
    eq.ScheduleAt(1, [&] { broadcast(); });
  }
  eq.RunToCompletion();
  return eq.fired_count();
}

// Independent periodic timers, one per stream, through the timer wheel.
uint64_t RunTimerStorm(int timers, Cycles horizon) {
  EventQueue eq;
  std::vector<std::function<void()>> ticks(static_cast<size_t>(timers));
  for (int i = 0; i < timers; ++i) {
    EventQueue::StreamId s = eq.NewStream();
    // Coprime-ish periods so the timers stay out of phase.
    Cycles period = static_cast<Cycles>(37 + 13 * (i % 7));
    ticks[static_cast<size_t>(i)] = [&eq, i, period, &ticks, horizon] {
      Cycles next = eq.now() + period;
      if (next < horizon) {
        eq.ScheduleTimerAt(next, [&ticks, i] { ticks[static_cast<size_t>(i)](); });
      }
    };
    EventQueue::StreamScope scope(&eq, s);
    eq.ScheduleTimerAt(static_cast<Cycles>(1 + i), [&ticks, i] { ticks[static_cast<size_t>(i)](); });
  }
  eq.RunUntil(horizon);
  return eq.fired_count();
}

void BM_PingPong(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunPingPong(2000);
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_PingPong);

void BM_FanOut(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunFanOut(16, 200);
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_FanOut);

void BM_TimerStorm(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunTimerStorm(16, 200000);
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_TimerStorm);

// One ScheduleAt and one Step per iteration against `depth` pending events:
// the depth stays constant and every operation sifts a heap of that size.
void BM_SteadyDepth(benchmark::State& state) {
  const auto depth = static_cast<size_t>(state.range(0));
  constexpr Cycles kHorizon = Cycles{1} << 20;
  Rng rng(1);
  std::vector<Cycles> delays(4096);
  for (Cycles& d : delays) {
    d = 1 + rng.NextBelow(kHorizon);
  }
  EventQueue eq;
  for (size_t i = 0; i < depth; ++i) {
    eq.ScheduleAt(rng.NextBelow(kHorizon), [] {});
  }
  size_t next = 0;
  for (auto _ : state) {
    eq.ScheduleAt(eq.now() + delays[next], [] {});
    next = (next + 1) % delays.size();
    eq.Step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SteadyDepth)->Arg(64)->Arg(4096)->Arg(65536)->ArgNames({"depth"});

}  // namespace
}  // namespace escort

BENCHMARK_MAIN();
