// Micro-benchmarks (google-benchmark) over the kernel primitives, plus the
// ablations DESIGN.md calls out:
//
//  * accounting on/off cost per work item (the source of the ~8%),
//  * proportional-share dispatch with N backlogged owners (the stride
//    scheduler's pick among N ready threads),
//  * protection-domain crossing cost sensitivity — including the paper's
//    prediction that replacing the buggy OSF1 PAL code (full TLB
//    invalidate per crossing) would cut per-domain overhead by >2x,
//  * IOBuffer allocation: cache hit vs cold,
//  * demux cost per classified frame.
//
// These report *simulated* cycles consumed per operation via counters, and
// google-benchmark's wall-clock numbers measure the simulator itself.

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/workload/experiment.h"
#include "src/workload/wire.h"

namespace escort {
namespace {

// --- Simulator throughput: work-item dispatch -------------------------------

void BM_DispatchLoop(benchmark::State& state) {
  const bool accounting = state.range(0) != 0;
  EventQueue eq;
  KernelConfig kc;
  kc.accounting = accounting;
  kc.start_softclock = false;
  Kernel kernel(&eq, kc);
  Thread* t = kernel.CreateThread(kernel.kernel_owner(), "bench");

  uint64_t items = 0;
  for (auto _ : state) {
    t->Push(1000, kKernelDomain, nullptr, true);
    eq.RunToCompletion();
    ++items;
  }
  state.counters["sim_cycles_per_item"] =
      static_cast<double>(kernel.kernel_owner()->usage().cycles) / static_cast<double>(items);
}
BENCHMARK(BM_DispatchLoop)->Arg(0)->Arg(1)->ArgNames({"accounting"});

// --- Stride dispatch: N backlogged owners -------------------------------------
//
// N owners with mixed tickets, one thread each, every work item re-queueing
// its successor and yielding: N threads stay ready and each dispatch is a
// proportional-share pick among them. One iteration fires one item's
// completion, which enqueues its thread and dispatches the next.

void BM_StrideDispatch(benchmark::State& state) {
  const auto owners = static_cast<size_t>(state.range(0));
  EventQueue eq;
  KernelConfig kc;
  kc.scheduler = SchedulerKind::kProportionalShare;
  kc.start_softclock = false;
  Kernel kernel(&eq, kc);
  std::vector<std::unique_ptr<Owner>> pool;
  // Each loop re-pushes itself; the vector is sized up front so the
  // closures can hold stable pointers to their own slot.
  std::vector<std::function<void()>> loops(owners);
  for (size_t i = 0; i < owners; ++i) {
    pool.push_back(std::make_unique<Owner>(OwnerType::kKernel, kernel.NextOwnerId(), "bench"));
    pool.back()->sched().tickets = 100 * (1 + i % 4);
    kernel.RegisterOwner(pool.back().get(), "bench");
    Thread* t = kernel.CreateThread(pool.back().get(), "bench");
    std::function<void()>* loop = &loops[i];
    *loop = [t, loop] { t->Push(1000, kKernelDomain, *loop, /*yields=*/true); };
    t->Push(1000, kKernelDomain, *loop, /*yields=*/true);
  }
  const uint64_t before = kernel.dispatch_count();
  for (auto _ : state) {
    eq.Step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(kernel.dispatch_count() - before));
}
BENCHMARK(BM_StrideDispatch)->Arg(1)->Arg(16)->Arg(64)->Arg(256)->ArgNames({"owners"});

// --- IOBuffer allocation: cold vs cache hit -----------------------------------

void BM_IoBufferAlloc(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  EventQueue eq;
  KernelConfig kc;
  kc.start_softclock = false;
  Kernel kernel(&eq, kc);
  Owner* owner = kernel.kernel_owner();
  for (auto _ : state) {
    IoBuffer* buf = kernel.AllocIoBuffer(owner, 2048, kKernelDomain, {kKernelDomain});
    if (cached) {
      kernel.UnlockIoBuffer(buf, owner);  // recycle through the cache
    } else {
      benchmark::DoNotOptimize(buf);
    }
  }
  state.counters["cache_hit_rate"] =
      static_cast<double>(kernel.iobuffers().cache_hit_count()) /
      static_cast<double>(kernel.iobuffers().alloc_count());
}
BENCHMARK(BM_IoBufferAlloc)->Arg(0)->Arg(1)->ArgNames({"recycle"});

// --- Frame classification (demux) ------------------------------------------------

void BM_DemuxFrame(benchmark::State& state) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  WebServerOptions opts;
  EscortWebServer server(&eq, &link, opts);

  // A frame for an unknown connection: full demux chain, then drop.
  TcpHeader hdr;
  hdr.src_port = 9999;
  hdr.dst_port = 80;
  hdr.flags = kTcpAck;
  std::vector<uint8_t> frame =
      BuildTcpFrame(MacAddr::FromIndex(9), opts.mac, Ip4Addr::FromOctets(10, 0, 1, 9), opts.ip,
                    hdr, {});
  for (auto _ : state) {
    server.eth()->ReceiveFrame(frame);
    eq.RunUntil(eq.now() + CyclesFromMicros(50));
  }
  state.counters["demux_drops"] = static_cast<double>(server.paths().demux_drops());
}
BENCHMARK(BM_DemuxFrame);

// --- Ablation: PD crossing cost sensitivity ------------------------------------
//
// Sweeps pd_crossing from the calibrated (buggy-PAL) value down to the
// paper's predicted fixed-PAL regime, reporting the achieved 1-byte
// throughput of the full-separation configuration. The paper: fixing the
// PAL code should cut per-domain overhead by more than a factor of two.

void BM_PdCrossingAblation(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  double conns = 0;
  for (auto _ : state) {
    ExperimentSpec spec;
    spec.config = ServerConfig::kAccountingPd;
    spec.clients = 16;
    spec.doc = "/doc1b";
    spec.warmup_s = 0.2;
    spec.window_s = 0.5;
    spec.server_options.costs.pd_crossing =
        static_cast<Cycles>(CostModel::Calibrated().pd_crossing * scale);
    spec.server_options.costs.pd_tlb_refill_percent =
        static_cast<uint32_t>(CostModel::Calibrated().pd_tlb_refill_percent * scale);
    conns = RunExperiment(spec).conns_per_sec;
  }
  state.counters["conns_per_sec"] = conns;
}
BENCHMARK(BM_PdCrossingAblation)
    ->Arg(100)  // calibrated: the OSF1 PAL bug (full TLB invalidate)
    ->Arg(50)   // half-cost crossings
    ->Arg(25)   // the paper's predicted custom-PAL regime
    ->ArgNames({"crossing_pct"})
    ->Unit(benchmark::kMillisecond);

// --- Ablation: accounting overhead vs accounting_op cost ---------------------------

void BM_AccountingOpAblation(benchmark::State& state) {
  Cycles op_cost = static_cast<Cycles>(state.range(0));
  double overhead = 0;
  for (auto _ : state) {
    ExperimentSpec base;
    base.config = ServerConfig::kScout;
    base.clients = 16;
    base.warmup_s = 0.2;
    base.window_s = 0.5;
    double scout = RunExperiment(base).conns_per_sec;

    ExperimentSpec spec = base;
    spec.config = ServerConfig::kAccounting;
    spec.server_options.costs.accounting_op = op_cost;
    double acct = RunExperiment(spec).conns_per_sec;
    overhead = 100.0 * (1.0 - acct / scout);
  }
  state.counters["overhead_pct"] = overhead;
}
BENCHMARK(BM_AccountingOpAblation)
    ->Arg(0)
    ->Arg(140)
    ->Arg(280)  // calibrated (~8%)
    ->Arg(560)
    ->ArgNames({"op_cycles"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace escort

BENCHMARK_MAIN();
