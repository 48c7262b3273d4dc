#include "src/path/path_manager.h"

#include <algorithm>

#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace escort {

PathManager::PathManager(Kernel* kernel, ModuleGraph* graph) : kernel_(kernel), graph_(graph) {
  interrupt_thread_ = kernel_->CreateThread(kernel_->kernel_owner(), "interrupt");
}

PathManager::~PathManager() {
  // Tear down remaining paths without destructors (the kernel is going
  // away with us). Iterate a copy of live_list_ — creation order — rather
  // than paths_, whose Path* keys would impose allocator-dependent
  // teardown order (EA005: reclamation costs and trace events must not
  // depend on where the heap put each path).
  std::vector<Path*> remaining = live_list_;
  for (Path* path : remaining) {
    Kill(path);
  }
  ReapRetired();
}

Path* PathManager::Create(Module* start, const Attributes& attrs,
                          const std::string& account_label, size_t threads) {
  auto owned = std::make_unique<Path>(kernel_, this, account_label + "#" + std::to_string(created_));
  Path* path = owned.get();
  path->attrs = attrs;
  kernel_->RegisterOwner(path, account_label);

  // Establish the path incrementally: open the starting module, then the
  // module it names, and so on (paper §2.2).
  Module* prev = nullptr;
  Module* cur = start;
  while (cur != nullptr) {
    if (prev != nullptr && !graph_->Connected(prev, cur)) {
      // Configuration violation: the module graph does not allow this hop.
      kernel_->UnregisterOwner(path);
      return nullptr;
    }
    OpenResult r = cur->Open(path, attrs);
    if (!r.ok) {
      kernel_->UnregisterOwner(path);
      return nullptr;
    }
    path->AppendStage(cur, std::move(r.state), std::move(r.destructor));
    prev = cur;
    cur = r.next;
  }

  // The allowed-crossings map: entry points between every pair of domains
  // the path traverses are established at creation time (the kernel's
  // per-thread crossing stack unwinds returns, so a thread may legally move
  // between any two of its path's domains).
  {
    std::vector<PdId> pds;
    for (const auto& stage : path->stages()) {
      pds.push_back(stage->pd);
    }
    for (size_t i = 0; i < pds.size(); ++i) {
      for (size_t j = i + 1; j < pds.size(); ++j) {
        if (pds[i] != pds[j]) {
          path->AllowCrossing(pds[i], pds[j]);
        }
      }
    }
  }

  path->SpawnThreads(threads);
  // Creation work is charged to the new path itself (it is the beneficiary;
  // the paper's passive path carries only the SYN processing).
  kernel_->ConsumePrechargedTo(path, kernel_->costs().path_create_base +
                                         kernel_->costs().path_create_per_stage *
                                             path->stages().size());
  ++created_;
  live_list_.push_back(path);
  paths_[path] = std::move(owned);
  by_id_[path->id()] = path;
  if (Tracer* t = kernel_->tracer()) {
    t->BeginSpan(kernel_->now(), OwnerTrack(path->id(), path->name()),
                 "path:" + account_label, "path",
                 {{"owner", Tracer::Num(path->id())},
                  {"stages", Tracer::Num(path->stages().size())}});
  }
  return path;
}

void PathManager::Destroy(Path* path) {
  if (path == nullptr || path->destroyed()) {
    return;
  }
  // Invoke the destructor function of each module along the path, in the
  // same order in which the stages were initialized (paper §2.2). Each runs
  // in the module's protection domain; charge-backs for heap memory happen
  // here.
  for (auto& stage : path->stages_) {
    if (stage->destructor) {
      stage->destructor(path, stage.get());
    }
    if (ProtectionDomain* pd = kernel_->domain(stage->pd); pd != nullptr) {
      pd->HeapChargeBack(path);
    }
  }
  kernel_->ConsumePrechargedTo(path, kernel_->costs().path_destroy_base +
                                         kernel_->costs().path_destroy_per_stage *
                                             path->stages().size());
  ++destroyed_;
  if (Tracer* t = kernel_->tracer()) {
    t->Instant(kernel_->now(), OwnerTrack(path->id(), path->name()), "pathDestroy", "path");
    t->EndSpan(kernel_->now(), OwnerTrack(path->id(), path->name()));
  }
  ReclaimPath(path, /*killed=*/false);
}

Cycles PathManager::Kill(Path* path) {
  if (path == nullptr || path->destroyed()) {
    return 0;
  }
  // pathKill skips destructors; module state for this path is reclaimed
  // through the owner's tracking lists. Modules learn of the kill lazily
  // (their demux maps are purged when the dangling entry is touched — see
  // Module::Process guards), mirroring the real system where the kernel
  // frees everything unilaterally.
  for (auto& stage : path->stages_) {
    if (ProtectionDomain* pd = kernel_->domain(stage->pd); pd != nullptr) {
      pd->HeapChargeBack(path);
    }
  }
  ++killed_;
  if (Tracer* t = kernel_->tracer()) {
    t->Instant(kernel_->now(), OwnerTrack(path->id(), path->name()), "pathKill", "path",
               {{"cycles_charged", Tracer::Num(path->usage().cycles)}});
    t->EndSpan(kernel_->now(), OwnerTrack(path->id(), path->name()));
    // pathKill is a defensive action worth a post-mortem: dump the events
    // that led up to it.
    t->DumpFlight("pathKill " + path->name(), kernel_->now());
  }
  return ReclaimPath(path, /*killed=*/true);
}

Cycles PathManager::ReclaimPath(Path* path, bool killed) {
  if (teardown_hook_) {
    // The final ledger readout: usage() still carries everything the path
    // was charged. Observers must not create or destroy paths from here.
    teardown_hook_(path, killed);
  }
  // Kernel-side registrations (demux map entries) must be severed on every
  // reclamation — including pathKill, which skips module destructors.
  for (auto& cleanup : path->kernel_cleanups_) {
    cleanup();
  }
  path->kernel_cleanups_.clear();
  Cycles cost = kernel_->DestroyOwner(path, path->DistinctDomainCount());
  live_list_.erase(std::remove(live_list_.begin(), live_list_.end(), path), live_list_.end());
  by_id_.erase(path->id());
  auto it = paths_.find(path);
  if (it != paths_.end()) {
    retired_.push_back(std::move(it->second));
    paths_.erase(it);
  }
  return cost;
}

void PathManager::ReapRetired() { retired_.clear(); }

Path* PathManager::FindLive(uint64_t owner_id) {
  auto it = by_id_.find(owner_id);
  return it == by_id_.end() ? nullptr : it->second;
}

uint64_t PathManager::drop_count(const std::string& reason) const {
  auto it = drop_reasons_.find(reason);
  return it == drop_reasons_.end() ? 0 : it->second.count;
}

Path* PathManager::DemuxAndDeliver(Module* start, Message msg, const char** drop_reason) {
  const CostModel& cm = kernel_->costs();
  Cycles cost = cm.interrupt_overhead;
  Module* cur = start;
  const char* reason = "no-module";

  // ReapRetired here: demux time is a safe point (no path code on stack).
  ReapRetired();

  while (cur != nullptr) {
    cost += cm.demux_per_module;
    DemuxDecision d = cur->Demux(msg);
    switch (d.action) {
      case DemuxDecision::Action::kContinue:
        cur = d.next;
        continue;
      case DemuxDecision::Action::kDeliver: {
        Path* path = d.path;
        if (path == nullptr || path->destroyed()) {
          reason = "dead-path";
          cur = nullptr;
          break;
        }
        if (path->PendingItems() >= backlog_limit_) {
          ++backlog_drops_;
          reason = "backlog";
          cur = nullptr;
          break;
        }
        // Deliver at the first stage moving up-path; interrupt + demux
        // cycles are charged to the receiving path.
        path->DeliverAt(0, Direction::kUp, std::move(msg), cost, /*yields=*/true);
        if (drop_reason != nullptr) {
          *drop_reason = nullptr;
        }
        return path;
      }
      case DemuxDecision::Action::kDrop:
        reason = d.drop_reason;
        cur = nullptr;
        break;
    }
  }

  // Dropped: the cycles spent taking the interrupt and classifying the
  // message are consumed on the kernel's interrupt thread.
  ++demux_drops_;
  auto [it, first] = drop_reasons_.try_emplace(reason);
  if (first && kernel_->metrics() != nullptr) {
    it->second.metric = ESCORT_METRIC_COUNTER(kernel_->metrics(),
                                              std::string("path.demux_drops.") + reason,
                                              "frames dropped at demux, by reason");
  }
  ++it->second.count;
  MetricAdd(it->second.metric);
  if (drop_reason != nullptr) {
    *drop_reason = reason;
  }
  if (Tracer* t = kernel_->tracer()) {
    t->Instant(kernel_->now(), "demux", "demux-drop", "path",
               {{"reason", Tracer::Str(reason)}});
  }
  interrupt_thread_->Push(cost + cm.demux_drop, kKernelDomain, nullptr, /*yields=*/true);
  return nullptr;
}

}  // namespace escort
