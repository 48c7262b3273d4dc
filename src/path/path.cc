#include "src/path/path.h"

namespace escort {

Path::Path(Kernel* kernel, PathManager* manager, std::string name)
    : Owner(OwnerType::kPath, kernel->NextOwnerId(), std::move(name)),
      kernel_(kernel),
      manager_(manager) {}

Path::~Path() = default;

Stage* Path::AppendStage(Module* module, std::unique_ptr<StageState> state,
                         std::function<void(Path*, Stage*)> destructor) {
  auto stage = std::make_unique<Stage>();
  stage->module = module;
  stage->path = this;
  stage->index = static_cast<int>(stages_.size());
  stage->pd = module->pd();
  stage->state = std::move(state);
  stage->destructor = std::move(destructor);
  stages_.push_back(std::move(stage));
  return stages_.back().get();
}

Stage* Path::StageOf(const Module* module) {
  for (auto& stage : stages_) {
    if (stage->module == module) {
      return stage.get();
    }
  }
  return nullptr;
}

std::vector<PdId> Path::StageDomains() const {
  std::vector<PdId> pds;
  pds.reserve(stages_.size());
  for (const auto& stage : stages_) {
    pds.push_back(stage->pd);
  }
  return pds;
}

int Path::DistinctDomainCount() const {
  std::set<PdId> pds;
  for (const auto& stage : stages_) {
    pds.insert(stage->pd);
  }
  return static_cast<int>(pds.size());
}

void Path::AllowCrossing(PdId from, PdId to) {
  allowed_crossings_.emplace(from, to);
  allowed_crossings_.emplace(to, from);
}

bool Path::CrossingAllowed(PdId from, PdId to) const {
  if (from == to || from == kKernelDomain || to == kKernelDomain) {
    return true;
  }
  return allowed_crossings_.count({from, to}) != 0;
}

void Path::SpawnThreads(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    pool_.push_back(kernel_->CreateThread(this, name() + " worker" + std::to_string(i)));
  }
}

Thread* Path::GrabThread() {
  if (pool_.empty()) {
    SpawnThreads(1);
  }
  Thread* t = pool_[next_thread_ % pool_.size()];
  next_thread_ += 1;
  return t;
}

void Path::DeliverAt(size_t index, Direction dir, Message msg, Cycles extra_cost, bool yields) {
  Stage* stage = this->stage(index);
  if (stage == nullptr || destroyed()) {
    return;
  }
  Thread* t = GrabThread();
  Module* module = stage->module;
  t->Push(extra_cost, stage->pd,
          // NOLINT-EA001(queue is path-owned: pathKill drains the thread pool before reclaim, the closure cannot outlive this path)
          [stage, module, msg = std::move(msg), dir]() mutable {
            module->Process(*stage, std::move(msg), dir);
          },
          yields);
}

void Path::ForwardUp(const Stage& from, Message msg) {
  DeliverAt(static_cast<size_t>(from.index) + 1, Direction::kUp, std::move(msg));
}

void Path::ForwardDown(const Stage& from, Message msg) {
  if (from.index == 0) {
    return;
  }
  DeliverAt(static_cast<size_t>(from.index) - 1, Direction::kDown, std::move(msg));
}

size_t Path::PendingItems() const {
  size_t total = 0;
  for (const Thread* t : pool_) {
    total += t->QueueDepth();
  }
  return total;
}

}  // namespace escort
