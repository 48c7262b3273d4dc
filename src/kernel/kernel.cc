#include "src/kernel/kernel.h"

#include "src/sim/metrics.h"
#include "src/sim/trace.h"

#include <algorithm>
#include <cassert>

#include "src/kernel/audit.h"

namespace escort {

namespace {

constexpr uint64_t kThreadKmemBytes = 512;   // TCB
constexpr uint64_t kStackKmemBytes = 8192;   // one stack per entered domain
constexpr uint64_t kEventKmemBytes = 96;

}  // namespace

Cycles CycleLedger::Total() const {
  Cycles total = 0;
  for (const auto& [label, c] : totals_) {
    total += c;
  }
  return total;
}

Kernel::Kernel(EventQueue* eq, KernelConfig config) : eq_(eq), config_(config), pages_(config.total_pages) {
  switch (config_.scheduler) {
    case SchedulerKind::kPriority:
      scheduler_ = std::make_unique<PriorityScheduler>();
      break;
    case SchedulerKind::kProportionalShare:
      scheduler_ = std::make_unique<ProportionalShareScheduler>();
      break;
  }

  kernel_owner_ = std::make_unique<Owner>(OwnerType::kKernel, NextOwnerId(), "kernel");
  idle_owner_ = std::make_unique<Owner>(OwnerType::kIdle, NextOwnerId(), "idle");
  RegisterOwner(kernel_owner_.get(), "Kernel");
  RegisterOwner(idle_owner_.get(), "Idle");
  // The kernel must always win the CPU promptly: highest priority, a large
  // ticket allocation under proportional share.
  kernel_owner_->sched().priority = 1000;
  kernel_owner_->sched().tickets = 50'000;

  // The privileged domain: modules configured with PD 0 live here.
  domains_.push_back(
      std::make_unique<ProtectionDomain>(this, kKernelDomain, "privileged", NextOwnerId()));
  RegisterOwner(domains_[0].get(), "PD:privileged");

  start_time_ = eq_->now();
  idle_ = true;
  idle_since_ = eq_->now();

  if (config_.start_softclock) {
    softclock_thread_ = CreateThread(kernel_owner_.get(), "softclock");
    ScheduleSoftclock();
  }
}

Kernel::~Kernel() {
  if (softclock_event_id_valid_) {
    eq_->Cancel(softclock_event_id_);
  }
}

void Kernel::set_metrics(MetricsRegistry* m) {
  metrics_ = m;
  if (m == nullptr) {
    m_pages_in_use_ = nullptr;
    m_runaway_ = nullptr;
    return;
  }
  m_pages_in_use_ =
      ESCORT_METRIC_GAUGE(m, "kernel.pages_in_use", "physical pages allocated");
  MetricSet(m_pages_in_use_, static_cast<int64_t>(pages_.allocated_pages()));
  m_runaway_ = ESCORT_METRIC_COUNTER(m, "kernel.runaway_detections",
                                     "threads caught over the run budget");
}

// --- Owners / domains -----------------------------------------------------------

ProtectionDomain* Kernel::CreateDomain(const std::string& name) {
  PdId id = static_cast<PdId>(domains_.size());
  domains_.push_back(std::make_unique<ProtectionDomain>(this, id, name, NextOwnerId()));
  ProtectionDomain* pd = domains_.back().get();
  RegisterOwner(pd, "PD:" + name);
  return pd;
}

ProtectionDomain* Kernel::domain(PdId id) {
  if (id < 0 || static_cast<size_t>(id) >= domains_.size()) {
    return nullptr;
  }
  return domains_[static_cast<size_t>(id)].get();
}

void Kernel::RegisterOwner(Owner* owner, const std::string& account_label) {
  account_labels_[owner->id()] = AccountRecord{owner, account_label};
}

void Kernel::UnregisterOwner(Owner* owner) {
  auto it = account_labels_.find(owner->id());
  if (it == account_labels_.end()) {
    return;
  }
  retired_.Charge(it->second.label, owner->usage().cycles);
  account_labels_.erase(it);
}

const std::string& Kernel::AccountLabel(const Owner* owner) const {
  static const std::string kUnknown = "unknown";
  auto it = account_labels_.find(owner->id());
  return it == account_labels_.end() ? kUnknown : it->second.label;
}

// --- Cycle charging -----------------------------------------------------------------

void Kernel::ChargeCycles(Owner* owner, Cycles c) {
  if (owner == nullptr || owner->destroyed()) {
    owner = kernel_owner_.get();
  }
  owner->usage().cycles += c;
}

void Kernel::Consume(Cycles cost) {
  if (in_item_) {
    pending_consume_ += cost;
  }
}

void Kernel::ConsumeCharged(Cycles cost) {
  if (config_.accounting) {
    cost += config_.costs.accounting_op;
    accounting_overhead_cycles_ += config_.costs.accounting_op;
  }
  Consume(cost);
}

void Kernel::ConsumePrechargedTo(Owner* owner, Cycles cost) {
  if (!in_item_) {
    // Boot-time setup happens before the clock runs; charging without a
    // matching busy period would break conservation.
    return;
  }
  if (config_.accounting) {
    cost += config_.costs.accounting_op;
    accounting_overhead_cycles_ += config_.costs.accounting_op;
  }
  ChargeCycles(owner, cost);
  pending_precharged_ += cost;
}

// --- Threads + CPU ---------------------------------------------------------------------

Thread* Kernel::CreateThread(Owner* owner, const std::string& name) {
  ConsumeCharged(config_.costs.thread_create);
  auto thread = std::make_unique<Thread>(this, owner, name);
  Thread* raw = thread.get();
  threads_.push_back(std::move(thread));
  owner->usage().kmem_bytes += kThreadKmemBytes + kStackKmemBytes;
  return raw;
}

void Kernel::StopThread(Thread* t) {
  if (t == nullptr || t->state_ == ThreadState::kDead) {
    return;
  }
  if (t->state_ == ThreadState::kReady) {
    scheduler_->Remove(t);
  }
  t->state_ = ThreadState::kDead;
  t->queue_.clear();
  if (!t->owner()->destroyed()) {
    t->owner()->threads().erase(t->owner_link_);
    t->owner()->usage().threads -= 1;
    t->owner()->usage().kmem_bytes -= kThreadKmemBytes + kStackKmemBytes * t->stacks_.size();
    t->owner()->usage().stacks -= t->stacks_.size();
  }
  if (running_ == t) {
    // Preempt-then-destroy: the one legal preemption in Escort.
    running_ = nullptr;
  }
  // Move ownership to the graveyard so in-flight callbacks stay valid.
  auto it = std::find_if(threads_.begin(), threads_.end(),
                         [t](const std::unique_ptr<Thread>& p) { return p.get() == t; });
  if (it != threads_.end()) {
    graveyard_.push_back(std::move(*it));
    threads_.erase(it);
  }
}

void Kernel::OnThreadHasWork(Thread* t) {
  if (t->state_ == ThreadState::kDead) {
    return;
  }
  if (t->state_ == ThreadState::kBlocked && t->HasWork()) {
    t->state_ = ThreadState::kReady;
    scheduler_->Enqueue(t);
  }
  MaybeDispatch();
}

void Kernel::MaybeDispatch() {
  if (cpu_busy_) {
    return;
  }
  DispatchNext();
}

void Kernel::DispatchNext() {
  ReapGraveyard();
  Thread* t = running_;
  Cycles extra = 0;
  if (t == nullptr) {
    t = scheduler_->Dequeue();
    if (t == nullptr) {
      if (!idle_) {
        idle_ = true;
        idle_since_ = eq_->now();
      }
      return;
    }
    extra += config_.costs.thread_dispatch;
    ++dispatch_count_;
    t->state_ = ThreadState::kRunning;
    running_ = t;
  }
  if (idle_) {
    ChargeCycles(idle_owner_.get(), eq_->now() - idle_since_);
    idle_ = false;
  }
  assert(t->HasWork());
  current_item_ = std::move(t->queue_.front());
  t->queue_.pop_front();

  Cycles cost = current_item_.cost + extra;
  current_item_crossed_ = false;
  if (config_.protection_domains && current_item_.pd != t->current_pd_) {
    current_item_crossed_ = true;
    if (!t->owner()->CrossingAllowed(t->current_pd_, current_item_.pd)) {
      // Illegal crossing: the trap has no registered mapping. The item is
      // dropped; the fault handler (typically pathKill) deals with the
      // offender.
      ++crossing_violations_;
      current_item_.fn = nullptr;
      if (fault_handler_) {
        HandlerCycles spent = RunPolicyHandler(fault_handler_, t);
        if (running_ != t || t->state_ == ThreadState::kDead) {
          running_ = nullptr;
          // The dropped item still burned the trap cost; bill the kernel
          // and let the reclamation time pass before the next dispatch.
          StartKernelBilledSegment(spent.total() + config_.costs.pd_crossing,
                                   spent.consumed + config_.costs.pd_crossing);
          return;
        }
        // The thread survived the fault: the handler's time is folded into
        // this item's busy period, with the kernel billed for it at the
        // item's completion (charging now with no elapsed time would break
        // cycle conservation).
        deferred_duration_ += spent.total();
        deferred_kernel_charge_ += spent.consumed;
        cost += spent.total();
      }
    }
    cost += config_.costs.pd_crossing;
    ++pd_crossings_;
  }
  if (config_.accounting) {
    cost += config_.costs.accounting_op;
    accounting_overhead_cycles_ += config_.costs.accounting_op;
  }
  current_cost_ = cost;
  cpu_busy_ = true;
  busy_segment_start_ = eq_->now();
  busy_segment_upfront_ = deferred_duration_ - deferred_kernel_charge_;
  eq_->ScheduleAfter(cost, [this] { CompleteItem(); });
}

void Kernel::CompleteItem() {
  // Settle any fault-handler time deferred into this item: its duration is
  // part of current_cost_, but the kernel (not the item's owner) pays it.
  const Cycles owner_cost = current_cost_ - deferred_duration_;
  if (deferred_kernel_charge_ > 0) {
    ChargeCycles(kernel_owner_.get(), deferred_kernel_charge_);
  }
  deferred_duration_ = 0;
  deferred_kernel_charge_ = 0;

  Thread* t = running_;
  if (t == nullptr) {
    // The running thread was destroyed while this busy period was in
    // flight; the cycles go to the kernel (reclamation context).
    ChargeCycles(kernel_owner_.get(), owner_cost);
    cpu_busy_ = false;
    DispatchNext();
    return;
  }

  ChargeCycles(t->owner(), owner_cost);
  scheduler_->AccountRun(t, owner_cost);
  t->run_since_yield_ += owner_cost;

  if (current_item_.pd != t->current_pd_) {
    t->current_pd_ = current_item_.pd;
    if (t->stacks_.insert(current_item_.pd).second) {
      // Path threads keep one stack per domain they can execute in.
      t->owner()->usage().stacks += 1;
      t->owner()->usage().kmem_bytes += kStackKmemBytes;
    }
  }

  in_item_ = true;
  pending_consume_ = 0;
  if (current_item_.fn) {
    current_item_.fn();
  }
  in_item_ = false;

  if (pending_consume_ > 0 || pending_precharged_ > 0) {
    // Dynamic costs discovered inside the action (kernel calls, per-byte work)
    // extend the busy period before the next dispatch decision.
    Cycles pc = pending_consume_;
    pending_consume_ = 0;
    if (current_item_crossed_ && config_.protection_domains) {
      // TLB refill after the crossing's full invalidate slows the work
      // performed in the freshly entered domain.
      pc += pc * config_.costs.pd_tlb_refill_percent / 100;
    }
    Cycles pre = pending_precharged_;
    pending_precharged_ = 0;
    busy_segment_start_ = eq_->now();
    busy_segment_upfront_ = pre;
    eq_->ScheduleAfter(pc + pre, [this, pc] {
      Thread* rt = running_;
      Owner* charge_to = (rt != nullptr) ? rt->owner() : kernel_owner_.get();
      ChargeCycles(charge_to, pc);
      if (rt != nullptr) {
        scheduler_->AccountRun(rt, pc);
        rt->run_since_yield_ += pc;
      }
      FinishItem();
    });
    return;
  }
  FinishItem();
}

void Kernel::FinishItem() {
  Thread* t = running_;
  if (t == nullptr || t->state_ == ThreadState::kDead) {
    running_ = nullptr;
    cpu_busy_ = false;
    DispatchNext();
    return;
  }

  Owner* owner = t->owner();
  HandlerCycles survivor;
  bool over_budget = owner->max_thread_run() > 0 && t->run_since_yield_ > owner->max_thread_run();
  if (over_budget) {
    ++runaway_detections_;
    MetricAdd(m_runaway_);
    if (tracer_ != nullptr) {
      tracer_->Instant(eq_->now(), OwnerTrack(owner->id(), owner->name()),
                       "runaway-detection", "policy",
                       {{"run_since_yield", Tracer::Num(t->run_since_yield_)},
                        {"max_thread_run", Tracer::Num(owner->max_thread_run())}});
    }
  } else if (ledger_watch_ && ledger_watch_(owner, t)) {
    // The watch flagged the owner as a consumption outlier: route it
    // through the same preempt-then-destroy machinery as the run budget.
    over_budget = true;
  }
  if (over_budget) {
    if (runaway_handler_) {
      // The handler typically runs pathKill, whose reclamation cost is
      // precharged; collect it and let the corresponding CPU time pass.
      HandlerCycles spent = RunPolicyHandler(runaway_handler_, t);
      if (running_ == nullptr || t->state_ == ThreadState::kDead) {
        running_ = nullptr;
        if (spent.total() > 0) {
          StartKernelBilledSegment(spent.total(), spent.consumed);
          return;
        }
        cpu_busy_ = false;
        DispatchNext();
        return;
      }
      // The thread survived the runaway check: the handler's time passes as
      // a kernel-billed busy segment after the state transition below
      // (charging now with no elapsed time would break cycle conservation).
      survivor = spent;
    }
  }

  if (!t->HasWork()) {
    t->state_ = ThreadState::kBlocked;
    t->run_since_yield_ = 0;
    running_ = nullptr;
  } else if (current_item_.yields) {
    t->run_since_yield_ = 0;
    t->state_ = ThreadState::kReady;
    scheduler_->Enqueue(t);
    running_ = nullptr;
  }
  // Otherwise the thread keeps the CPU: Escort threads are non-preemptive.
  if (survivor.total() > 0) {
    StartKernelBilledSegment(survivor.total(), survivor.consumed);
    return;
  }
  cpu_busy_ = false;
  DispatchNext();
}

Kernel::HandlerCycles Kernel::RunPolicyHandler(const PolicyHandler& handler, Thread* t) {
  in_item_ = true;
  pending_consume_ = 0;
  pending_precharged_ = 0;
  handler(t->owner(), t);
  in_item_ = false;
  HandlerCycles spent{pending_consume_, pending_precharged_};
  pending_consume_ = 0;
  pending_precharged_ = 0;
  return spent;
}

void Kernel::StartKernelBilledSegment(Cycles duration, Cycles kernel_charge) {
  cpu_busy_ = true;
  busy_segment_start_ = eq_->now();
  busy_segment_upfront_ = duration - kernel_charge;  // precharged teardown
  eq_->ScheduleAfter(duration, [this, kernel_charge] {
    ChargeCycles(kernel_owner_.get(), kernel_charge);
    cpu_busy_ = false;
    DispatchNext();
  });
}

void Kernel::ReapGraveyard() { graveyard_.clear(); }

// --- Softclock + events ----------------------------------------------------------------

void Kernel::ScheduleSoftclock() {
  Cycles period = CyclesFromMillis(static_cast<double>(config_.costs.softclock_period_ms));
  softclock_event_id_ = eq_->ScheduleAfter(period, [this] {
    if (softclock_thread_ != nullptr && softclock_thread_->QueueDepth() < 4) {
      softclock_thread_->Push(config_.costs.softclock_tick, kKernelDomain,
                              [this] { SoftclockTick(); }, /*yields=*/true);
    }
    ScheduleSoftclock();
  });
  softclock_event_id_valid_ = true;
}

void Kernel::SoftclockTick() {
  Cycles now = eq_->now();
  // Index loop: handlers may register new events. A delayed softclock
  // fires every missed period (bounded burst) — rate-based users such as
  // the QoS stream generator rely on the cadence being preserved.
  for (size_t i = 0; i < events_.size(); ++i) {
    KernelEvent* ev = events_[i].get();
    int burst = 0;
    while (!ev->cancelled_ && ev->deadline_ <= now && burst < 16) {
      FireEvent(ev);
      ++burst;
      if (!ev->periodic_) {
        break;
      }
    }
  }
  // Compact out cancelled events occasionally.
  if (events_.size() > 64) {
    std::erase_if(events_, [](const std::unique_ptr<KernelEvent>& e) { return e->cancelled_; });
  }
}

void Kernel::FireEvent(KernelEvent* ev) {
  ev->fire_count_ += 1;
  if (ev->periodic_) {
    ev->deadline_ += ev->period_;
  } else {
    ev->cancelled_ = true;
    if (!ev->owner_->destroyed()) {
      ev->owner_->events().erase(ev->owner_link_);
      ev->owner_->usage().events -= 1;
      ev->owner_->usage().kmem_bytes -= kEventKmemBytes;
    }
  }
  Thread* dispatcher = EventThreadFor(ev->owner_);
  if (dispatcher == nullptr) {
    return;
  }
  KernelEvent::Handler handler = ev->handler_;  // copy: one-shot events die
  dispatcher->Push(ev->dispatch_cost_, ev->pd_, [handler] { handler(); }, /*yields=*/true);
}

Thread* Kernel::EventThreadFor(Owner* owner) {
  if (owner->destroyed()) {
    return nullptr;
  }
  auto it = event_threads_.find(owner);
  if (it != event_threads_.end()) {
    return it->second;
  }
  Thread* t = CreateThread(owner, AccountLabel(owner) + " event thread");
  event_threads_[owner] = t;
  return t;
}

KernelEvent* Kernel::RegisterEvent(Owner* owner, const std::string& name, Cycles delay,
                                   Cycles period, Cycles dispatch_cost, PdId pd,
                                   KernelEvent::Handler handler) {
  ConsumeCharged(config_.costs.event_register);
  auto ev = std::unique_ptr<KernelEvent>(new KernelEvent(
      this, owner, name, eq_->now() + delay, period, dispatch_cost, pd, std::move(handler)));
  KernelEvent* raw = ev.get();
  owner->events().push_front(raw);
  raw->owner_link_ = owner->events().begin();
  owner->usage().events += 1;
  owner->usage().kmem_bytes += kEventKmemBytes;
  events_.push_back(std::move(ev));
  return raw;
}

void Kernel::CancelEvent(KernelEvent* ev) {
  if (ev == nullptr || ev->cancelled_) {
    return;
  }
  ev->cancelled_ = true;
  if (!ev->owner_->destroyed()) {
    ev->owner_->events().erase(ev->owner_link_);
    ev->owner_->usage().events -= 1;
    ev->owner_->usage().kmem_bytes -= kEventKmemBytes;
  }
}

// --- Memory -----------------------------------------------------------------------------------

Page* Kernel::AllocPage(Owner* owner) {
  ConsumeCharged(config_.costs.alloc_page);
  Page* page = pages_.Alloc(owner);
  MetricSet(m_pages_in_use_, static_cast<int64_t>(pages_.allocated_pages()));
  return page;
}

void Kernel::FreePage(Page* page) {
  ConsumeCharged(config_.costs.free_page);
  pages_.Free(page);
  MetricSet(m_pages_in_use_, static_cast<int64_t>(pages_.allocated_pages()));
}

bool Kernel::ChargeKmem(Owner* owner, uint64_t bytes) {
  ConsumeCharged(config_.costs.alloc_kmem);
  owner->usage().kmem_bytes += bytes;
  return true;
}

void Kernel::UnchargeKmem(Owner* owner, uint64_t bytes) {
  ConsumeCharged(config_.costs.free_kmem);
  if (owner->usage().kmem_bytes >= bytes) {
    owner->usage().kmem_bytes -= bytes;
  } else {
    owner->usage().kmem_bytes = 0;
  }
}

// --- IOBuffers -----------------------------------------------------------------------------------

IoBuffer* Kernel::AllocIoBuffer(Owner* owner, uint64_t size, PdId current_pd,
                                const std::vector<PdId>& read_domains) {
  bool cache_hit = false;
  IoBuffer* buf = iob_.Alloc(owner, size, current_pd, read_domains, &cache_hit);
  ConsumeCharged(cache_hit ? config_.costs.iobuffer_alloc_cached : config_.costs.iobuffer_alloc);
  return buf;
}

void Kernel::UnlockIoBuffer(IoBuffer* buf, Owner* locker) {
  ConsumeCharged(config_.costs.iobuffer_unlock);
  iob_.Unlock(buf, locker);
}

void Kernel::AssociateIoBuffer(IoBuffer* buf, Owner* second, const std::vector<PdId>& read_domains) {
  ConsumeCharged(config_.costs.iobuffer_associate);
  iob_.Associate(buf, second, read_domains);
}

// --- Owner destruction ------------------------------------------------------------------------------

Cycles Kernel::DestroyOwner(Owner* owner, int pd_count) {
  if (owner == nullptr || owner->destroyed()) {
    return 0;
  }
  const CostModel& cm = config_.costs;
  Cycles cost = cm.pathkill_base;
  uint64_t reclaimed_objects = 0;

  // 1. Threads: preempt-then-destroy.
  while (!owner->threads().empty()) {
    Thread* t = owner->threads().front();
    cost += cm.reclaim_per_thread;
    ++reclaimed_objects;
    StopThread(t);
  }

  // 2. Timer events.
  while (!owner->events().empty()) {
    KernelEvent* ev = owner->events().front();
    owner->events().pop_front();
    owner->usage().events -= 1;
    owner->usage().kmem_bytes -= kEventKmemBytes;
    ev->cancelled_ = true;
    cost += cm.reclaim_per_event;
    ++reclaimed_objects;
  }
  event_threads_.erase(owner);

  // 3. IOBuffer locks.
  uint64_t released = iob_.ReleaseAllFor(owner);
  cost += released * cm.reclaim_per_iobuffer;
  reclaimed_objects += released;

  // 4. Pages.
  while (!owner->pages().empty()) {
    Page* page = owner->pages().front();
    pages_.Free(page);
    cost += cm.reclaim_per_page;
    ++reclaimed_objects;
  }

  // 5. Per-domain teardown: stacks, mappings and IPC channels in every
  // protection domain the owner's path crosses.
  if (config_.protection_domains && pd_count > 0) {
    cost += static_cast<Cycles>(pd_count) * cm.pathkill_per_pd;
  }
  if (config_.accounting) {
    Cycles overhead = reclaimed_objects * cm.accounting_op;
    cost += overhead;
    accounting_overhead_cycles_ += overhead;
  }

  // The reclamation cycles are charged to the owner being torn down (its
  // ledger retires with them below); the CPU time passes on the kernel's
  // watch — removal consumes none of the offender's *remaining* resources.
  ConsumePrechargedTo(owner, cost);
  if (auditor_ != nullptr) {
    size_t violations_before = auditor_->violations().size();
    auditor_->CheckOwnerDrained(*owner);
    if (tracer_ != nullptr && auditor_->violations().size() > violations_before) {
      tracer_->DumpFlight("audit:owner-drain " + owner->name(), eq_->now());
    }
  }
  owner->mark_destroyed();
  UnregisterOwner(owner);
  return cost;
}

// --- Reports -----------------------------------------------------------------------------------------

void Kernel::SettleIdle() {
  if (idle_) {
    ChargeCycles(idle_owner_.get(), eq_->now() - idle_since_);
    idle_since_ = eq_->now();
  }
}

CycleLedger Kernel::Snapshot() {
  SettleIdle();
  CycleLedger ledger = retired_;
  for (const auto& [id, rec] : account_labels_) {
    ledger.Charge(rec.label, rec.owner->usage().cycles);
  }
  return ledger;
}

Cycles Kernel::TotalCharged() { return Snapshot().Total(); }

void Kernel::ResetAccounting() {
  SettleIdle();
  for (auto& [id, rec] : account_labels_) {
    rec.owner->usage().cycles = 0;
  }
  retired_.Reset();
  start_time_ = eq_->now();
  accounting_overhead_cycles_ = 0;
  pd_crossings_ = 0;
  dispatch_count_ = 0;
  unsettled_at_reset_ = UnsettledBusyCycles();
}

int64_t Kernel::UnsettledBusyCycles() const {
  if (!cpu_busy_) {
    return 0;
  }
  return static_cast<int64_t>(eq_->now() - busy_segment_start_) -
         static_cast<int64_t>(busy_segment_upfront_);
}

uint64_t Kernel::live_event_count() const {
  uint64_t live = 0;
  for (const auto& ev : events_) {
    if (!ev->cancelled_) {
      ++live;
    }
  }
  return live;
}

}  // namespace escort
