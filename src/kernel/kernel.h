// The Escort kernel: the privileged protection domain.
//
// Owns the simulated server CPU and the kernel objects §3 of the paper
// describes: owners and their accounting ledgers, threads and the configured
// scheduler, timer events + softclock, page/kmem allocation, IOBuffers,
// runaway-thread detection, and the owner-destruction machinery behind
// pathDestroy/pathKill. Modules call its methods directly.
//
// Execution model (see src/kernel/thread.h): threads carry work items;
// the kernel dispatches the next runnable thread non-preemptively, advances
// simulated time by the item's cost, and charges the cycles to the thread's
// owner. Idle time is charged to the Idle pseudo-owner, so the Table 1
// invariant — total accounted cycles == total elapsed cycles — holds by
// construction and is verified by tests.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/iobuffer.h"
#include "src/kernel/kernel_event.h"
#include "src/kernel/owner.h"
#include "src/kernel/page_allocator.h"
#include "src/kernel/protection_domain.h"
#include "src/kernel/scheduler.h"
#include "src/kernel/thread.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"

namespace escort {

class Auditor;
class MetricCounter;
class MetricGauge;
class MetricsRegistry;
class Tracer;

enum class SchedulerKind { kPriority, kProportionalShare };

struct KernelConfig {
  // Fine-grain resource accounting (the Accounting configurations). Usage is
  // always *tracked* (the experiments need the numbers); enabling this adds
  // the bookkeeping overhead cycles to every charge, reproducing the ~8%.
  bool accounting = false;
  // Hardware-enforced protection domains (the Accounting_PD configuration):
  // charges the crossing cost on every domain boundary and enforces IOBuffer
  // mappings.
  bool protection_domains = false;
  SchedulerKind scheduler = SchedulerKind::kPriority;
  uint64_t total_pages = 64 * 1024;  // 512 MB of 8 KB pages
  CostModel costs = CostModel::Calibrated();
  // Start the 1 ms softclock (disable for micro-tests that want silence).
  bool start_softclock = true;
};

// Aggregated per-label cycle accounting for reports like Table 1. Owners
// carry a free-form account label ("idle", "active-path", ...); cycles of
// destroyed owners accumulate under their label.
class CycleLedger {
 public:
  void Charge(const std::string& label, Cycles c) { totals_[label] += c; }
  Cycles Get(const std::string& label) const {
    auto it = totals_.find(label);
    return it == totals_.end() ? 0 : it->second;
  }
  Cycles Total() const;
  const std::map<std::string, Cycles>& totals() const { return totals_; }
  void Reset() { totals_.clear(); }

 private:
  std::map<std::string, Cycles> totals_;
};

class Kernel {
 public:
  Kernel(EventQueue* eq, KernelConfig config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  EventQueue* event_queue() { return eq_; }
  const KernelConfig& config() const { return config_; }
  const CostModel& costs() const { return config_.costs; }
  Cycles now() const { return eq_->now(); }

  // --- Owners and domains ---------------------------------------------------
  Owner* kernel_owner() { return kernel_owner_.get(); }

  ProtectionDomain* CreateDomain(const std::string& name);
  ProtectionDomain* domain(PdId id);
  const std::vector<std::unique_ptr<ProtectionDomain>>& domains() const { return domains_; }

  // Owner-id allocation and registration for path owners (created by the
  // path layer, which lives above the kernel).
  uint64_t NextOwnerId() { return next_owner_id_++; }
  void RegisterOwner(Owner* owner, const std::string& account_label);
  void UnregisterOwner(Owner* owner);
  const std::string& AccountLabel(const Owner* owner) const;

  // Registered owners, keyed by owner id: iteration follows creation
  // order, never heap layout, so every consumer (snapshots, audits,
  // ledger sampling) is deterministic across runs
  // (EA005 — pointer-keyed iteration is the bug class this replaces).
  struct AccountRecord {
    Owner* owner = nullptr;
    std::string label;
  };
  const std::map<uint64_t, AccountRecord>& account_labels() const { return account_labels_; }

  // --- Threads + CPU ---------------------------------------------------------
  Thread* CreateThread(Owner* owner, const std::string& name);
  // Called by Thread::Push; makes the thread runnable and kicks the CPU.
  void OnThreadHasWork(Thread* t);
  void StopThread(Thread* t);

  // Dynamic cost consumption: module/kernel code invoked from inside a work
  // item calls this to extend the current busy period (e.g. per-byte costs
  // discovered at run time, kernel-call overheads). Outside a work item
  // (boot-time setup) the cost is dropped: no busy period matches it, and
  // charging it would break cycle conservation.
  void Consume(Cycles cost);
  // Consume + the accounting surcharge if accounting is enabled.
  void ConsumeCharged(Cycles cost);
  // Charges `cost` cycles to `owner` immediately and extends the current
  // busy period by the same amount without charging the running thread.
  // Used for work performed *on behalf of* another owner (pathDestroy
  // teardown is charged to the dying path, not to whichever thread noticed
  // the connection finished).
  void ConsumePrechargedTo(Owner* owner, Cycles cost);

  Thread* current_thread() { return running_; }

  // --- Timer events + softclock ---------------------------------------------
  // The handler fires from the softclock, long after registration: the
  // EA001 deferred-capture contract applies to it (no raw kernel-object
  // pointers; capture a value key and revalidate at fire time).
  // ESCORT_DEFERRED_API
  KernelEvent* RegisterEvent(Owner* owner, const std::string& name, Cycles delay, Cycles period,
                             Cycles dispatch_cost, PdId pd, KernelEvent::Handler handler);
  void CancelEvent(KernelEvent* ev);

  // --- Memory --------------------------------------------------------------------
  PageAllocator& pages() { return pages_; }
  Page* AllocPage(Owner* owner);
  void FreePage(Page* page);
  bool ChargeKmem(Owner* owner, uint64_t bytes);
  void UnchargeKmem(Owner* owner, uint64_t bytes);

  // --- IOBuffers -------------------------------------------------------------------
  IoBufferManager& iobuffers() { return iob_; }
  IoBuffer* AllocIoBuffer(Owner* owner, uint64_t size, PdId current_pd,
                          const std::vector<PdId>& read_domains);
  void UnlockIoBuffer(IoBuffer* buf, Owner* locker);
  void AssociateIoBuffer(IoBuffer* buf, Owner* second, const std::vector<PdId>& read_domains);

  // --- Owner destruction (pathDestroy/pathKill backend) -------------------------
  // Reclaims every kernel object on the owner's tracking lists. `pd_count`
  // is the number of protection domains the owner's paths cross (per-domain
  // teardown cost applies when protection domains are enabled). Returns the
  // number of cycles the reclamation consumed; the cycles are charged to the
  // kernel owner (reclamation must not need resources of the dying owner —
  // the containment requirement).
  Cycles DestroyOwner(Owner* owner, int pd_count);

  // Policy handlers get the offending owner and thread. They run between
  // work items; the cycles they consume are billed to the kernel owner.
  using PolicyHandler = std::function<void(Owner*, Thread*)>;

  // Handler invoked when a thread exceeds its owner's max-run-without-yield
  // budget. Installed by the policy layer; default kills nothing.
  void set_runaway_handler(PolicyHandler h) { runaway_handler_ = std::move(h); }
  uint64_t runaway_detections() const { return runaway_detections_; }

  // Ledger watch: consulted at the same kernel entry as the run budget
  // (after every work item — the one point where a non-preemptive,
  // non-yielding thread is back in kernel hands). Return true to have the
  // owner killed through the runaway machinery. The watch must do its own
  // bookkeeping (detection log, blacklist) before returning; it runs
  // outside the reclamation-cost collection window, so it must not Consume.
  using LedgerWatch = std::function<bool(Owner*, Thread*)>;
  void set_ledger_watch(LedgerWatch w) { ledger_watch_ = std::move(w); }

  // --- Accounting reports ---------------------------------------------------------
  // Charges any in-progress idle period up to `now` so reports balance.
  void SettleIdle();
  // Per-label cycle totals (live owners + retired owners).
  CycleLedger Snapshot();
  // Cycles of the owners unregistered since the last ResetAccounting, by
  // label: Snapshot() adds the live owners' cycles to these.
  const CycleLedger& retired() const { return retired_; }
  // Total cycles charged to anyone since construction.
  Cycles TotalCharged();
  Cycles start_time() const { return start_time_; }
  // Resets all cycle counters (start of a measurement window).
  void ResetAccounting();

  // --- Audit hooks -----------------------------------------------------------------
  // When set, the auditor drain-checks every owner at destruction time
  // (see src/kernel/audit.h). Owned by the caller (typically an AuditScope).
  void set_auditor(Auditor* a) { auditor_ = a; }
  Auditor* auditor() { return auditor_; }

  // --- Trace hooks -----------------------------------------------------------------
  // When set, the kernel and everything above it (path manager, TCP,
  // policies) emit deterministic timeline events (see src/sim/trace.h).
  // Owned by the caller; null (the default) means tracing is off and
  // every instrumentation site reduces to this one pointer test.
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }

  // --- Metrics hooks ---------------------------------------------------------------
  // When set, the kernel and everything above it publish counters/gauges
  // into the registry (see src/sim/metrics.h). Same contract as the
  // tracer: caller-owned, null (the default) means metrics are off and
  // every instrumentation site reduces to one pointer test.
  void set_metrics(MetricsRegistry* m);
  MetricsRegistry* metrics() const { return metrics_; }

  // Cycles of the in-flight busy segment that have been consumed but not
  // yet charged to any owner. Negative when the segment was partially
  // precharged (teardown costs are billed up front). Zero when the CPU is
  // idle, so `Snapshot().Total() + UnsettledBusyCycles() - unsettled_at_reset()
  // == now() - start_time()` holds exactly at every instant — the Table 1
  // conservation invariant the auditor asserts.
  int64_t UnsettledBusyCycles() const;
  // UnsettledBusyCycles() captured at the last ResetAccounting (a window
  // opened mid-segment starts with this much pre-window debt).
  int64_t unsettled_at_reset() const { return unsettled_at_reset_; }

  // Kernel-wide live-object counts, cross-checked by the auditor against
  // the summed per-owner counters.
  uint64_t live_thread_count() const { return threads_.size(); }
  uint64_t live_event_count() const;

  uint64_t dispatch_count() const { return dispatch_count_; }
  uint64_t pd_crossings() const { return pd_crossings_; }
  // Crossings rejected by the owner's allowed-crossings map. The offending
  // item is dropped (trap with no handler); the fault handler, if any, is
  // invoked with the offender.
  uint64_t crossing_violations() const { return crossing_violations_; }
  void set_fault_handler(PolicyHandler h) { fault_handler_ = std::move(h); }
  Cycles accounting_overhead_cycles() const { return accounting_overhead_cycles_; }

 private:
  friend class Thread;

  void ChargeCycles(Owner* owner, Cycles c);
  // Starts the CPU if it is idle and something is runnable.
  void MaybeDispatch();
  // Picks the next thread and begins its front work item.
  void DispatchNext();
  // Runs the action of the item whose busy period just ended.
  void CompleteItem();
  void FinishItem();
  // Cycles a policy handler spent: `consumed` is owed by the kernel once
  // the matching time has passed; `precharged` (teardown) is already
  // billed and only needs the time to pass.
  struct HandlerCycles {
    Cycles consumed = 0;
    Cycles precharged = 0;
    Cycles total() const { return consumed + precharged; }
  };
  // Runs `handler` for `t` inside the item window (so its Consume calls
  // accumulate) and returns what it spent.
  HandlerCycles RunPolicyHandler(const PolicyHandler& handler, Thread* t);
  // Keeps the CPU busy for `duration` cycles, then charges the kernel owner
  // `kernel_charge` of them (the rest was precharged) and dispatches.
  void StartKernelBilledSegment(Cycles duration, Cycles kernel_charge);
  void ScheduleSoftclock();
  void SoftclockTick();
  void FireEvent(KernelEvent* ev);
  Thread* EventThreadFor(Owner* owner);
  void ReapGraveyard();

  EventQueue* const eq_;
  KernelConfig config_;
  PageAllocator pages_;
  IoBufferManager iob_;
  std::unique_ptr<Scheduler> scheduler_;

  std::unique_ptr<Owner> kernel_owner_;
  std::unique_ptr<Owner> idle_owner_;
  std::vector<std::unique_ptr<ProtectionDomain>> domains_;
  uint64_t next_owner_id_ = 1;
  std::map<uint64_t, AccountRecord> account_labels_;
  CycleLedger retired_;

  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<std::unique_ptr<Thread>> graveyard_;
  std::vector<std::unique_ptr<KernelEvent>> events_;
  uint64_t next_tid_ = 1;

  // CPU state.
  Thread* running_ = nullptr;
  bool cpu_busy_ = false;
  bool idle_ = true;
  Cycles idle_since_ = 0;
  WorkItem current_item_;
  Cycles current_cost_ = 0;
  bool current_item_crossed_ = false;
  Cycles pending_consume_ = 0;
  Cycles pending_precharged_ = 0;  // already charged; only time must pass
  bool in_item_ = false;
  // Conservation bookkeeping for the in-flight busy segment: when it began
  // and how much of it was already charged when it was scheduled.
  Cycles busy_segment_start_ = 0;
  Cycles busy_segment_upfront_ = 0;
  // Fault-handler time for a surviving thread, folded into its next item:
  // the duration still has to pass, and the kernel (not the item's owner)
  // is charged for it when the item completes.
  Cycles deferred_duration_ = 0;
  Cycles deferred_kernel_charge_ = 0;
  int64_t unsettled_at_reset_ = 0;

  // Softclock.
  Thread* softclock_thread_ = nullptr;
  EventQueue::EventId softclock_event_id_ = 0;
  bool softclock_event_id_valid_ = false;
  std::map<Owner*, Thread*> event_threads_;

  PolicyHandler runaway_handler_;
  LedgerWatch ledger_watch_;
  uint64_t runaway_detections_ = 0;
  PolicyHandler fault_handler_;
  uint64_t crossing_violations_ = 0;
  Auditor* auditor_ = nullptr;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  MetricGauge* m_pages_in_use_ = nullptr;
  MetricCounter* m_runaway_ = nullptr;

  Cycles start_time_ = 0;
  uint64_t dispatch_count_ = 0;
  uint64_t pd_crossings_ = 0;
  Cycles accounting_overhead_cycles_ = 0;
};

}  // namespace escort

#endif  // SRC_KERNEL_KERNEL_H_
