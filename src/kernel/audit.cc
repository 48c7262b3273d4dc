#include "src/kernel/audit.h"

#include <cinttypes>
#include <cstdlib>
#include <sstream>

#include "src/kernel/kernel.h"
#include "src/kernel/owner.h"
#include "src/sim/trace.h"

namespace escort {

void Auditor::AddViolation(std::string check, std::string subject, std::string detail) {
  violations_.push_back({std::move(check), std::move(subject), std::move(detail)});
}

void Auditor::CheckOwnerDrained(const Owner& owner) {
  const std::string subject = std::string(OwnerTypeName(owner.type())) + ":" + owner.name();
  auto drained = [&](const char* what, uint64_t residue) {
    if (residue != 0) {
      AddViolation(std::string("owner-drain/") + what, subject,
                   what + std::string(" counter left at ") + std::to_string(residue) +
                       " after destruction (leaked charge or missing release)");
    }
  };
  const ResourceUsage& u = owner.usage();
  drained("kmem_bytes", u.kmem_bytes);
  drained("pages", u.pages);
  drained("stacks", u.stacks);
  drained("events", u.events);
  drained("threads", u.threads);
  drained("iobuffer_locks", u.iobuffer_locks);

  auto empty = [&](const char* what, size_t residue) {
    if (residue != 0) {
      AddViolation(std::string("owner-drain/") + what + "-list", subject,
                   std::to_string(residue) + " object(s) left on the " + what +
                       " tracking list after destruction");
    }
  };
  empty("threads", owner.threads().size());
  empty("iobuffer_locks", owner.iobuffer_locks().size());
  empty("events", owner.events().size());
  empty("pages", owner.pages().size());
}

void Auditor::CheckConservation(Kernel& kernel) {
  const size_t violations_before = violations_.size();
  // Rule 2: Table 1 as a hard assertion. Summed per-owner cycles (live
  // owners + the retired ledger) must equal elapsed simulation time once
  // the in-flight busy segment is accounted for.
  CycleLedger ledger = kernel.Snapshot();
  const int64_t elapsed =
      static_cast<int64_t>(kernel.now()) - static_cast<int64_t>(kernel.start_time());
  const int64_t charged = static_cast<int64_t>(ledger.Total());
  const int64_t unsettled = kernel.UnsettledBusyCycles() - kernel.unsettled_at_reset();
  if (charged + unsettled != elapsed) {
    std::ostringstream os;
    os << "charged " << charged << " + unsettled " << unsettled << " != elapsed " << elapsed
       << " cycles (drift " << (charged + unsettled - elapsed) << ")";
    AddViolation("cycle-conservation", "kernel", os.str());
  }

  // Rule 3: per-owner counters must agree with the kernel-wide registries.
  uint64_t threads = 0, events = 0, pages = 0, locks = 0;
  for (const auto& [id, rec] : kernel.account_labels()) {
    const ResourceUsage& u = rec.owner->usage();
    threads += u.threads;
    events += u.events;
    pages += u.pages;
    locks += u.iobuffer_locks;
  }
  auto agree = [&](const char* what, uint64_t summed, uint64_t registry) {
    if (summed != registry) {
      AddViolation(std::string("object-conservation/") + what, "kernel",
                   std::string("sum of per-owner ") + what + " counters (" +
                       std::to_string(summed) + ") != kernel registry (" +
                       std::to_string(registry) + ")");
    }
  };
  agree("threads", threads, kernel.live_thread_count());
  agree("events", events, kernel.live_event_count());
  agree("pages", pages, kernel.pages().allocated_pages());
  agree("iobuffer_locks", locks, kernel.iobuffers().total_lock_count());

  // Post-mortem context: a conservation violation dumps the flight
  // recorder (the events leading up to the inconsistency) when a tracer
  // is attached.
  if (kernel.tracer() != nullptr && violations_.size() > violations_before) {
    kernel.tracer()->DumpFlight("audit:conservation " + violations_.back().check,
                                kernel.now());
  }
}

std::string Auditor::Report() const {
  std::ostringstream os;
  os << "escort-audit: " << violations_.size() << " violation(s)\n";
  for (const AuditViolation& v : violations_) {
    os << "  [" << v.check << "] " << v.subject << ": " << v.detail << "\n";
  }
  return os.str();
}

void Auditor::Enforce() const {
  if (violations_.empty()) {
    return;
  }
  Tracer::Diag(Report());
  std::abort();
}

AuditScope::AuditScope(Kernel* kernel, bool enforce) : kernel_(kernel), enforce_(enforce) {
  kernel_->set_auditor(&auditor_);
}

void AuditScope::Finalize() {
  if (finalized_) {
    return;
  }
  finalized_ = true;
  auditor_.CheckConservation(*kernel_);
}

AuditScope::~AuditScope() {
  Finalize();
  kernel_->set_auditor(nullptr);
  if (enforce_) {
    auditor_.Enforce();
  } else if (!auditor_.ok()) {
    Tracer::Diag(auditor_.Report());
  }
}

}  // namespace escort
