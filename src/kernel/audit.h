// Escort Auditor: machine-checked resource-conservation invariants.
//
// The paper's Table 1 claims that end-to-end accounting charges ~100% of
// consumed cycles to the correct owner. This module turns that claim — and
// the charge/release pairing it depends on — into hard assertions:
//
//   1. Owner-drain: when an owner is destroyed, every tracking list and
//      every ResourceUsage counter except `cycles` must have drained to
//      zero. A non-zero residue is a leaked charge (an undetectable DoS
//      vector: resources consumed that no policy can see).
//   2. Cycle conservation: at any quiescent query point, the summed
//      per-owner cycles (live owners + the retired ledger) must equal the
//      elapsed simulation time, modulo the one in-flight busy segment the
//      kernel reports via UnsettledBusyCycles().
//   3. Global object conservation: the per-owner counters must agree with
//      the kernel-wide object registries (threads, live events, pages,
//      IOBuffer locks).
//
// The auditor is always compiled so tests can exercise it directly; builds
// configured with -DESCORT_AUDIT additionally *enforce* it: the testbeds
// attach an AuditScope whose destructor aborts the process on any recorded
// violation, so every test and benchmark run doubles as a conservation
// proof.

#ifndef SRC_KERNEL_AUDIT_H_
#define SRC_KERNEL_AUDIT_H_

#include <string>
#include <vector>

#include "src/sim/types.h"

namespace escort {

class Kernel;
class Owner;

// True when the build globally enforces audits (cmake -DESCORT_AUDIT=ON).
#ifdef ESCORT_AUDIT
inline constexpr bool kAuditEnforcedByDefault = true;
#else
inline constexpr bool kAuditEnforcedByDefault = false;
#endif

// One broken invariant. `check` is a stable rule identifier
// ("owner-drain/pages", "cycle-conservation", ...), `subject` names the
// owner or kernel structure involved, `detail` carries the numbers.
struct AuditViolation {
  std::string check;
  std::string subject;
  std::string detail;
};

class Auditor {
 public:
  // Rule 1. Called by Kernel::DestroyOwner after reclamation, while the
  // owner's counters are still intact. Also usable directly by tests.
  void CheckOwnerDrained(const Owner& owner);

  // Rules 2 and 3. Runs the end-of-run conservation checks against a live
  // kernel. Settles the in-progress idle period first (via Snapshot), so
  // calling it is safe at any time.
  void CheckConservation(Kernel& kernel);

  bool ok() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  void Clear() { violations_.clear(); }

  // Human-readable multi-line report of all recorded violations.
  std::string Report() const;

  // Prints the report to stderr and aborts if any violation was recorded.
  void Enforce() const;

  void AddViolation(std::string check, std::string subject, std::string detail);

 private:
  std::vector<AuditViolation> violations_;
};

// RAII wiring: attaches an Auditor to `kernel` for the scope's lifetime so
// every owner destruction is drain-checked, and runs the end-of-run
// conservation checks on destruction. With `enforce` (the default under
// ESCORT_AUDIT builds) any violation aborts the process; otherwise
// violations are reported to stderr but the run continues.
class AuditScope {
 public:
  explicit AuditScope(Kernel* kernel, bool enforce = kAuditEnforcedByDefault);
  ~AuditScope();

  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

  Auditor& auditor() { return auditor_; }

  // Runs the end-of-run checks now (they also run on destruction).
  void Finalize();

 private:
  Kernel* kernel_;
  bool enforce_;
  bool finalized_ = false;
  Auditor auditor_;
};

}  // namespace escort

#endif  // SRC_KERNEL_AUDIT_H_
