// escort_lint self-test fixture: EA005 determinism.
//
// Iteration order over a pointer-keyed container follows the allocator,
// not the program, which breaks run-to-run determinism.
#include <cstdint>
#include <map>

class FlowState {
 public:
  uint64_t id() const;
};

class FlowRegistry {
 public:
  void IterateByAddress() {
    for (const auto& entry : flows_) {  // EXPECT: EA005
      Use(entry.first);
    }
  }

  void DrainByAddress() {
    while (!flows_.empty()) {
      Retire(flows_.begin()->first);  // EXPECT: EA005
    }
  }

  // Id-keyed map: creation-order deterministic, clean.
  void GoodIterateById() {
    for (const auto& entry : by_id_) {
      Touch(entry.second->id());
    }
  }

  void SuppressedWithReason() {
    for (const auto& entry : flows_) {  // NOLINT-EA005(diagnostic dump only; output never feeds simulation state)
      Use(entry.first);
    }
  }

 private:
  void Use(const FlowState* flow);
  void Touch(uint64_t v);
  void Retire(const FlowState* flow);

  std::map<const FlowState*, uint64_t> flows_;
  std::map<uint64_t, FlowState*> by_id_;
};
