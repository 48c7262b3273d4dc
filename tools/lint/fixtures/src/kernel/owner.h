// EL007/EL008: `widgets` is charged but never released (kernel.cc), and the
// `widgets_` list is neither reclaimed (kernel.cc) nor audited (audit.cc).
#ifndef SRC_KERNEL_OWNER_H_
#define SRC_KERNEL_OWNER_H_
#include <list>
struct ResourceUsage {
  uint64_t widgets = 0;
  uint64_t cycles = 0;
};
class Owner {
  std::list<int*> widgets_;
};
#endif  // SRC_KERNEL_OWNER_H_
