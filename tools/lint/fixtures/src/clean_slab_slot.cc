// EL013 negative space: unique_ptr and plain members in a marked slot are
// fine, a shared_ptr in an unmarked type is out of scope, and a shared_ptr
// named only in a comment does not fire.
#include <memory>
// ESCORT_SLAB_SLOT: flyweight slot.
struct Conn {
  // Why not shared_ptr: the slab recycles this storage.
  std::unique_ptr<int> buffer;
  int fd = -1;
};
struct FreeRoaming {
  std::shared_ptr<int> token;  // not a slab slot: allowed
};
