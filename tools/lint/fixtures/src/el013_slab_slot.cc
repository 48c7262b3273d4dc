// EL013: slab slots own no shared_ptr members.
#include <memory>
// ESCORT_SLAB_SLOT: stored by value in a Slab<Conn>.
struct Conn {
  int fd = -1;
  std::shared_ptr<int> token;  // EXPECT: EL013
};
// ESCORT_SLAB_SLOT
class Peer {
 private:
  std::shared_ptr<Peer> parent_;  // EXPECT: EL013
};
