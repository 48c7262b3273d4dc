// EL009: no mutable static state in simulation code.
#include <vector>
static std::vector<int> g_shared_results;  // EXPECT: EL009
int Counter() {
  static int calls = 0;  // EXPECT: EL009
  return ++calls;
}
