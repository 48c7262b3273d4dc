// EL004: unordered containers iterate in implementation-defined order.
#include <unordered_map>  // EXPECT: EL004
std::unordered_map<int, int> table;  // EXPECT: EL004
