// EL009 negative space: const/constexpr statics, static member functions
// (with default arguments) and static_cast all pass.
#include <string>
const std::string& Name() {
  static const std::string kName = "escort";
  return kName;
}
struct Calib {
  static constexpr int kScale = 7;
  static Calib Make(int base = 3);
  constexpr static int kOther = 9;
};
static int Twice(int v) { return static_cast<int>(v) * 2; }
