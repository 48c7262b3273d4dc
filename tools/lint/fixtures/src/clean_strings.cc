// Comments and string literals are stripped before matching: rand() in a
// comment is fine, as is "new" in a string. A `new` wrapped straight into
// a smart pointer passes EL005.
#include <memory>
const char* s = "new int";
auto p = std::make_unique<int>(3);
auto q = std::unique_ptr<int>(new int(4));
