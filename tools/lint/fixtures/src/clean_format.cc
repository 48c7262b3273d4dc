// EL011 negative space: buffer formatting is allowed everywhere, and
// identifiers that merely contain "stdout" do not match.
#include <cstdio>
void Format(char* buf) { snprintf(buf, 8, "%d", 3); }
void set_echo_to_stdout(bool on);
