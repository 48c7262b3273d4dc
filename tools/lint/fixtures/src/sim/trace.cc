// EL011 negative space: the Tracer::Diag funnel itself may write to stderr.
#include <cstdio>
void Diag(const char* t) { std::fwrite(t, 1, 1, stderr); std::fflush(stderr); }
