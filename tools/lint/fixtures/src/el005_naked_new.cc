// EL005: allocation goes through smart pointers.
int* Leak() { return new int(7); }  // EXPECT: EL005
void Drop(int* p) { delete p; }  // EXPECT: EL005
