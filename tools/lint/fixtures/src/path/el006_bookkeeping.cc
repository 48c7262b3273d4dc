// EL006: only src/kernel mutates owner counters and tracking lists.
void Charge(Owner* o) { o->usage().pages += 1; }  // EXPECT: EL006
void Track(Owner* o, Thread* t) { o->threads().push_front(t); }  // EXPECT: EL006
