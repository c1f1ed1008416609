// Fixture: every std::atomic access must spell its memory_order
// (atomic-implicit-ordering). The rule is tree-wide.
#include <atomic>
#include <utility>

std::atomic<int> counter{0};
std::atomic<bool> flag{false};

int Bad() {
  int v = counter.load();  // line 10: implicit seq_cst
  counter.store(1);        // line 11
  counter.fetch_add(2);    // line 12
  bool expected = false;
  flag.compare_exchange_strong(expected, true);  // line 14
  return v;
}

int Good() {
  int v = counter.load(std::memory_order_acquire);
  counter.fetch_add(1, std::memory_order_relaxed);
  bool expected = false;
  flag.compare_exchange_weak(expected, true,
                             std::memory_order_acq_rel);  // multi-line: clean
  v = std::exchange(v, 3);  // free function, not an atomic op
  return v;
}

// A zero-argument accessor that happens to be called store(): every
// atomic operation but load() takes an argument, so this stays clean.
struct Core {
  int& store() { return slot; }
  int slot = 0;
};

int Accessor(Core& core) { return core.store(); }
