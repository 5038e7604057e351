// Heap-allocation counting for the allocation-free tests
// (machine_epoch_alloc_test, core_tick_alloc_test).
//
// alloc_counter.cc replaces the global operator new/delete of the whole
// test binary, so link it only into a test that counts. gtest itself
// allocates between and around tests: read the count only in tight
// windows around the calls under test.
#ifndef COPART_TESTS_ALLOC_COUNTER_H_
#define COPART_TESTS_ALLOC_COUNTER_H_

namespace copart {

// Calls to the global operator new (any form) so far in this process.
long HeapAllocations();

}  // namespace copart

#endif  // COPART_TESTS_ALLOC_COUNTER_H_
