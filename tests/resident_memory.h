// Resident-set probe for tests that bound what a structure commits.
//
// ResidentBytes() reads the process's resident set from /proc/self/statm.
// Tests compare two readings taken around the code under test, so only the
// difference matters. Under ASan and TSan the runtime's shadow memory grows
// with every allocation and access, so such a difference says nothing about
// the code: QF_SKIP_IF_RSS_MEANINGLESS() skips the test there.

#ifndef QUANTILEFILTER_TESTS_RESIDENT_MEMORY_H_
#define QUANTILEFILTER_TESTS_RESIDENT_MEMORY_H_

#include <unistd.h>

#include <cstdint>
#include <fstream>

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QF_RSS_MEANINGLESS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QF_RSS_MEANINGLESS 1
#endif
#endif

#ifdef QF_RSS_MEANINGLESS
#define QF_SKIP_IF_RSS_MEANINGLESS() \
  GTEST_SKIP() << "RSS includes sanitizer shadow memory"
#else
#define QF_SKIP_IF_RSS_MEANINGLESS() \
  do {                               \
  } while (false)
#endif

namespace qf {

/// The process's resident set in bytes, or -1 if /proc is unreadable.
inline int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return -1;
  return pages_resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace qf

#endif  // QUANTILEFILTER_TESTS_RESIDENT_MEMORY_H_
