// Scratch file paths for tests that write files.
//
// ctest runs every gtest case as its own process, in parallel under -j, and
// every build tree's tests share TempDir(). A fixed file name is therefore
// shared by every case and every concurrent run that writes it, and they
// clobber each other's files. TestTempPath names the file after the running
// test and the process instead.

#ifndef QUANTILEFILTER_TESTS_TEMP_PATH_H_
#define QUANTILEFILTER_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace qf {

/// TempDir()/qf_<suite>.<test>.<pid>.<name>; '/' in parameterized test
/// names becomes '_'.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr
                         ? std::string("no_test")
                         : std::string(info->test_suite_name()) + "." +
                               info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + "/qf_" + test + "." +
         std::to_string(getpid()) + "." + name;
}

}  // namespace qf

#endif  // QUANTILEFILTER_TESTS_TEMP_PATH_H_
