// A test's scratch file under ::testing::TempDir(), removed when it is made
// and again when it goes out of scope. Paths carry the process id and a
// per-process sequence number, so no two TempFiles share a path, whatever
// names the suites pick and however many test processes ctest runs at once.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

namespace icn {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "icn_" + std::to_string(::getpid()) +
              "_" + std::to_string(next_id()) + "_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static unsigned next_id() {
    static std::atomic<unsigned> id{0};
    return id.fetch_add(1);
  }

  std::string path_;
};

}  // namespace icn
