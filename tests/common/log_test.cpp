#include "common/log.hpp"

#include <gtest/gtest.h>

#include <string>

namespace manet::common {
namespace {

TEST(Log, WarnWritesOneTaggedLineToStderr) {
  testing::internal::CaptureStderr();
  log_warn("checkpoint skipped");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), std::string("[WARN] checkpoint skipped\n"));
}

}  // namespace
}  // namespace manet::common
