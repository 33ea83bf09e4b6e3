#include "common/log.hpp"

#include <cstdio>
#include <mutex>

namespace manet::common {

namespace {

std::mutex g_io_mutex;

}  // namespace

void log_warn(std::string_view message) {
  const std::lock_guard<std::mutex> lock(g_io_mutex);
  std::fprintf(stderr, "[WARN] %.*s\n", static_cast<int>(message.size()), message.data());
}

}  // namespace manet::common
