#pragma once

#include <string_view>

/// \file log.hpp
/// Warnings to stderr. Experiment binaries otherwise run quietly; the only
/// messages are warnings about input the program skips.

namespace manet::common {

/// Emits "[WARN] message\n" to stderr; concurrent calls do not interleave.
void log_warn(std::string_view message);

}  // namespace manet::common
