// Process-wide heap accounting (see heap.cpp).
#pragma once

#include <cstddef>

namespace perfbench {

/// Bytes currently allocated through operator new.
std::size_t heap_live() noexcept;
/// High-water mark of heap_live() since the last heap_reset_peak().
std::size_t heap_peak() noexcept;
/// Restart the high-water mark from the current live count.
void heap_reset_peak() noexcept;

}  // namespace perfbench
