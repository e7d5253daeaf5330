// A stack budget in bytes for recursion over untrusted input.
//
// A depth limit counts frames, but the bytes a frame takes depend on the
// build: a Debug sanitizer build spends many times what Release does per
// level, and an 8 MiB stack runs out before a count tuned for Release is
// reached. So a recursive walk asks instead how much of its thread's stack
// is left, from the bounds pthread_getattr_np reports and the current frame
// address. It takes the frame address, not a local's: ASan's
// detect_stack_use_after_return moves locals to a fake stack on the heap.
//
// ThreadSanitizer's bookkeeping grows with the square of the call depth: in
// a Debug TSan build (GCC 12) a 10,000-frame chain took 0.86 GB and a
// 20,000-frame one over 3 GB. So in a TSan build (GCC defines
// __SANITIZE_THREAD__) a thread may recurse only 512 KiB below its first
// check, a few thousand frames. That is counted from the first check, not
// from the top of the stack: TSan's large thread-local state sits at the top
// of a thread's stack mapping.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ecucsp::core {

/// True once the calling frame is within a quarter of its thread's stack
/// size (at least 64 KiB) of the stack's end, or under TSan 512 KiB below
/// the thread's first check; the caller then refuses to recurse further
/// with a typed error. Stacks grow down on every target.
inline bool stack_exhausted() {
  struct Bounds {
    std::uintptr_t low = 0;    // lowest usable address; 0 when unknown
    std::uintptr_t reserve = 0;
  };
  thread_local const Bounds bounds = [] {
    Bounds b;
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return b;
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      b.low = reinterpret_cast<std::uintptr_t>(addr);
      b.reserve = std::max<std::size_t>(size / 4, std::size_t{64} << 10);
#if defined(__SANITIZE_THREAD__)
      constexpr std::uintptr_t kTsanUsable = std::uintptr_t{512} << 10;
      const auto first =
          reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      if (first > b.low + kTsanUsable) {
        b.reserve = std::max(b.reserve, first - kTsanUsable - b.low);
      }
#endif
    }
    pthread_attr_destroy(&attr);
    return b;
  }();
  const auto here =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  return bounds.low != 0 && here < bounds.low + bounds.reserve;
}

}  // namespace ecucsp::core
