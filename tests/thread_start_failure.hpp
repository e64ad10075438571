// Running a fan-out where no thread can start, for the exec layer's
// spawn-failure death test. The death-test child caps its address space
// (RLIMIT_AS) above what it has mapped by half a default thread stack: the
// heap can still grow by a few MiB, a thread stack does not fit. Run the
// child in gtest's "threadsafe" style, which re-executes the binary, so it
// inherits no cached thread stack that could start a thread under the
// limit.
#pragma once

#include <pthread.h>
#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>

namespace dbp::thread_start_failure {

/// Sanitizer runtimes map more address space than the limit leaves, so the
/// recipe only works in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitizedBuild = true;
#else
inline constexpr bool kSanitizedBuild = false;
#endif
#else
inline constexpr bool kSanitizedBuild = false;
#endif

/// This process's mapped address space, from /proc/self/status.
inline std::uint64_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

/// The stack size a std::thread maps by default; 0 when it cannot be read.
inline std::uint64_t default_thread_stack_bytes() {
  pthread_attr_t attr;
  if (pthread_getattr_default_np(&attr) != 0) return 0;
  std::size_t size = 0;
  const bool read = pthread_attr_getstacksize(&attr, &size) == 0;
  pthread_attr_destroy(&attr);
  return read ? size : 0;
}

/// Caps RLIMIT_AS at the current VmSize + half a default thread stack.
/// False when the stack size or the limit cannot be read, or the limit
/// cannot be set.
inline bool leave_no_room_for_thread_stacks() {
  const std::uint64_t stack = default_thread_stack_bytes();
  rlimit limit{};
  if (stack == 0 || getrlimit(RLIMIT_AS, &limit) != 0) return false;
  limit.rlim_cur = vm_size_bytes() + stack / 2;
  return setrlimit(RLIMIT_AS, &limit) == 0;
}

/// True when a std::thread cannot start: the limit really stops a thread.
inline bool thread_start_fails() {
  try {
    std::thread([] {}).join();
  } catch (const std::system_error&) {
    return true;
  }
  return false;
}

}  // namespace dbp::thread_start_failure
