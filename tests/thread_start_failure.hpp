// Running a fan-out where no thread can start, shared by the engine's and
// the exec layer's spawn-failure death tests. The death-test child caps its
// address space (RLIMIT_AS) just above what it has mapped: small
// allocations still fit, a thread stack does not. Run the child in gtest's
// "threadsafe" style, which re-executes the binary, so it inherits no
// cached thread stack that could start a thread under the limit.
#pragma once

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

/// Caps RLIMIT_AS at the current VmSize + 1 MiB. False when the limit
/// cannot be read or set.
inline bool leave_no_room_for_thread_stacks() {
  rlimit limit{};
  if (getrlimit(RLIMIT_AS, &limit) != 0) return false;
  limit.rlim_cur = vm_size_bytes() + (std::uint64_t{1} << 20);
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
