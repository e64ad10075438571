#include "serve.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "net/fd_io.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"

extern char** environ;

namespace servebench {

namespace {

using dbp::net::WireResponse;

/// Open-loop send batching interval (10 events per batch at 100k events/s).
constexpr std::int64_t kSendQuantumNs = 100'000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Unsigned value of `"key": N` in dbp_serve's summary (0 when absent).
std::uint64_t summary_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Incremental response parser for one connection, either framing.
class ResponseReader {
 public:
  explicit ResponseReader(Framing framing) : framing_(framing) {}

  void feed(const std::uint8_t* data, std::size_t n) {
    if (pos_ > 0 && pos_ == buffer_.size()) {
      buffer_.clear();
      pos_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + n);
  }

  /// Next complete response; false when more bytes are needed. Throws
  /// CorruptionError on a damaged response stream.
  bool next(WireResponse& out) {
    const std::span<const std::uint8_t> rest(buffer_.data() + pos_,
                                             buffer_.size() - pos_);
    if (framing_ == Framing::kJson) {
      const auto* begin = reinterpret_cast<const char*>(rest.data());
      const void* newline = std::memchr(begin, '\n', rest.size());
      if (newline == nullptr) return false;
      const auto length =
          static_cast<std::size_t>(static_cast<const char*>(newline) - begin);
      out = dbp::net::decode_json_response(std::string_view(begin, length));
      pos_ += length + 1;
      return true;
    }
    if (rest.size() < dbp::net::kFrameHeaderBytes) return false;
    dbp::net::FrameHeader header;
    if (dbp::net::decode_frame_header(rest.first(dbp::net::kFrameHeaderBytes),
                                      header) != dbp::net::WireError::kNone) {
      throw dbp::CorruptionError("bad response frame header");
    }
    const std::size_t total = dbp::net::kFrameHeaderBytes + header.payload_len;
    if (rest.size() < total) return false;
    const std::span<const std::uint8_t> payload =
        rest.subspan(dbp::net::kFrameHeaderBytes, header.payload_len);
    if (dbp::crc32(payload) != header.payload_crc) {
      throw dbp::CorruptionError("response frame CRC mismatch");
    }
    out = dbp::net::decode_response(payload);
    pos_ += total;
    return true;
  }

 private:
  Framing framing_;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
};

struct Connection {
  Connection(const std::string& path, Framing framing)
      : fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0)), reader(framing) {
    const sockaddr_un address = dbp::net::detail::make_unix_address(path);
    if (!fd.valid() ||
        ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      throw dbp::IoError("cannot connect to '" + path +
                         "': " + std::strerror(errno));
    }
  }

  dbp::net::detail::FdGuard fd;
  ResponseReader reader;
  std::size_t released = 0;  ///< bytes of wire[conn] handed to the loop
  std::size_t written = 0;   ///< bytes accepted by the socket
  std::vector<std::size_t> seq_step;  ///< frame seq - 1 -> step index
  std::int64_t last_anchor = 0;       ///< latency anchor of the last event
  std::size_t window_events = 0;      ///< events since this conn's last query
  bool eof = false;
};

/// This process's CPUs split in two, taken once before any pinning: the
/// last CPU for the load generator, the rest for dbp_serve, so the two
/// never share a CPU and placement stays the same from pass to pass. No
/// split on a single CPU.
struct CpuSplit {
  CpuSplit() {
    CPU_ZERO(&all);
    CPU_ZERO(&generator);
    if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) return;
    int last = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) last = cpu;
    }
    server = all;
    CPU_CLR(last, &server);
    CPU_SET(last, &generator);
    split = true;
  }

  cpu_set_t all{};
  cpu_set_t generator{};
  cpu_set_t server{};
  bool split = false;
};

const CpuSplit& cpu_split() {
  static const CpuSplit split;
  return split;
}

/// Pins the calling thread to `set` for the guard's lifetime.
class PinThread {
 public:
  explicit PinThread(const cpu_set_t& set) {
    active_ = cpu_split().split && ::sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
              ::sched_setaffinity(0, sizeof set, &set) == 0;
  }
  ~PinThread() {
    if (active_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinThread(const PinThread&) = delete;
  PinThread& operator=(const PinThread&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& run_dir, std::size_t shards,
                             bool traced, int index) {
  const std::string stem =
      run_dir + "/serve" + std::to_string(::getpid()) + "_" + std::to_string(index);
  socket_path_ = stem + ".sock";
  stdout_path_ = stem + ".out";
  ::unlink(socket_path_.c_str());

  std::vector<std::string> args = {binary, "--socket=" + socket_path_,
                                   "--shards=" + std::to_string(shards)};
  if (traced) {
    args.push_back("--trace-out=" + stem + ".trace.jsonl");
    args.push_back("--metrics");
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdout_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   (stem + ".err").c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const std::int64_t start = now_ns();
  int spawned = 0;
  {
    // The child inherits the spawning thread's CPU mask.
    const PinThread pin(cpu_split().server);
    spawned = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                            argv.data(), environ);
  }
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(spawned));
  }

  // Set-up ends at the first answered query: bind + listen + accept +
  // engine construction all count, not just the exec.
  try {
    for (;;) {
      try {
        dbp::net::WireClient probe(socket_path_,
                                   dbp::net::WireClient::Framing::kBinary);
        const WireResponse answer = probe.query(0.0);
        if (answer.error != dbp::net::WireError::kNone) {
          throw std::runtime_error("first query rejected: " + answer.detail);
        }
        break;
      } catch (const dbp::IoError&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("dbp_serve exited during set-up (see " +
                                   stem + ".err)");
        }
        if (now_ns() - start > 30'000'000'000LL) {
          throw std::runtime_error("dbp_serve did not answer within 30 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  } catch (...) {
    reap(true);  // the destructor does not run for a throwing constructor
    throw;
  }
  setup_s_ = 1e-9 * static_cast<double>(now_ns() - start);
}

ServerProcess::~ServerProcess() {
  reap(true);
  ::unlink(socket_path_.c_str());
}

void ServerProcess::reap(bool force) {
  if (pid_ <= 0) return;
  if (force) ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double ServerProcess::cpu_seconds() const {
  // The child's process CPU clock: user + system time of every thread,
  // exited ones included, at nanosecond resolution (/proc/PID/stat only
  // has clock ticks).
  clockid_t clock = 0;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("cannot read dbp_serve's CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ServerProcess::peak_rss_mb() const {
  const std::string status =
      read_file("/proc/" + std::to_string(pid_) + "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return static_cast<double>(std::strtoull(status.c_str() + at + 6, nullptr, 10)) /
         1024.0;
}

ServerProcess::Summary ServerProcess::shutdown() {
  {
    dbp::net::WireClient client(socket_path_, dbp::net::WireClient::Framing::kBinary);
    (void)client.shutdown_server();
  }
  reap(false);
  const std::string text = read_file(stdout_path_);
  Summary summary;
  summary.frames_rejected = summary_field(text, "frames_rejected");
  summary.dropped_events = summary_field(text, "dropped_events");
  return summary;
}

double probe_setup(const std::string& binary, const std::string& run_dir,
                   std::size_t shards, int index) {
  ServerProcess server(binary, run_dir, shards, /*traced=*/false, index);
  (void)server.shutdown();
  return server.setup_seconds();
}

PassResult run_pass(const Plan& plan, const std::string& binary,
                    const std::string& run_dir, bool traced, int index,
                    int idle_queries) {
  const PinThread pin(cpu_split().generator);
  PassResult result;
  ServerProcess server(binary, run_dir, plan.spec.shards, traced, index);
  result.setup_s = server.setup_seconds();

  std::vector<Connection> conns;
  conns.reserve(plan.wire.size());
  for (std::size_t c = 0; c < plan.wire.size(); ++c) {
    conns.emplace_back(server.socket_path(), plan.spec.framing);
  }

  const std::vector<Step>& steps = plan.steps;
  const bool open = plan.spec.open_loop;
  const double ns_per_event = open ? 1e9 / plan.spec.rate_events_per_s : 0.0;
  std::vector<std::int64_t> window_anchor(steps.size(), 0);
  std::vector<std::size_t> window_events(steps.size(), 0);

  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::size_t answered = 0;
  std::int64_t origin = 0;
  std::int64_t timed_start = 0;
  std::int64_t last_ack = 0;
  double server_cpu0 = 0.0;
  double generator_cpu0 = 0.0;
  std::int64_t last_progress = now_ns();
  // Open loop: when a barrier held the schedule back, generator lateness
  // counts from the moment the barrier cleared, not from the due time.
  bool barrier_held = false;
  std::int64_t barrier_cleared = 0;
  bool broken = false;
  std::vector<std::uint8_t> chunk(1 << 16);
  std::vector<pollfd> fds(conns.size());

  const auto due_of = [&](const Step& step) {
    const std::size_t k = step.released_events == 0 ? 0 : step.released_events - 1;
    return origin + static_cast<std::int64_t>(static_cast<double>(k) * ns_per_event);
  };

  while (answered < plan.queries && !broken) {
    std::int64_t now = now_ns();
    if (next == 0) origin = now;
    // Release every step that is due and not held by a barrier.
    while (next < steps.size()) {
      const Step& step = steps[next];
      if (step.barrier && outstanding > 0) {
        barrier_held = true;
        break;
      }
      const std::int64_t due = open ? due_of(step) : now;
      if (due > now) break;
      if (next == plan.warmup_steps) {
        timed_start = now;
        server_cpu0 = server.cpu_seconds();
        generator_cpu0 = thread_cpu_seconds();
        now = now_ns();
      }
      Connection& conn = conns[step.conn];
      conn.released = step.bytes_end;
      conn.seq_step.push_back(next);
      ++result.attempted;
      if (step.kind == Step::Kind::kSubmit) {
        conn.last_anchor = due;
        ++conn.window_events;
        if (open && next >= plan.warmup_steps) {
          result.lateness_us.push_back(
              1e-3 * static_cast<double>(now - std::max(due, barrier_cleared)));
        }
      } else if (step.kind == Step::Kind::kQuery) {
        window_anchor[next] = conn.last_anchor;
        window_events[next] = conn.window_events;
        conn.window_events = 0;
        ++outstanding;
      }
      ++next;
    }

    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = conns[c];
      while (conn.written < conn.released) {
        const ssize_t n =
            ::send(conn.fd.get(), plan.wire[c].data() + conn.written,
                   conn.released - conn.written, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          conn.written += static_cast<std::size_t>(n);
          last_progress = now_ns();
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) broken = true;
          break;
        }
      }
      fds[c] = pollfd{conn.fd.get(),
                      static_cast<short>(POLLIN | (conn.written < conn.released
                                                       ? POLLOUT
                                                       : 0)),
                      0};
    }

    std::int64_t wait_ns = 1'000'000'000;
    if (open && next < steps.size() &&
        !(steps[next].barrier && outstanding > 0)) {
      // Open loop sends in batches: wake on the first quantum boundary at
      // or after the next due time and write everything due by then. The
      // wait an event spends in its batch counts in its latency, which is
      // taken from its due time.
      const std::int64_t t = std::max(due_of(steps[next]), now_ns()) - origin;
      const std::int64_t boundary =
          origin + (t + kSendQuantumNs - 1) / kSendQuantumNs * kSendQuantumNs;
      wait_ns = std::max<std::int64_t>(0, boundary - now_ns());
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      break;
    }

    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = conns[c];
      for (;;) {
        const ssize_t n =
            ::recv(conn.fd.get(), chunk.data(), chunk.size(), MSG_DONTWAIT);
        if (n > 0) {
          conn.reader.feed(chunk.data(), static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) conn.eof = true;
        break;
      }
      const std::int64_t received = now_ns();
      WireResponse response;
      try {
        while (conn.reader.next(response)) {
          last_progress = received;
          if (response.request_seq == 0 ||
              response.request_seq > conn.seq_step.size()) {
            ++result.error_responses;
            continue;
          }
          const std::size_t index_of = conn.seq_step[response.request_seq - 1];
          if (response.error != dbp::net::WireError::kNone) ++result.error_responses;
          if (steps[index_of].kind != Step::Kind::kQuery) continue;
          --outstanding;
          ++answered;
          last_ack = received;
          if (outstanding == 0 && barrier_held) {
            barrier_held = false;
            barrier_cleared = received;
          }
          if (index_of >= plan.warmup_steps && window_events[index_of] > 0) {
            result.ack_us.push_back(
                1e-3 * static_cast<double>(received - window_anchor[index_of]));
          }
          if (index_of + 1 == steps.size()) result.final_body = response.body;
        }
      } catch (const dbp::CorruptionError&) {
        conn.eof = true;
      }
      if (conn.eof) broken = true;
    }
    if (now_ns() - last_progress > 60'000'000'000LL) broken = true;
  }

  result.timed_s = 1e-9 * static_cast<double>(last_ack - timed_start);
  result.timed_events = plan.timed_events;
  result.server_cpu_s = server.cpu_seconds() - server_cpu0;
  result.generator_cpu_s = thread_cpu_seconds() - generator_cpu0;
  result.peak_rss_mb = server.peak_rss_mb();
  result.missing_acks = plan.queries - answered;
  conns.clear();

  if (idle_queries > 0 && !broken) {
    dbp::net::WireClient client(server.socket_path(),
                                dbp::net::WireClient::Framing::kBinary);
    for (int q = 0; q < idle_queries; ++q) {
      const std::int64_t sent = now_ns();
      (void)client.query(plan.final_horizon);
      result.idle_query_rtt_us.push_back(1e-3 *
                                         static_cast<double>(now_ns() - sent));
    }
  }
  if (!broken) result.summary = server.shutdown();
  return result;
}

}  // namespace servebench
