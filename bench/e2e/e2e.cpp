#include "e2e.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "image/generate.hpp"

namespace e2e {
namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Written by calibration_ms() so its loop cannot be folded away.
volatile double calibration_sink = 0.0;

/// What the set-up helper sends back per sample; seconds < 0: failed.
struct SetupReply {
  double seconds = -1.0;
  std::uint64_t digest = 0;
};

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k <= 0) {
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// The set-up helper's loop until EOF: one child per request, pinned to
/// the CPU of the rotation step the request names.
[[noreturn]] void serve_setups(SetupFn setup, const Frame& first,
                               CpuRotation& rotation, int request_fd,
                               int reply_fd) {
  int step = 0;
  while (read_all(request_fd, &step, sizeof step)) {
    const pid_t child = fork();
    if (child == 0) {
      try {
        rotation.pin(0, step);
        const SetupResult r = setup(first);
        const SetupReply reply{r.seconds, digest(r.output)};
        _exit(write_all(reply_fd, &reply, sizeof reply) ? 0 : 1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "set-up: %s\n", e.what());
      }
      _exit(1);
    }
    int status = 0;
    const bool ok = child > 0 && waitpid(child, &status, 0) == child &&
                    WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const SetupReply failed;
    if (!ok && !write_all(reply_fd, &failed, sizeof failed)) {
      break;
    }
  }
  _exit(0);
}

}  // namespace

std::vector<Frame> make_pool(int size, int count, std::uint64_t seed) {
  std::vector<Frame> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::uint64_t frame_seed = seed * 1000003u +
                                     static_cast<std::uint64_t>(size) * 101u +
                                     static_cast<std::uint64_t>(i);
    pool.push_back({std::to_string(size) + "x" + std::to_string(size) + "#" +
                        std::to_string(i),
                    sharp::img::make_natural(size, size, frame_seed)});
  }
  return pool;
}

sharp::SharpenParams params_for(bool strong) {
  if (!strong) {
    return {};
  }
  return {.amount = 2.5f,
          .gamma = 0.35f,
          .strength_max = 6.0f,
          .osc_gain = 0.5f,
          .mean_epsilon = 1e-5f};
}

std::string oracle_key(const Frame& frame, bool strong) {
  return frame.key + (strong ? "/strong" : "/default");
}

std::uint64_t digest(const sharp::img::ImageU8& image) {
  // FNV-1a over 8-byte words: each step is a bijection of the state for a
  // fixed word, so any single changed word changes the digest.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = (h ^ static_cast<std::uint64_t>(image.width())) * kPrime;
  h = (h ^ static_cast<std::uint64_t>(image.height())) * kPrime;
  const std::uint8_t* p = image.data();
  const std::size_t n = image.byte_size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
  }
  for (; i < n; ++i) {
    h = (h ^ p[i]) * kPrime;
  }
  return h;
}

void Record::num(const std::string& key, double value) {
  fields_.emplace_back(key, number(value));
}

void Record::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
}

void Record::list(const std::string& key, const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s += i ? "," : "";
    s += number(values[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void Record::strs(const std::string& key,
                  const std::vector<std::string>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s += i ? "," : "";
    s += quote(values[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void Record::obj(const std::string& key, const Record& value) {
  fields_.emplace_back(key, value.text());
}

std::string Record::text() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    s += i ? "," : "";
    s += quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return s + "}";
}

void Checker::record(const std::string& key,
                     const sharp::img::ImageU8& output) {
  record_digest(key, digest(output));
}

void Checker::record_digest(const std::string& key, std::uint64_t digest) {
  std::lock_guard<std::mutex> lk(mu_);
  seen_[key][digest] += 1.0;
}

void Checker::error(const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  errors_.push_back(what);
}

void Checker::write(Record& raw) const {
  std::lock_guard<std::mutex> lk(mu_);
  Record outputs;
  for (const auto& [key, digests] : seen_) {
    Record per_key;
    for (const auto& [d, count] : digests) {
      per_key.num(hex_digest(d), count);
    }
    outputs.obj(key, per_key);
  }
  raw.obj("outputs", outputs);
  raw.strs("errors", errors_);
}

void Tracer::add(std::string name, Clock::time_point a, Clock::time_point b,
                 std::uint64_t req) {
  if (!on_) {
    return;
  }
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), us(a), us(b) - us(a), req});
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":" << quote(s.name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << number(s.start_us)
       << ",\"dur\":" << number(s.dur_us) << ",\"args\":{\"req\":" << s.req
       << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k <= 0) {
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

SetupSampler::SetupSampler(SetupFn setup, const Frame& first)
    : first_(first) {
  int request[2];
  int reply[2];
  if (pipe(request) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  if (pipe(reply) != 0) {
    close(request[0]);
    close(request[1]);
    throw std::runtime_error("pipe() failed");
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(request[1]);
    close(reply[0]);
    serve_setups(setup, first, rotation_, request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  if (pid < 0) {
    close(request[1]);
    close(reply[0]);
    throw std::runtime_error("fork() failed");
  }
  pid_ = pid;
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

SetupSampler::~SetupSampler() {
  close(request_fd_);  // the helper reads end-of-file and exits
  int status = 0;
  waitpid(pid_, &status, 0);
  close(reply_fd_);
}

double SetupSampler::sample(Run& run) {
  double fastest = 0.0;
  for (int i = 0; i < kSetupTries; ++i) {
    const int step = next_step_++;
    SetupReply reply;
    if (!write_all(request_fd_, &step, sizeof step) ||
        !read_all(reply_fd_, &reply, sizeof reply) || reply.seconds < 0.0) {
      throw std::runtime_error("set-up failed in a fresh process");
    }
    run.checker.record_digest(oracle_key(first_, false), reply.digest);
    fastest = i == 0 ? reply.seconds : std::min(fastest, reply.seconds);
  }
  return fastest;
}

std::string hex_digest(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double calibration_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 2000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff) * 1e-6;
  }
  calibration_sink = acc;
  return ms_between(t0, Clock::now());
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity() failed");
  }
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const std::size_t c : cpus_) {
    CPU_SET(c, &set);
  }
  for (const int tid : pinned_) {
    sched_setaffinity(tid, sizeof set, &set);  // best effort: may have ended
  }
}

void CpuRotation::pin(int tid, int step) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<std::size_t>(step) % cpus_.size()], &set);
  if (sched_setaffinity(tid, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity() failed");
  }
  if (std::find(pinned_.begin(), pinned_.end(), tid) == pinned_.end()) {
    pinned_.push_back(tid);
  }
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(std::stoi(entry.path().filename().string()));
  }
  return ids;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace e2e
