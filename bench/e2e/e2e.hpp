// Shared pieces of the end-to-end benchmark binary: seeded frame pools,
// the output digest the correctness gate compares, the raw-measurement
// record handed to bench/e2e/run.py, and the benchmark-side span tracer.
//
// The binary only measures. Every statistic (percentiles, medians, bound
// checks, the oracle verdict) is computed by run.py/stats.py from the raw
// samples printed here, so there is exactly one implementation of each.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "image/image.hpp"
#include "sharpen/params.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One generated input. `key` names the frame across workloads
/// ("512x512#3"): the same key is the same pixels for a given seed.
struct Frame {
  std::string key;
  sharp::img::ImageU8 image;

  [[nodiscard]] double mpx() const {
    return static_cast<double>(image.pixel_count()) * 1e-6;
  }
};

/// `count` natural frames of `size`² derived from `seed`.
[[nodiscard]] std::vector<Frame> make_pool(int size, int count,
                                           std::uint64_t seed);

/// The two parameter sets the workloads send: the library default and a
/// "strong" set that differs in every field the batch planner compares.
[[nodiscard]] sharp::SharpenParams params_for(bool strong);

/// Oracle key of one (frame, params) pair.
[[nodiscard]] std::string oracle_key(const Frame& frame, bool strong);

/// 64-bit digest of an 8-bit image (geometry + pixels).
[[nodiscard]] std::uint64_t digest(const sharp::img::ImageU8& image);
[[nodiscard]] std::string hex_digest(std::uint64_t value);

/// A flat JSON object built field by field. Non-finite numbers print as
/// null, which run.py reads as +inf (a failed request's latency).
class Record {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  void list(const std::string& key, const std::vector<double>& values);
  void strs(const std::string& key, const std::vector<std::string>& values);
  void obj(const std::string& key, const Record& value);
  [[nodiscard]] std::string text() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Records every response digest per oracle key. Thread-safe: the open
/// loop's collector and the main thread may both record.
class Checker {
 public:
  void record(const std::string& key, const sharp::img::ImageU8& output);
  void record_digest(const std::string& key, std::uint64_t digest);
  /// An unexpected failure (exception, error outcome): fails the run.
  void error(const std::string& what);
  void write(Record& raw) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::map<std::uint64_t, double>> seen_;
  std::vector<std::string> errors_;
};

/// Benchmark-side spans around calls into the library (no spans are added
/// inside the library). Kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t req = 0;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  void add(std::string name, Clock::time_point a, Clock::time_point b,
           std::uint64_t req);
  /// Chrome-trace JSON ("X" events), loadable in Perfetto.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What every workload and replay shares: the arguments and the
/// correctness gate.
struct Run {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Checker checker;

  /// Verifies one response against the oracle (digest recorded for
  /// run.py's verdict).
  void check(const Frame& frame, bool strong,
             const sharp::img::ImageU8& output) {
    checker.record(oracle_key(frame, strong), output);
  }
};

/// A fixed bench-owned CPU loop (reported, never used to normalise).
[[nodiscard]] double calibration_ms();

/// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double process_cpu_s();

/// Moves work threads round the CPUs the process may use, one step per
/// trial. Other tenants slow single cores, each in its own episodes, so a
/// thread that stayed on one core could spend a whole run on a disturbed
/// one. Restores each pinned thread's CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins thread `tid` (0: the calling thread) to the step-th allowed CPU.
  void pin(int tid, int step);

 private:
  std::vector<std::size_t> cpus_;
  std::vector<int> pinned_;
};

/// Thread ids of this process.
[[nodiscard]] std::vector<int> thread_ids();

/// Writes all n bytes to a pipe; false if it closed or failed.
[[nodiscard]] bool write_all(int fd, const void* data, std::size_t n);

using Pools = std::vector<std::vector<Frame>>;

/// One set-up: constructs the pipeline or service, sends `first` and
/// waits for the response. Returns the seconds from construction to the
/// response (teardown untimed) and the output.
struct SetupResult {
  double seconds = 0.0;
  sharp::img::ImageU8 output;
};
using SetupFn = SetupResult (*)(const Frame& first);

/// Set-up time measured in fresh processes, so one-time lazy
/// initialisation inside the library is paid by every sample. A helper
/// process, forked while the benchmark is still single-threaded and has
/// not called the pipeline yet, forks one child per set-up; the child
/// runs the set-up once and reports its time and output digest. The
/// caller blocks meanwhile, so a sample never overlaps measured work.
class SetupSampler {
 public:
  /// Set-ups per sample, each on the next CPU of the rotation.
  static constexpr int kSetupTries = 3;

  SetupSampler(SetupFn setup, const Frame& first);
  ~SetupSampler();
  SetupSampler(const SetupSampler&) = delete;
  SetupSampler& operator=(const SetupSampler&) = delete;

  /// Seconds of the fastest of kSetupTries fresh-process set-ups with the
  /// default parameters, on different CPUs (one disturbed core does not
  /// set the sample); every output is checked through `run`. Throws if a
  /// child fails.
  double sample(Run& run);

 private:
  const Frame& first_;
  CpuRotation rotation_;
  int next_step_ = 0;
  int pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

// --- workloads (workloads.cpp) ---------------------------------------------

/// The (frame, params) pairs a workload will send; the oracle digests
/// exactly these before anything is timed.
using OraclePairs = std::vector<std::pair<const Frame*, bool>>;

struct Workload {
  std::string name;
  /// Builds the frame pools and declares the oracle pairs.
  void (*prepare)(Run& run, Pools& pools, OraclePairs& pairs);
  /// The set-up setup_s times; it sends the first frame of
  /// pools[setup_pool].
  SetupFn setup;
  std::size_t setup_pool;
  /// Measures the workload for run.seconds (traced: with spans on).
  void (*measure)(Run& run, const Pools& pools, SetupSampler& setup,
                  Tracer& tracer, Record& out);
};

[[nodiscard]] const std::vector<Workload>& workloads();

// --- per-layer replays (replay.cpp) ------------------------------------------

/// Frames the replays run on (added to every traced run's oracle set).
struct ReplayFrames {
  std::vector<Frame> gpu;  ///< 512² natural frames (gpu_direct's pool)
  std::vector<Frame> cpu;  ///< 2048² natural frames (cpu_direct's pool)
};
[[nodiscard]] ReplayFrames make_replay_frames(std::uint64_t seed);

/// Times the calls into each layer's public functions on `frames` and
/// fills `layers` with one sample list per per-layer metric.
void replay_layers(Run& run, const ReplayFrames& frames, Tracer& tracer,
                   Record& layers);

}  // namespace e2e
