// The four workloads. Each measures for run.seconds and records raw
// samples; see README.md for why each one exists.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "sharpen/cpu_pipeline.hpp"
#include "sharpen/gpu_pipeline.hpp"
#include "sharpen/service/service.hpp"

namespace e2e {
namespace {

using sharp::img::ImageU8;

/// A run is split into short trials of kPerTrial requests and reports the
/// median over its trials (stats.py). Other tenants of a shared host slow
/// a core by up to 60% in episodes of a tenth of a second to tens of
/// seconds; a median over many short trials moves less with them than a
/// mean or an extreme trial does. 20 samples leave 10 beyond a trial's
/// median, and 20 is the smallest block that holds the open loop's mix
/// exactly.
constexpr int kPerTrial = 20;
/// Trials go on until run.seconds have passed, and at least kMinTrials,
/// so the pooled p95 has its 200 samples. Faster code runs more trials;
/// a median does not drift with their number.
constexpr int kMinTrials = 10;
/// svc_open_mixed: phase hi is one block of at least kMinHi requests
/// (enough for its p90).
constexpr int kMinHi = 100;
/// Set-up samples per run, spread evenly over it (svc_open_mixed takes
/// half before its schedule and half after).
constexpr int kSetups = 16;
constexpr double kSloMs = 250.0;

/// Raw samples of one measured pass; written under one Record.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;     ///< the gated latency sample
  std::vector<double> latency_hi_ms;  ///< svc_open_mixed phase hi
  std::vector<double> trial_mpx_s;
  std::vector<double> trial_cpu_ms_per_mpx;
  std::vector<double> calib_ms;
  std::vector<double> gen_lag_ms;
  std::vector<double> submit_us;
  std::vector<double> expose_us;
  double attempted = 0.0;
  double failed = 0.0;
  double modeled_us_per_frame = 0.0;
  Record service;

  void write(Record& out) const {
    out.list("setup_s", setup_s);
    out.list("latency_ms", latency_ms);
    out.list("latency_hi_ms", latency_hi_ms);
    out.list("trial_mpx_s", trial_mpx_s);
    out.list("trial_cpu_ms_per_mpx", trial_cpu_ms_per_mpx);
    out.list("calib_ms", calib_ms);
    out.list("gen_lag_ms", gen_lag_ms);
    out.list("submit_us", submit_us);
    out.list("expose_us", expose_us);
    out.num("attempted", attempted);
    out.num("failed", failed);
    out.num("modeled_us_per_frame", modeled_us_per_frame);
    out.num("slo_ms", kSloMs);
    out.obj("service", service);
  }
};

void calibrate(Measured& m) {
  for (int i = 0; i < 3; ++i) {
    m.calib_ms.push_back(calibration_ms());
  }
}

std::mt19937_64 rng_for(const Run& run, std::uint64_t stream) {
  return std::mt19937_64(run.seed * 0x9E3779B97F4A7C15ULL + stream);
}

/// Paces the trials of a closed loop or of the bursts: another trial is
/// due until run.seconds have passed since the first (and at least
/// kMinTrials have run). Between trials it takes the set-up samples whose
/// turn has come, one per run.seconds / kSetups, and after the last trial
/// any still missing.
class Pacer {
 public:
  Pacer(Run& run, SetupSampler& setup, Measured& m)
      : run_(run), setup_(setup), m_(m), start_(Clock::now()) {}

  bool next_trial(int trials_done) {
    const double elapsed = ms_between(start_, Clock::now()) * 1e-3;
    const bool more = trials_done < kMinTrials || elapsed < run_.seconds;
    const auto due = [&] {
      const auto taken = static_cast<double>(m_.setup_s.size());
      return taken < kSetups && (!more || taken * run_.seconds / kSetups <=
                                              elapsed);
    };
    while (due()) {
      m_.setup_s.push_back(setup_.sample(run_));
    }
    return more;
  }

 private:
  Run& run_;
  SetupSampler& setup_;
  Measured& m_;
  Clock::time_point start_;
};

// --- closed loop, one caller (gpu_direct, cpu_direct) -----------------------

template <typename Call>
void closed_loop(Run& run, const std::vector<Frame>& pool, int warmup,
                 SetupSampler& setup, Tracer& tracer, const char* span,
                 Measured& m, Call call) {
  calibrate(m);
  std::uint64_t req = 0;
  // Wall ms, process CPU ms and modeled us of one call; the digest check
  // after it is outside all three.
  const auto one = [&](const Frame& frame) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    sharp::PipelineResult r = call(frame);
    const auto t1 = Clock::now();
    const double cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    tracer.add(span, t0, t1, ++req);
    run.check(frame, false, r.output);
    return std::array{ms_between(t0, t1), cpu_ms, r.total_modeled_us};
  };
  for (int i = 0; i < warmup; ++i) {
    (void)one(pool[static_cast<std::size_t>(i) % pool.size()]);
  }
  double modeled = 0.0;
  std::size_t next = 0;
  CpuRotation rotation;
  Pacer pacer(run, setup, m);
  for (int t = 0; pacer.next_trial(t); ++t) {
    rotation.pin(0, t);
    double busy_ms = 0.0;
    double cpu_ms = 0.0;
    double mpx = 0.0;
    for (int i = 0; i < kPerTrial; ++i) {
      const Frame& frame = pool[next++ % pool.size()];
      const auto [wall, cpu, us] = one(frame);
      m.latency_ms.push_back(wall);
      busy_ms += wall;
      cpu_ms += cpu;
      modeled += us;
      mpx += frame.mpx();
    }
    m.trial_mpx_s.push_back(mpx / (busy_ms * 1e-3));
    m.trial_cpu_ms_per_mpx.push_back(cpu_ms / mpx);
  }
  m.attempted = static_cast<double>(m.latency_ms.size());
  m.modeled_us_per_frame = modeled / m.attempted;
}

void prepare_gpu_direct(Run& run, Pools& pools, OraclePairs& pairs) {
  pools.push_back(make_pool(512, 16, run.seed));
  for (const Frame& f : pools[0]) {
    pairs.emplace_back(&f, false);
  }
}

// Exactly what sharp::sharpen() does for Backend::kGpu: a fresh pipeline
// (and inside run(), a fresh context, pool and LUT) per call.
sharp::PipelineResult gpu_call(const Frame& f) {
  return sharp::GpuPipeline{}.run(f.image);
}

sharp::PipelineResult cpu_call(const Frame& f) {
  return sharp::CpuPipeline{}.run(f.image);
}

template <sharp::PipelineResult (*Call)(const Frame&)>
SetupResult setup_direct(const Frame& first) {
  const auto t0 = Clock::now();
  sharp::PipelineResult r = Call(first);
  return {ms_between(t0, Clock::now()) * 1e-3, std::move(r.output)};
}

void measure_gpu_direct(Run& run, const Pools& pools, SetupSampler& setup,
                        Tracer& tracer, Record& out) {
  Measured m;
  closed_loop(run, pools[0], 20, setup, tracer, "gpu_pipeline.run", m,
              gpu_call);
  m.write(out);
}

void prepare_cpu_direct(Run& run, Pools& pools, OraclePairs& pairs) {
  pools.push_back(make_pool(2048, 4, run.seed));
  for (const Frame& f : pools[0]) {
    pairs.emplace_back(&f, false);
  }
}

void measure_cpu_direct(Run& run, const Pools& pools, SetupSampler& setup,
                        Tracer& tracer, Record& out) {
  Measured m;
  closed_loop(run, pools[0], 50, setup, tracer, "cpu_pipeline.run", m,
              cpu_call);
  m.write(out);
}

// --- service workloads ---------------------------------------------------------

sharp::ServiceConfig open_config() {
  sharp::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  cfg.backpressure = sharp::BackpressurePolicy::kReject;
  return cfg;
}

/// The batching knobs come from the environment run.py sets.
sharp::ServiceConfig burst_config() {
  sharp::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  return cfg;
}

template <sharp::ServiceConfig (*Config)()>
SetupResult setup_service(const Frame& first) {
  ImageU8 copy = first.image;
  const auto t0 = Clock::now();
  sharp::SharpenService svc(Config());
  sharp::ServiceResponse r = svc.submit(std::move(copy)).get();
  const double seconds = ms_between(t0, Clock::now()) * 1e-3;
  if (!r.ok()) {
    throw std::runtime_error(std::string("set-up request ") +
                             sharp::service::to_string(r.outcome));
  }
  return {seconds, std::move(r.result.output)};
}

/// The workload's own service, after one checked request.
struct Started {
  std::unique_ptr<sharp::SharpenService> svc;
  /// Ids of the threads the service started: its workers.
  std::vector<int> workers;
};

Started start_service(Run& run, const sharp::ServiceConfig& cfg,
                      const Frame& first) {
  std::vector<int> before = thread_ids();
  Started s{std::make_unique<sharp::SharpenService>(cfg), {}};
  sharp::ServiceResponse r = s.svc->submit(ImageU8(first.image)).get();
  if (r.ok()) {
    run.check(first, false, r.result.output);
  } else {
    run.checker.error(std::string("first request ") +
                      sharp::service::to_string(r.outcome));
  }
  std::ranges::sort(before);
  for (const int tid : thread_ids()) {
    if (!std::ranges::binary_search(before, tid)) {
      s.workers.push_back(tid);
    }
  }
  return s;
}

/// Moves worker i to the (step + i)-th allowed CPU.
void rotate(CpuRotation& rotation, const std::vector<int>& workers,
            int step) {
  for (std::size_t i = 0; i < workers.size(); ++i) {
    rotation.pin(workers[i], step + static_cast<int>(i));
  }
}

void write_service(const sharp::SharpenService& svc, Measured& m) {
  const sharp::ServiceStats s = svc.stats();
  Record& r = m.service;
  r.num("completed", static_cast<double>(s.completed));
  r.num("rejected", static_cast<double>(s.rejected));
  r.num("expired", static_cast<double>(s.expired));
  r.num("queue_depth_hwm", static_cast<double>(s.queue_depth_hwm));
  r.num("batches", static_cast<double>(s.batches));
  r.num("avg_batch_size", s.avg_batch_size);
  r.num("busy_us", s.busy_us);
  r.num("p50_latency_us", s.p50_latency_us);
  r.num("p95_latency_us", s.p95_latency_us);
  r.str("registry", svc.registry().expose_text());
}

/// One request of a service workload.
struct Request {
  const Frame* frame = nullptr;
  bool strong = false;
  int window = 0;  ///< svc_open_mixed: window of phase lo; -1: phase hi
  double due_ms = 0.0;
};

/// Exact mix shares in seeded order: the seed changes which frame comes
/// when, never how many of each. The last pool (the largest frames) is
/// spread evenly, one frame at a seeded position in each stretch of
/// n/count, so large frames do not pile up by chance and the tail
/// measures the service rather than the draw; the other sizes are
/// shuffled into the gaps.
template <std::size_t N>
std::vector<const Frame*> mixed(const Pools& pools,
                                const std::array<double, N>& shares, int n,
                                std::mt19937_64& rng) {
  const auto pick = [&](std::size_t c) {
    return &pools[c][rng() % pools[c].size()];
  };
  std::vector<const Frame*> rest;
  for (std::size_t c = 0; c + 1 < N; ++c) {
    const auto count = std::lround(shares[c] * n);
    for (long i = 0; i < count; ++i) {
      rest.push_back(pick(c));
    }
  }
  std::shuffle(rest.begin(), rest.end(), rng);
  const int large = n - static_cast<int>(rest.size());
  std::vector<const Frame*> out(static_cast<std::size_t>(n), nullptr);
  for (int i = 0; i < large; ++i) {
    const int lo = i * n / large;
    const int hi = (i + 1) * n / large;
    out[static_cast<std::size_t>(lo) + rng() % static_cast<unsigned>(hi - lo)] =
        pick(N - 1);
  }
  auto next = rest.begin();
  for (const Frame*& f : out) {
    if (f == nullptr) {
      f = *next++;
    }
  }
  return out;
}

void prepare_open(Run& run, Pools& pools, OraclePairs& pairs) {
  pools.push_back(make_pool(256, 8, run.seed));
  pools.push_back(make_pool(512, 8, run.seed));
  pools.push_back(make_pool(1024, 4, run.seed));
  for (const auto& pool : pools) {
    for (const Frame& f : pool) {
      pairs.emplace_back(&f, false);
      pairs.emplace_back(&f, true);
    }
  }
}

/// Phase lo (80% of the time at 25 req/s, one block per window) then
/// phase hi (20% at 50 req/s, one block). Every block has exactly the
/// 40/55/5% 256²/512²/1024² mix and 10% strong params, in seeded order,
/// and Poisson arrivals rescaled to span exactly count/rate, so the seed
/// moves when requests come, never how many or how much work.
std::vector<Request> open_schedule(const Run& run, const Pools& pools) {
  std::mt19937_64 rng = rng_for(run, 1);
  std::vector<Request> reqs;
  double due = 50.0;  // first arrival 50 ms after the phase clock starts
  const auto block = [&](double rate, int n, int window) {
    const std::vector<const Frame*> frames =
        mixed(pools, std::array{0.40, 0.55, 0.05}, n, rng);
    std::vector<bool> strong(static_cast<std::size_t>(n), false);
    std::fill_n(strong.begin(), std::lround(0.1 * n), true);
    std::shuffle(strong.begin(), strong.end(), rng);
    std::exponential_distribution<double> exp1(1.0);
    std::vector<double> gaps(static_cast<std::size_t>(n));
    double total = 0.0;
    for (double& g : gaps) {
      g = exp1(rng);
      total += g;
    }
    const double scale = n / rate * 1e3 / total;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      reqs.push_back({frames[i], strong[i], window, due});
      due += gaps[i] * scale;
    }
  };
  // The minimum counts keep the percentiles supported at short --seconds.
  const int windows = std::max(
      kMinTrials,
      static_cast<int>(std::lround(25.0 * 0.8 * run.seconds / kPerTrial)));
  for (int w = 0; w < windows; ++w) {
    block(25.0, kPerTrial, w);
  }
  block(50.0,
        std::max(kMinHi,
                 static_cast<int>(std::lround(50.0 * 0.2 * run.seconds))),
        -1);
  return reqs;
}

void measure_open(Run& run, const Pools& pools, SetupSampler& setup,
                  Tracer& tracer, Record& out) {
  Measured m;
  calibrate(m);
  // Set-up samples cannot run beside the schedule without competing with
  // it, so half are taken before it and half after.
  const auto take_setups = [&] {
    for (int i = 0; i < kSetups / 2; ++i) {
      m.setup_s.push_back(setup.sample(run));
    }
  };
  take_setups();
  Started started = start_service(run, open_config(), pools[1][0]);
  auto& svc = started.svc;
  CpuRotation rotation;
  const std::vector<Request> reqs = open_schedule(run, pools);
  const auto windows = static_cast<std::size_t>(
      std::ranges::max(reqs, {}, &Request::window).window + 1);

  struct InFlight {
    const Request* req;
    std::uint64_t id;
    std::future<sharp::ServiceResponse> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> handoff;
  bool gen_done = false;
  double submit_failed = 0.0;  ///< generator-owned
  std::vector<double> window_end_ms(windows, 0.0);
  std::vector<double> window_mpx(windows, 0.0);
  /// Process CPU time when each window's first request was due, then when
  /// phase hi's was (generator-owned until the join).
  std::vector<double> window_cpu_s(windows + 1, 0.0);
  double modeled = 0.0;

  const auto clock0 = Clock::now();
  const auto at = [&](double ms) {
    return clock0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
  };

  // Generator: submits each request at its due time, whatever the state
  // of earlier requests (open loop).
  std::thread generator([&] {
    std::uint64_t id = 0;
    // Blocks 0..windows-1 are the windows of phase lo, block `windows` is
    // phase hi.
    std::size_t block = windows + 1;
    for (const Request& r : reqs) {
      ImageU8 copy = r.frame->image;
      std::this_thread::sleep_until(at(r.due_ms));
      const std::size_t b =
          r.window < 0 ? windows : static_cast<std::size_t>(r.window);
      if (b != block) {
        block = b;
        try {
          rotate(rotation, started.workers, static_cast<int>(block));
        } catch (const std::exception& e) {
          run.checker.error(std::string("rotate: ") + e.what());
        }
        window_cpu_s[block] = process_cpu_s();
      }
      const auto t0 = Clock::now();
      m.gen_lag_ms.push_back(ms_between(at(r.due_ms), t0));
      InFlight f{&r, ++id, {}};
      try {
        f.fut = svc->submit(std::move(copy), params_for(r.strong),
                            {.deadline = std::chrono::seconds(1)});
      } catch (const std::exception& e) {
        run.checker.error(std::string("submit: ") + e.what());
        submit_failed += 1.0;
        continue;
      }
      const auto t1 = Clock::now();
      m.submit_us.push_back(ms_between(t0, t1) * 1e3);
      tracer.add("service.submit", t0, t1, id);
      {
        std::lock_guard<std::mutex> lk(mu);
        handoff.push_back(std::move(f));
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lk(mu);
    gen_done = true;
    cv.notify_one();
  });

  // Collector: polls every outstanding future, so a request is timed when
  // it completes even if an older one is still running on the other
  // worker; scrapes the registry once per second beside the workers.
  std::thread collector([&] {
    std::vector<InFlight> live;
    auto next_scrape = Clock::now() + std::chrono::seconds(1);
    while (true) {
      bool done = false;
      {
        std::unique_lock<std::mutex> lk(mu);
        if (live.empty()) {
          cv.wait_for(lk, std::chrono::milliseconds(100),
                      [&] { return !handoff.empty() || gen_done; });
        }
        while (!handoff.empty()) {
          live.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        done = gen_done;
      }
      if (live.empty()) {
        if (done) {
          break;
        }
        continue;
      }
      live.front().fut.wait_for(std::chrono::microseconds(200));
      const auto now = Clock::now();
      for (auto it = live.begin(); it != live.end();) {
        if (it->fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const Request& r = *it->req;
        double lat = ms_between(at(r.due_ms), now);
        tracer.add("request", at(r.due_ms), now, it->id);
        try {
          sharp::ServiceResponse resp = it->fut.get();
          if (resp.ok()) {
            run.check(*r.frame, r.strong, resp.result.output);
            modeled += resp.result.total_modeled_us;
            if (r.window >= 0) {
              const auto w = static_cast<std::size_t>(r.window);
              window_mpx[w] += r.frame->mpx();
              window_end_ms[w] =
                  std::max(window_end_ms[w], ms_between(clock0, now));
            }
          } else {  // rejected or expired: a failure, never a latency
            m.failed += 1.0;
            lat = std::numeric_limits<double>::infinity();
          }
        } catch (const std::exception& e) {
          run.checker.error(std::string("request: ") + e.what());
          m.failed += 1.0;
          lat = std::numeric_limits<double>::infinity();
        }
        (r.window >= 0 ? m.latency_ms : m.latency_hi_ms).push_back(lat);
        it = live.erase(it);
      }
      if (now >= next_scrape) {
        const auto t0 = Clock::now();
        const std::string text = svc->registry().expose_text();
        m.expose_us.push_back(ms_between(t0, Clock::now()) * 1e3);
        next_scrape += std::chrono::seconds(1);
      }
    }
  });
  generator.join();
  collector.join();
  m.failed += submit_failed;
  m.attempted = static_cast<double>(reqs.size());
  const double ok = m.attempted - m.failed;
  m.modeled_us_per_frame = ok > 0.0 ? modeled / ok : 0.0;
  // Goodput of each window of phase lo: its completed Mpx over the time
  // from its first due time to its last completion.
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = std::find_if(reqs.begin(), reqs.end(), [&](auto& r) {
      return r.window == static_cast<int>(w);
    });
    m.trial_mpx_s.push_back(window_mpx[w] /
                            ((window_end_ms[w] - first->due_ms) * 1e-3));
    // Work lags its arrivals by about one latency; over a 0.8-s window
    // that shift is small.
    m.trial_cpu_ms_per_mpx.push_back(
        (window_cpu_s[w + 1] - window_cpu_s[w]) * 1e3 / window_mpx[w]);
  }
  write_service(*svc, m);
  take_setups();
  m.write(out);
}

void prepare_burst(Run& run, Pools& pools, OraclePairs& pairs) {
  pools.push_back(make_pool(512, 16, run.seed));
  pools.push_back(make_pool(1024, 8, run.seed));
  for (const auto& pool : pools) {
    for (const Frame& f : pool) {
      pairs.emplace_back(&f, false);
    }
  }
}

/// Bursts of kPerTrial frames (80% 512², 20% 1024², interleaved by the
/// seed), each submitted at once and then awaited; each burst is a trial.
void measure_burst(Run& run, const Pools& pools, SetupSampler& setup,
                   Tracer& tracer, Record& out) {
  Measured m;
  calibrate(m);
  Started started = start_service(run, burst_config(), pools[0][0]);
  auto& svc = started.svc;
  CpuRotation rotation;
  std::mt19937_64 rng = rng_for(run, 2);
  std::uint64_t id = 0;
  Pacer pacer(run, setup, m);
  for (int b = 0; pacer.next_trial(b); ++b) {
    rotate(rotation, started.workers, b);
    const std::vector<const Frame*> frames =
        mixed(pools, std::array{0.8, 0.2}, kPerTrial, rng);
    std::vector<ImageU8> copies;
    copies.reserve(frames.size());
    for (const Frame* f : frames) {
      copies.push_back(f->image);
    }
    std::vector<std::future<sharp::ServiceResponse>> futs;
    futs.reserve(frames.size());
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    for (ImageU8& copy : copies) {
      const auto s0 = Clock::now();
      futs.push_back(svc->submit(std::move(copy)));
      const auto s1 = Clock::now();
      m.submit_us.push_back(ms_between(s0, s1) * 1e3);
      tracer.add("service.submit", s0, s1, ++id);
    }
    // One worker completes in FIFO order, so awaiting in order times
    // every response when it lands.
    std::vector<sharp::ServiceResponse> resps;
    resps.reserve(futs.size());
    for (auto& fut : futs) {
      try {
        resps.push_back(fut.get());
      } catch (const std::exception& e) {
        run.checker.error(std::string("request: ") + e.what());
        resps.emplace_back();
        resps.back().outcome = sharp::RequestOutcome::kRejected;
      }
      const auto now = Clock::now();
      const bool ok = resps.back().ok();
      m.latency_ms.push_back(ok ? ms_between(t0, now)
                                : std::numeric_limits<double>::infinity());
      tracer.add("request", t0, now, id - futs.size() + resps.size());
    }
    const double burst_ms = ms_between(t0, Clock::now());
    const double cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    double mpx = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (resps[i].ok()) {
        run.check(*frames[i], false, resps[i].result.output);
        mpx += frames[i]->mpx();
      } else {
        m.failed += 1.0;
      }
    }
    m.attempted += kPerTrial;
    m.trial_mpx_s.push_back(mpx / (burst_ms * 1e-3));
    m.trial_cpu_ms_per_mpx.push_back(cpu_ms / mpx);
    const auto e0 = Clock::now();
    const std::string text = svc->registry().expose_text();
    m.expose_us.push_back(ms_between(e0, Clock::now()) * 1e3);
  }
  const sharp::ServiceStats s = svc->stats();
  m.modeled_us_per_frame =
      s.completed > 0 ? s.busy_us / static_cast<double>(s.completed) : 0.0;
  write_service(*svc, m);
  m.write(out);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"gpu_direct", prepare_gpu_direct, setup_direct<gpu_call>, 0,
       measure_gpu_direct},
      {"cpu_direct", prepare_cpu_direct, setup_direct<cpu_call>, 0,
       measure_cpu_direct},
      {"svc_open_mixed", prepare_open, setup_service<open_config>, 1,
       measure_open},
      {"svc_burst", prepare_burst, setup_service<burst_config>, 0,
       measure_burst},
  };
  return kAll;
}

}  // namespace e2e
