// e2e_bench: one workload of the end-to-end benchmark in one process.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Prints one JSON object of raw measurements on stdout for run.py, which
// computes and checks every metric. Exit code 0 unless something threw;
// a wrong output is reported in the JSON (run.py turns it into a failed
// run), never silently dropped.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "sharpen/cpu_pipeline.hpp"
#include "sharpen/simd_level.hpp"

namespace {

using e2e::OraclePairs;

/// The correctness oracle: the unfused pipeline on the scalar row cores.
std::string oracle_lines(const OraclePairs& pairs) {
  sharp::PipelineOptions options;
  options.cpu_fuse = false;
  options.cpu_simd_level = sharp::SimdLevel::kScalar;
  const sharp::CpuPipeline oracle(simcl::intel_core_i5_3470(), options);
  std::set<std::string> done;
  std::string text;
  for (const auto& [frame, strong] : pairs) {
    const std::string key = e2e::oracle_key(*frame, strong);
    if (!done.insert(key).second) {
      continue;
    }
    const sharp::PipelineResult r =
        oracle.run(frame->image, e2e::params_for(strong));
    if (r.simd_level != sharp::SimdLevel::kScalar) {
      throw std::runtime_error("oracle did not run on the scalar cores");
    }
    text += key + " " + e2e::hex_digest(e2e::digest(r.output)) + "\n";
  }
  return text;
}

/// Oracle digests of every pair, computed in a child process before any
/// thread exists and outside every timed region, so neither its time nor
/// its memory shows in the workload's numbers.
std::map<std::string, std::string> oracle_digests(const OraclePairs& pairs) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe() failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::string text = oracle_lines(pairs);
      code = e2e::write_all(fds[1], text.data(), text.size()) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oracle: %s\n", e.what());
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("oracle process failed");
  }
  std::map<std::string, std::string> digests;
  std::istringstream lines(text);
  std::string key;
  std::string hex;
  while (lines >> key >> hex) {
    digests[key] = hex;
  }
  return digests;
}

int usage() {
  std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    return usage();
  }
  const e2e::Workload* wl = nullptr;
  for (const e2e::Workload& w : e2e::workloads()) {
    if (w.name == args["--workload"]) {
      wl = &w;
    }
  }
  if (wl == nullptr) {
    std::cerr << "e2e_bench: unknown workload " << args["--workload"] << "\n";
    return usage();
  }
  // A set-up helper that died must fail the run, not kill it silently.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    e2e::Run run;
    run.seed = std::stoull(args["--seed"]);
    run.seconds = std::stod(args["--seconds"]);
    const bool trace = args["--trace"] == "1";

    e2e::Pools pools;
    OraclePairs pairs;
    wl->prepare(run, pools, pairs);
    e2e::ReplayFrames replay;
    if (trace) {
      replay = e2e::make_replay_frames(run.seed);
      for (const auto* frames : {&replay.gpu, &replay.cpu}) {
        for (const e2e::Frame& f : *frames) {
          pairs.emplace_back(&f, false);
        }
      }
    }
    const auto oracle = oracle_digests(pairs);
    // Forked while the process is single-threaded and has not called the
    // pipeline yet, so each sample starts from a fresh library state.
    e2e::SetupSampler setup(wl->setup, pools[wl->setup_pool][0]);

    e2e::Record raw;
    raw.str("workload", wl->name);
    raw.num("seed", static_cast<double>(run.seed));
    raw.num("seconds", run.seconds);
    raw.str("simd_native", sharp::to_string(sharp::native_simd_level()));
    raw.num("nproc", std::thread::hardware_concurrency());

    e2e::Tracer untraced(false);
    e2e::Record main_pass;
    wl->measure(run, pools, setup, untraced, main_pass);
    raw.obj("main", main_pass);
    if (trace) {
      // The same workload again with benchmark spans on; the ratio of
      // per-request medians is the tracing overhead.
      e2e::Tracer tracer(true);
      e2e::Record traced;
      wl->measure(run, pools, setup, tracer, traced);
      raw.obj("traced", traced);
      e2e::Record layers;
      replay_layers(run, replay, tracer, layers);
      raw.obj("layers", layers);
      if (args.count("--trace-out") &&
          !tracer.write_chrome(args["--trace-out"])) {
        throw std::runtime_error("cannot write " + args["--trace-out"]);
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    raw.num("peak_rss_kb", static_cast<double>(ru.ru_maxrss));
    e2e::Record oracle_rec;
    for (const auto& [key, hex] : oracle) {
      oracle_rec.str(key, hex);
    }
    raw.obj("oracle", oracle_rec);
    run.checker.write(raw);
    std::cout << raw.text() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
