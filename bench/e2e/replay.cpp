// Per-layer replays for the traced run: each layer's public functions are
// called directly and timed from the benchmark side, on the frames the
// direct workloads use. Nothing here adds spans inside the library.
#include <array>
#include <map>
#include <stdexcept>
#include <string>

#include "e2e.hpp"
#include "sharpen/cpu_pipeline.hpp"
#include "sharpen/gpu/launch_plan.hpp"
#include "sharpen/pipeline_result.hpp"
#include "sharpen/service/buffer_pool.hpp"
#include "sharpen/service/frame_runner.hpp"
#include "sharpen/stages.hpp"
#include "simcl/contract.hpp"
#include "simcl/device.hpp"
#include "simcl/queue.hpp"

namespace e2e {
namespace {

constexpr int kGpuReps = 12;
constexpr int kSimclReps = 5;
constexpr int kCpuReps = 4;

/// Per-layer metric name -> one sample per replayed frame.
using Samples = std::map<std::string, std::vector<double>>;

double us_between(Clock::time_point a, Clock::time_point b) {
  return ms_between(a, b) * 1e3;
}

/// Modeled-time bucket of a queue command.
const char* kind_bucket(simcl::CommandKind kind) {
  using simcl::CommandKind;
  switch (kind) {
    case CommandKind::kWrite:
    case CommandKind::kWriteRect:
    case CommandKind::kUnmap:
      return "h2d";
    case CommandKind::kRead:
    case CommandKind::kMap:
      return "d2h";
    case CommandKind::kKernel:
    case CommandKind::kCopy:
    case CommandKind::kFill:
      return "kernel";
    case CommandKind::kHostWork:
      return "host";
    case CommandKind::kFinish:
    case CommandKind::kMarker:
      return "stall";
  }
  return "stall";
}

constexpr std::array<const char*, 10> kGpuStages = {
    sharp::stage::kDataInit, sharp::stage::kPadding, sharp::stage::kDownscale,
    sharp::stage::kBorder,   sharp::stage::kCenter,  sharp::stage::kSobel,
    sharp::stage::kReduction, sharp::stage::kSharpness,
    sharp::stage::kDataOut,  sharp::stage::kSync};

/// Stages that can launch kernels (the simcl.kernel_wall_us.* names).
constexpr std::array<const char*, 6> kKernelStages = {
    sharp::stage::kDownscale, sharp::stage::kBorder,
    sharp::stage::kCenter,    sharp::stage::kSobel,
    sharp::stage::kReduction, sharp::stage::kSharpness};

/// GpuPipeline::run() taken apart into its public pieces (Context +
/// CommandQueue + BufferPool + FrameRunner, begin_frame, finish_frame),
/// with the live command log giving the modeled and simulator counts.
void replay_frame_runner(Run& run, const std::vector<Frame>& frames,
                         Tracer& tracer, Samples& s) {
  const sharp::PipelineOptions options = sharp::PipelineOptions::optimized();
  for (int rep = 0; rep < kGpuReps; ++rep) {
    const Frame& frame = frames[static_cast<std::size_t>(rep) % frames.size()];
    const auto t0 = Clock::now();
    simcl::Context ctx(simcl::amd_firepro_w8000(),
                       simcl::intel_core_i5_3470(), 1);
    simcl::CommandQueue q(ctx);
    sharp::gpu::BufferPool pool(ctx);
    sharp::service::FrameRunner runner(ctx, pool, q, q, options);
    const auto t1 = Clock::now();
    const auto ticket = runner.begin_frame(frame.image, true);
    const auto t2 = Clock::now();
    const sharp::PipelineResult result = runner.finish_frame(ticket, {});
    const auto t3 = Clock::now();
    const auto req = static_cast<std::uint64_t>(rep + 1);
    tracer.add("replay.gpu_pipeline.run", t0, t3, req);
    tracer.add("frame_runner.setup", t0, t1, req);
    tracer.add("frame_runner.begin_frame", t1, t2, req);
    tracer.add("frame_runner.finish_frame", t2, t3, req);
    run.check(frame, false, result.output);

    s["frame_runner.setup_us"].push_back(us_between(t0, t1));
    s["frame_runner.begin_us"].push_back(us_between(t1, t2));
    s["frame_runner.finish_us"].push_back(us_between(t2, t3));
    s["frame_runner.commands"].push_back(
        static_cast<double>(q.events().size()));
    std::map<std::string, double> by_kind = {
        {"h2d", 0.0}, {"d2h", 0.0}, {"kernel", 0.0}, {"host", 0.0},
        {"stall", 0.0}};
    simcl::KernelStats ks;
    double launches = 0.0;
    for (const simcl::Event& ev : q.events()) {
      by_kind[kind_bucket(ev.kind)] += ev.duration_us();
      if (ev.kind == simcl::CommandKind::kKernel) {
        ks += ev.stats;
        launches += 1.0;
      }
    }
    for (const auto& [kind, us] : by_kind) {
      s["frame_runner.modeled_" + kind + "_us"].push_back(us);
    }
    for (const char* stage : kGpuStages) {
      s[std::string("gpu.modeled_us.") + stage].push_back(
          result.stage_us(stage));
    }
    const auto count = [&](const char* name, std::uint64_t v) {
      s[std::string("simcl.") + name].push_back(static_cast<double>(v));
    };
    s["simcl.launches"].push_back(launches);
    count("work_items", ks.work_items);
    count("work_groups", ks.work_groups);
    count("barrier_events", ks.barrier_events);
    count("alu_ops", ks.alu_ops);
    count("global_load_bytes", ks.global_load_bytes);
    count("global_store_bytes", ks.global_store_bytes);
    count("l1_miss_lines", ks.l1_miss_lines);
    count("local_bytes", ks.local_bytes);
    count("warp_fallback_launches", ctx.engine().warp_fallback_launches());
    count("contract_violation_launches",
          ctx.engine().contract_violation_launches());
  }
}

/// The 512² launch plan of the default options, each kernel run straight
/// on the engine with the analyzer off, and the analyzer timed on its own
/// (Engine::run pays it on every live launch under SIMCL_CONTRACT=warn).
void replay_simcl(Tracer& tracer, Samples& s) {
  simcl::Context ctx(simcl::amd_firepro_w8000(), simcl::intel_core_i5_3470(),
                     1);
  ctx.engine().set_contract_mode(simcl::contract::Mode::kOff);
  const sharp::gpu::LaunchPlan plan = sharp::gpu::build_launch_plan(
      ctx, sharp::PipelineOptions::optimized(), 512, 512);
  for (int rep = 0; rep < kSimclReps; ++rep) {
    std::map<std::string, double> wall;
    for (const char* stage : kKernelStages) {
      wall[stage] = 0.0;
    }
    double analyze_us = 0.0;
    double total_us = 0.0;
    double items = 0.0;
    for (const sharp::gpu::PlannedLaunch& launch : plan.launches()) {
      const auto t0 = Clock::now();
      const simcl::contract::Report report =
          simcl::contract::analyze(launch.kernel, launch.cfg, ctx.device());
      const auto t1 = Clock::now();
      const simcl::KernelStats ks = ctx.engine().run(launch.kernel, launch.cfg);
      const auto t2 = Clock::now();
      tracer.add("simcl.contract_analyze", t0, t1, 0);
      tracer.add("simcl.engine_run." + launch.stage, t1, t2, 0);
      if (!report.ok()) {
        throw std::runtime_error("launch plan fails its contract: " +
                                 report.to_string());
      }
      analyze_us += us_between(t0, t1);
      wall[launch.stage] += us_between(t1, t2);
      total_us += us_between(t1, t2);
      items += static_cast<double>(ks.work_items);
    }
    for (const auto& [stage, us] : wall) {
      s["simcl.kernel_wall_us." + stage].push_back(us);
    }
    s["simcl.contract_analyze_us"].push_back(analyze_us);
    s["simcl.ns_per_work_item"].push_back(total_us * 1e3 / items);
  }
}

/// The public sharp::stages::* one by one, then the fused CpuPipeline on
/// the same frame (cpu.fusion_ratio = sum of stages / fused run).
void replay_cpu(Run& run, const std::vector<Frame>& frames, Tracer& tracer,
                Samples& s) {
  namespace st = sharp::stages;
  const sharp::SharpenParams params;
  for (int rep = 0; rep < kCpuReps; ++rep) {
    const Frame& frame = frames[static_cast<std::size_t>(rep) % frames.size()];
    const sharp::img::ImageU8& in = frame.image;
    const auto req = static_cast<std::uint64_t>(rep + 1);
    auto last = Clock::now();
    const auto lap = [&](const char* stage) {
      const auto now = Clock::now();
      tracer.add(std::string("cpu.") + stage, last, now, req);
      s[std::string("cpu.stage_us.") + stage].push_back(us_between(last, now));
      last = now;
    };
    const auto down = st::downscale(in);
    lap(sharp::stage::kDownscale);
    const auto up = st::upscale(down, in.width(), in.height());
    lap(sharp::stage::kUpscale);
    const auto error = st::difference(in, up);
    lap(sharp::stage::kPError);
    const auto edge = st::sobel(in);
    lap(sharp::stage::kSobel);
    const float inv_mean = st::inverse_mean_edge(
        st::reduce_sum(edge), static_cast<std::int64_t>(in.pixel_count()),
        params);
    lap(sharp::stage::kReduction);
    const auto prelim = st::preliminary(up, error, edge, inv_mean, params);
    lap(sharp::stage::kStrength);
    const auto out = st::overshoot_control(in, prelim, params);
    lap(sharp::stage::kOvershoot);
    run.check(frame, false, out);

    const auto t0 = Clock::now();
    const sharp::PipelineResult fused = sharp::CpuPipeline{}.run(in, params);
    const auto t1 = Clock::now();
    tracer.add("cpu_pipeline.run", t0, t1, req);
    s["cpu.run_us"].push_back(us_between(t0, t1));
    run.check(frame, false, fused.output);
  }
}

}  // namespace

ReplayFrames make_replay_frames(std::uint64_t seed) {
  return {make_pool(512, 4, seed), make_pool(2048, 2, seed)};
}

void replay_layers(Run& run, const ReplayFrames& frames, Tracer& tracer,
                   Record& layers) {
  Samples s;
  replay_frame_runner(run, frames.gpu, tracer, s);
  replay_simcl(tracer, s);
  replay_cpu(run, frames.cpu, tracer, s);
  for (const auto& [name, samples] : s) {
    layers.list(name, samples);
  }
}

}  // namespace e2e
