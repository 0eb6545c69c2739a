// Per-layer replays of traced runs: the benchmark calls the public
// functions of the lower layers on the workload's own inputs (seeded probe
// inputs where a workload has none of that kind) and reports their times.
#include <algorithm>
#include <cmath>

#include "core/compressive_acquisitor.hpp"
#include "core/faults.hpp"
#include "optics/arm.hpp"
#include "sensor/bayer.hpp"
#include "sensor/pixel_array.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/synth_mnist.hpp"

namespace perfbench {

namespace {

using lt::tensor::Tensor;

constexpr std::size_t kProbeScenes = 16;
constexpr std::size_t kLenetB1Runs = 64;
constexpr std::size_t kLenetB8Runs = 16;
constexpr std::size_t kVgg9B1Runs = 8;
constexpr std::size_t kVgg9B8Runs = 4;
constexpr std::size_t kPhysicalRuns = 3;
constexpr std::size_t kArmCalls = 2000;
constexpr std::size_t kArmBlock = 100;

/// One replayed acquisition: the steps of LightatorSystem::acquire called
/// one by one, each under its own span.
struct Acquired {
  double capture = 0.0, demosaic = 0.0, ca = 0.0;
  Tensor frame;
};

Acquired replay_acquire(const lt::core::LightatorSystem& sys,
                        const lt::sensor::Image& scene,
                        const std::optional<lt::core::CaOptions>& ca,
                        std::uint64_t frame_seed, Tracer& rec,
                        std::uint64_t id) {
  Acquired out;
  lt::util::Rng noise(frame_seed);
  lt::sensor::PixelArrayParams params = sys.config().sensor;
  params.rows = scene.height();
  params.cols = scene.width();

  auto t0 = Clock::now();
  lt::sensor::PixelArray array(params);
  array.capture(scene, &noise);
  const lt::sensor::CodeFrame codes = array.read_codes(&noise);
  auto t1 = Clock::now();
  span(&rec, "sensor.capture", id, t0, t1);
  out.capture = since(t0, t1);

  t0 = Clock::now();
  lt::sensor::Image raw(codes.rows, codes.cols, 1);
  for (std::size_t y = 0; y < codes.rows; ++y) {
    for (std::size_t x = 0; x < codes.cols; ++x) {
      raw.at(y, x) = static_cast<float>(codes.at(y, x)) / 15.0f;
    }
  }
  lt::sensor::Image img = lt::sensor::bayer_demosaic(raw);
  t1 = Clock::now();
  span(&rec, "sensor.demosaic", id, t0, t1);
  out.demosaic = since(t0, t1);

  if (ca.has_value()) {
    t0 = Clock::now();
    const lt::core::CompressiveAcquisitor acquisitor(*ca, sys.config());
    img = acquisitor.apply(img);
    t1 = Clock::now();
    span(&rec, "ca.apply", id, t0, t1);
    out.ca = since(t0, t1);
  }
  out.frame = Tensor({1, img.channels(), img.height(), img.width()});
  for (std::size_t c = 0; c < img.channels(); ++c) {
    for (std::size_t y = 0; y < img.height(); ++y) {
      for (std::size_t x = 0; x < img.width(); ++x) {
        out.frame.at(0, c, y, x) = img.at(y, x, c);
      }
    }
  }
  return out;
}

double ms_median(const std::vector<double>& seconds) {
  return median(seconds) * 1e3;
}

/// core.<tag>.run_b1_ms / run_b8_ms and gemm.<tag>.w<i>.gmacs: forwards of
/// the workload's frames on one thread, GMAC/s from the per-layer stats of
/// the batch-of-8 forwards.
void replay_gemm(Report& r, Tracer& rec, const std::string& tag,
                 const lt::core::CompiledModel& model,
                 const std::vector<Tensor>& frames, std::size_t b1_runs,
                 std::size_t b8_runs) {
  lt::util::ThreadPool pool(1);
  lt::core::ExecutionContext ctx;
  ctx.pool = &pool;
  model.run(frames[0], ctx);  // warm the arena
  std::vector<double> b1;
  for (std::size_t i = 0; i < b1_runs; ++i) {
    const auto t0 = Clock::now();
    model.run(frames[i % frames.size()], ctx);
    const auto t1 = Clock::now();
    span(&rec, "core.run_b1", i, t0, t1);
    b1.push_back(since(t0, t1));
  }
  std::vector<const Tensor*> batch(8);
  ctx.collect_stats = true;
  std::vector<double> b8;
  for (std::size_t i = 0; i < b8_runs; ++i) {
    for (std::size_t j = 0; j < batch.size(); ++j) {
      batch[j] = &frames[(i * batch.size() + j) % frames.size()];
    }
    const auto t0 = Clock::now();
    model.run(batch, ctx);
    const auto t1 = Clock::now();
    span(&rec, "core.run_b8", i, t0, t1);
    b8.push_back(since(t0, t1));
  }
  r.metric("core." + tag + ".run_b1_ms", ms_median(b1), "ms");
  r.metric("core." + tag + ".run_b8_ms", ms_median(b8), "ms");
  for (const lt::core::LayerExecStats& s : ctx.stats) {
    r.metric("gemm." + tag + ".w" + std::to_string(s.layer_index) + ".gmacs",
             static_cast<double>(s.macs) * static_cast<double>(s.frames) /
                 s.wall_seconds / 1e9,
             "GMAC/s");
  }
}

/// physical.*: noisy faulted, noiseless faulted and noisy unfaulted single
/// frame forwards on one thread.
void replay_physical(Report& r, Tracer& rec,
                     const lt::core::LightatorSystem& sys,
                     const std::vector<Tensor>& frames, std::uint64_t seed) {
  lt::core::CompileOptions co;
  co.backend = "physical";
  const lt::core::CompiledModel model = sys.compile(lenet(), co);
  lt::util::ThreadPool pool(1);
  const lt::core::FaultSpec faults{0.01, 0.02, 0.05, seed};
  const auto timed = [&](const char* name, std::uint64_t noise_seed,
                         bool faulted, bool stats) {
    lt::core::ExecutionContext ctx;
    ctx.pool = &pool;
    ctx.noise_seed = noise_seed;
    if (faulted) ctx.faults = faults;
    ctx.collect_stats = stats;
    std::vector<double> t;
    for (std::size_t i = 0; i < kPhysicalRuns; ++i) {
      const auto t0 = Clock::now();
      model.run(frames[i % frames.size()], ctx);
      const auto t1 = Clock::now();
      span(&rec, name, i, t0, t1);
      t.push_back(since(t0, t1));
    }
    if (stats) {
      for (const lt::core::LayerExecStats& s : ctx.stats) {
        r.metric("physical.w" + std::to_string(s.layer_index) + ".ms",
                 s.wall_seconds / static_cast<double>(s.frames) * 1e3, "ms");
      }
    }
    return median(t);
  };
  const double noisy = timed("physical.run", seed, true, true);
  const double noiseless = timed("physical.run_noiseless", 0, true, false);
  const double unfaulted = timed("physical.run_unfaulted", seed, false, false);
  r.metric("physical.run_ms", noisy * 1e3, "ms");
  r.metric("physical.noise_share", 1.0 - noiseless / noisy, "ratio");
  r.metric("physical.fault_ms", (noisy - unfaulted) * 1e3, "ms");
}

/// optics.arm_mac_us: MrArm::compute_noisy on a 9-cell arm, median over
/// blocks of calls.
void measure_arm(Report& r, std::uint64_t seed) {
  lt::util::Rng rng(seed);
  lt::optics::MrArm arm(lt::optics::ArmParams{});
  std::vector<double> w(arm.num_cells());
  for (double& v : w) v = rng.uniform(-1.0, 1.0);
  arm.set_weights(w);
  std::vector<std::vector<int>> codes(kArmBlock,
                                      std::vector<int>(arm.num_cells()));
  for (auto& c : codes) {
    for (int& v : c) v = static_cast<int>(rng.uniform_index(16));
  }
  std::vector<double> blocks;
  double sink = 0.0;
  for (std::size_t b = 0; b < kArmCalls / kArmBlock; ++b) {
    const auto t0 = Clock::now();
    for (const auto& c : codes) sink += arm.compute_noisy(c, rng);
    blocks.push_back(since(t0, Clock::now()) / kArmBlock);
  }
  r.metric("optics.arm_mac_us", median(blocks) * 1e6, "us");
  r.check("optics.arm_finite", sink == sink);
}

}  // namespace

void report_compile(Report& r, const lt::core::LightatorSystem& sys,
                    const lt::nn::Network& net, const std::string& backend,
                    int repeats) {
  lt::core::CompileOptions co;
  co.backend = backend;
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    const lt::core::CompiledModel m = sys.compile(net, co);
    t.push_back(since(t0, Clock::now()));
  }
  r.metric("compiler.compile_ms", median(t) * 1e3, "ms");
}

void check_coverage(Report& r, const std::string& name,
                    const std::vector<double>& e2e,
                    const std::vector<double>& explained, double tolerance,
                    int cpu) {
  std::vector<double> ratio;
  for (std::size_t i = 0; i < e2e.size() && i < explained.size(); ++i) {
    if (e2e[i] > 0.0) ratio.push_back(explained[i] / e2e[i]);
  }
  if (ratio.empty()) {
    r.check(name, false, "no replayed calls");
    return;
  }
  const double m = median(ratio);
  r.check(name, std::abs(m - 1.0) <= tolerance,
          "median explained/e2e = " + std::to_string(m));
  r.info(name, "{\"ratio\": " + std::to_string(m) +
                   ", \"pairs\": " + std::to_string(ratio.size()) +
                   ", \"cpu\": " + std::to_string(cpu) + "}");
}

void report_layers(const Args& args, Report& r, Tracer& rec,
                   LayerInputs in) {
  const lt::core::LightatorSystem sys(lt::core::ArchConfig::defaults());
  const lt::core::CaOptions channel_ca{2, false, 4};
  if (in.scenes.empty() || in.vgg9_frames.empty()) {
    const auto scenes =
        make_scenes(kProbeScenes, 64, derive_seed(args.seed, 21));
    if (in.vgg9_frames.empty()) {
      in.vgg9_frames =
          acquire_all(sys, scenes, channel_ca, derive_seed(args.seed, 22));
    }
    if (in.scenes.empty()) {
      in.scenes = scenes;
      in.ca = channel_ca;
      in.sensor_seed = derive_seed(args.seed, 22);
    }
  }
  if (in.lenet_frames.empty()) {
    lt::workloads::SynthMnistOptions mo;
    mo.samples = kProbeScenes;
    mo.seed = derive_seed(args.seed, 23);
    const lt::nn::Dataset d = lt::workloads::make_synth_mnist(mo);
    for (std::size_t i = 0; i < d.size(); ++i) {
      in.lenet_frames.push_back(d.batch_images(i, 1));
    }
  }

  // Sensor and CA, per frame.
  std::vector<double> capture, demosaic, ca;
  bool same = true;
  for (std::size_t i = 0; i < std::min(in.scenes.size(), kProbeScenes); ++i) {
    const std::uint64_t frame_seed = lt::core::mix_seed(in.sensor_seed, 0, i);
    const auto t0 = Clock::now();
    const Acquired a =
        replay_acquire(sys, in.scenes[i], in.ca, frame_seed, rec, i);
    span(&rec, "replay.acquire", i, t0, Clock::now());
    capture.push_back(a.capture);
    demosaic.push_back(a.demosaic);
    ca.push_back(a.ca);
    lt::util::Rng noise(frame_seed);
    const Tensor want = sys.acquire(in.scenes[i], in.ca, &noise);
    same = same && same_bits({a.frame.data(), a.frame.size()},
                             {want.data(), want.size()});
  }
  r.metric("sensor.capture_ms", ms_median(capture), "ms");
  r.metric("sensor.demosaic_ms", ms_median(demosaic), "ms");
  r.metric("ca.apply_ms", ms_median(ca), "ms");
  r.check("replay.acquire_matches", same);

  const lt::core::CompileOptions co;
  replay_gemm(r, rec, "lenet", sys.compile(lenet(), co), in.lenet_frames,
              kLenetB1Runs, kLenetB8Runs);
  replay_gemm(r, rec, "vgg9", sys.compile(vgg9(), co), in.vgg9_frames,
              kVgg9B1Runs, kVgg9B8Runs);
  replay_physical(r, rec, sys, in.lenet_frames, derive_seed(args.seed, 24));
  measure_arm(r, derive_seed(args.seed, 25));
}

/// Traced acquisition + forward of one scene, used by capture_vgg9's
/// coverage check: returns the explained seconds (the replay span's time
/// minus its self time) and the replayed logits.
double replay_capture_call(const lt::core::LightatorSystem& sys,
                           const lt::sensor::Image& scene,
                           const lt::core::CaOptions& ca,
                           std::uint64_t sensor_seed,
                           const lt::core::CompiledModel& model,
                           lt::core::ExecutionContext& ctx, Tracer& rec,
                           std::uint64_t id, std::vector<float>& logits) {
  const auto start = Clock::now();
  const Acquired a = replay_acquire(
      sys, scene, ca, lt::core::mix_seed(sensor_seed, 0, 0), rec, id);
  const auto t0 = Clock::now();
  const lt::core::BatchOutput y = model.run(a.frame, ctx);
  const auto t1 = Clock::now();
  span(&rec, "core.run", id, t0, t1);
  span(&rec, "replay", id, start, t1);
  logits.assign(y.row(0).begin(), y.row(0).end());
  return a.capture + a.demosaic + a.ca + since(t0, t1);
}

}  // namespace perfbench
