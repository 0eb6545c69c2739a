// capture_vgg9: full-width VGG9 on gemm behind capture_and_infer on a
// 2-thread pool. 64x64 RGB scenes go through seeded sensor capture and
// channel-wise CA 2x2 into 32x32x3 frames. Phase (a) makes one-scene calls
// (the paper's single-frame latency, Fig. 10), phase (b) 8-scene bursts (its
// batched frame rate, Table 1). VGG9's compiled weights overflow L2, so
// this is where the big GEMM layers show.
#include <map>
#include <memory>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lt::sensor::Image;

constexpr std::size_t kScenes = 64;
constexpr std::size_t kSceneSize = 64;
constexpr std::size_t kBurst = 8;
constexpr std::size_t kPoolThreads = 2;
constexpr std::size_t kReplayCalls = 20;
/// Least one-scene calls per run: at 200, p95 has ten beyond it.
constexpr std::size_t kMinOneScene = 200;

const lt::core::CaOptions kChannelCa{2, false, 4};

/// What the program sets up before its first timed call.
struct Pipeline {
  lt::core::LightatorSystem sys{lt::core::ArchConfig::defaults()};
  lt::core::CompiledModel model;
  lt::util::ThreadPool pool{kPoolThreads};
  lt::core::ExecutionContext ctx;
};

struct PhaseResult {
  std::vector<double> latency;  // seconds per call
  std::size_t items = 0;        // scenes in completed calls
  double wall = 0.0;

  double throughput() const { return static_cast<double>(items) / wall; }
};

class Client {
 public:
  Client(const std::vector<Image>& scenes, lt::core::CaptureOptions capture,
         std::uint64_t order_seed, Report& r, Tracer* rec)
      : scenes_(scenes), capture_(capture), order_(order_seed), r_(r),
        rec_(rec) {}

  /// Makes the following calls on `p`.
  void use(Pipeline& p) { p_ = &p; }

  /// Calls of `burst` scenes back to back for `seconds`. One-scene outputs
  /// are checked bit-exact against the first output of the same scene;
  /// every output must have one row of logits per scene.
  PhaseResult run(std::size_t burst, double seconds,
                  std::size_t max_calls = SIZE_MAX, std::size_t min_calls = 0) {
    PhaseResult out;
    std::vector<Image> call(burst);
    std::vector<std::size_t> picked(burst);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (std::size_t n = 0;
         n < max_calls && (Clock::now() < deadline || n < min_calls); ++n) {
      for (std::size_t i = 0; i < burst; ++i) {
        picked[i] = order_.uniform_index(scenes_.size());
        call[i] = scenes_[picked[i]];
      }
      const std::uint64_t id = next_id_++;
      bool ok = false;
      const auto t0 = Clock::now();
      try {
        const lt::core::BatchOutput y =
            p_->sys.capture_and_infer(p_->model, call, p_->ctx, capture_);
        const auto t1 = Clock::now();
        out.latency.push_back(since(t0, t1));
        span(rec_, "capture_and_infer", id, t0, t1);
        if (rec_ != nullptr) calls_.push_back({id, picked[0], since(t0, t1), {}});
        ok = y.items() == burst;
        if (ok && burst == 1) {
          const auto row = y.row(0);
          auto [it, fresh] = first_.try_emplace(
              picked[0], std::vector<float>(row.begin(), row.end()));
          ok = fresh || same_bits(row, it->second);
          if (rec_ != nullptr) {
            calls_.back().logits.assign(row.begin(), row.end());
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
      r_.op(ok);
      if (ok) out.items += burst;
    }
    out.wall = since(start, Clock::now());
    return out;
  }

  struct TracedCall {
    std::uint64_t id;
    std::size_t scene;
    double seconds;
    std::vector<float> logits;
  };
  const std::vector<TracedCall>& traced_calls() const { return calls_; }

 private:
  Pipeline* p_ = nullptr;
  const std::vector<Image>& scenes_;
  lt::core::CaptureOptions capture_;
  lt::util::Rng order_;
  Report& r_;
  Tracer* rec_;
  std::uint64_t next_id_ = 0;
  std::map<std::size_t, std::vector<float>> first_;
  std::vector<TracedCall> calls_;
};

/// The program's set-up: system, compile with default options, pool, and a
/// warm-up burst and one-scene call.
std::unique_ptr<Pipeline> set_up(const lt::nn::Network& net, Client& warm) {
  auto p = std::make_unique<Pipeline>();
  p->model = p->sys.compile(net, lt::core::CompileOptions{});
  p->ctx.pool = &p->pool;
  warm.use(*p);
  warm.run(kBurst, 1e9, 1);
  warm.run(1, 1e9, 1);
  return p;
}

}  // namespace

void run_capture_vgg9(const Args& args, Report& r, Tracer* rec) {
  const auto scenes =
      make_scenes(kScenes, kSceneSize, derive_seed(args.seed, 1));
  lt::core::CaptureOptions capture;
  capture.ca = kChannelCa;
  capture.sensor_noise_seed = derive_seed(args.seed, 2);
  const lt::nn::Network net = vgg9();

  // Rounds: a fresh, timed set-up, then phase (a) and phase (b).
  Client warm(scenes, capture, derive_seed(args.seed, 3), r, nullptr);
  Client client(scenes, capture, derive_seed(args.seed, 5), r, rec);
  std::unique_ptr<Pipeline> p;
  std::vector<double> setups, rates, lat_ms;
  std::map<std::string, int> configs;
  for (int k = 0; k < kRounds; ++k) {
    p.reset();
    const auto t0 = Clock::now();
    p = set_up(net, warm);
    setups.push_back(since(t0, Clock::now()));
    ++configs[kernel_configs(p->model)];
    client.use(*p);
    const PhaseResult a =
        client.run(1, args.seconds * kOneInFlightShare / kRounds, SIZE_MAX,
                   (kMinOneScene + kRounds - 1) / kRounds);
    for (const double t : a.latency) lat_ms.push_back(t * 1e3);
    rates.push_back(
        client.run(kBurst, args.seconds * (1.0 - kOneInFlightShare) / kRounds)
            .throughput());
  }
  const double throughput = median(rates);
  r.metric("throughput_per_s", throughput, "1/s");
  report_latency(r, lat_ms, kMinOneScene);

  if (rec != nullptr) {
    // Tracing overhead against an untraced burst phase of the same length.
    Client plain(scenes, capture, derive_seed(args.seed, 6), r, nullptr);
    plain.use(*p);
    rec->stop();
    const PhaseResult u =
        plain.run(kBurst, args.seconds * (1.0 - kOneInFlightShare) / kRounds);
    rec->start();
    r.metric("obs.trace_overhead", throughput / u.throughput(), "ratio");

    // Coverage: traced one-scene calls, each replayed layer by layer right
    // after it on the same pinned CPU, so both see the same host speed.
    Client pairs(scenes, capture, derive_seed(args.seed, 7), r, rec);
    pairs.use(*p);
    bool same = true;
    {
      const OneCpu one_cpu;
      std::vector<double> e2e, explained;
      for (std::size_t i = 0; i < kReplayCalls; ++i) {
        pairs.run(1, 1e9, 1);
        const auto& call = pairs.traced_calls().back();
        std::vector<float> logits;
        explained.push_back(replay_capture_call(
            p->sys, scenes[call.scene], kChannelCa, capture.sensor_noise_seed,
            p->model, p->ctx, *rec, call.id, logits));
        e2e.push_back(call.seconds);
        same = same && same_bits(logits, call.logits);
      }
      check_coverage(r, "capture.coverage", e2e, explained,
                     kCoverageTolerance, one_cpu.cpu());
    }
    r.check("capture.replay_matches_call", same);

    report_compile(r, p->sys, net, "gemm", 3);
    const auto serve_scenes = make_scenes(64, 56, derive_seed(args.seed, 31));
    report_serve_layers(
        args, r, *rec,
        acquire_all(p->sys, serve_scenes, lt::core::CaOptions{2, true, 4},
                    derive_seed(args.seed, 32)),
        1.0);
    LayerInputs li;
    li.scenes = scenes;
    li.ca = kChannelCa;
    li.sensor_seed = capture.sensor_noise_seed;
    li.vgg9_frames = acquire_all(
        p->sys, std::vector<Image>(scenes.begin(), scenes.begin() + kBurst),
        kChannelCa, capture.sensor_noise_seed);
    report_layers(args, r, *rec, std::move(li));
    return;
  }

  // Outside the timed phases: one captured burst against the reference
  // backend, bit-exact.
  {
    std::vector<Image> burst(scenes.begin(), scenes.begin() + kBurst);
    const lt::core::BatchOutput got =
        p->sys.capture_and_infer(p->model, burst, p->ctx, capture);
    lt::core::CompileOptions co;
    co.backend = "reference";
    const lt::core::CompiledModel ref = p->sys.compile(net, co);
    const lt::core::BatchOutput want =
        p->sys.capture_and_infer(ref, burst, p->ctx, capture);
    const auto& g = got.logits();
    const auto& w = want.logits();
    r.check("capture.gemm_matches_reference",
            same_bits({g.data(), g.size()}, {w.data(), w.size()}));
  }

  r.metric("setup_s", median(setups), "s");
  r.info("capture.threads", "{\"pool\": " + std::to_string(kPoolThreads) +
                                ", \"burst\": " + std::to_string(kBurst) + "}");
  add_run_info(r, "vgg9", configs);
}

}  // namespace perfbench
