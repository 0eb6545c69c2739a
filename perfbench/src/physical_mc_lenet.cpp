// physical_mc_lenet: ExperimentRunner{backend "physical", threads 2,
// noise_seed != 0}.monte_carlo over LeNet on a seeded synthetic-MNIST set,
// with the ablation_noise "combined" faults (1% stuck cells, 2% dark VCSELs,
// 5% ring drift). The device model uses no GEMM, so this is the only
// workload where the physical backend shows. monte_carlo compiles once per
// campaign, inside the timed phase. Phase (a) runs campaigns of one frame
// per runner thread (a single-trial campaign leaves one thread idle, and its
// latency then flips between the host's fast and slow cores), phase (b)
// campaigns of kTrials x kFramesPerTrial frames.
#include <memory>

#include "core/experiment.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/synth_mnist.hpp"

namespace perfbench {

namespace {

using lt::nn::Dataset;

constexpr std::size_t kSamples = 64;
constexpr std::size_t kTrials = 2;
constexpr std::size_t kFramesPerTrial = 4;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kReplayCalls = 10;
constexpr std::size_t kDeterminismCalls = 3;
/// Least phase (a) campaigns per run: at 40, p75 has ten beyond it.
constexpr std::size_t kMinCampaigns = 40;
const lt::core::FaultSpec kCombined{0.01, 0.02, 0.05, 1};

/// Fixed probe of the seeded noisy, faulted logits run.py compares against
/// perfbench/recorded.json: independent of the run's seed.
constexpr std::uint64_t kProbeDataSeed = 42;
constexpr std::uint64_t kProbeNoiseSeed = 2024;
constexpr std::uint64_t kProbeFaultSeed = 7;
constexpr std::size_t kProbeFrames = 2;

lt::core::MonteCarloOptions campaign(std::size_t trials, std::size_t frames,
                                     std::uint64_t base_seed) {
  lt::core::MonteCarloOptions mco;
  mco.trials = trials;
  mco.max_samples = frames;
  mco.faults = kCombined;
  mco.base_seed = base_seed;
  return mco;
}

struct Setup {
  std::unique_ptr<lt::core::LightatorSystem> sys;
  std::unique_ptr<lt::core::ExperimentRunner> runner;
};

struct PhaseResult {
  std::vector<double> latency;  // seconds per campaign
  std::size_t items = 0;        // frames evaluated in completed campaigns
  double wall = 0.0;

  double throughput() const { return static_cast<double>(items) / wall; }
};

bool same_result(const lt::core::MonteCarloResult& a,
                 const lt::core::MonteCarloResult& b) {
  return a.accuracy == b.accuracy && a.mean == b.mean && a.stddev == b.stddev;
}

Dataset slice(const Dataset& d, std::size_t begin, std::size_t count) {
  Dataset out;
  out.num_classes = d.num_classes;
  out.images = d.batch_images(begin, count);
  out.labels = d.batch_labels(begin, count);
  return out;
}

/// Runs campaigns back to back for `seconds` and keeps the first few
/// results for the determinism check.
class Client {
 public:
  Client(Setup& s, const lt::nn::Network& net, Report& r, Tracer* rec)
      : s_(s), net_(net), r_(r), rec_(rec) {}

  PhaseResult run(const std::vector<Dataset>& data, lt::util::Rng& order,
                  const lt::core::MonteCarloOptions& mco, double seconds,
                  std::size_t max_calls = SIZE_MAX, std::size_t min_calls = 0) {
    PhaseResult out;
    const auto schedule = lt::nn::PrecisionSchedule::uniform(4);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (std::size_t n = 0;
         n < max_calls && (Clock::now() < deadline || n < min_calls); ++n) {
      const std::size_t pick = order.uniform_index(data.size());
      const std::uint64_t id = next_id_++;
      bool ok = false;
      const auto t0 = Clock::now();
      try {
        const lt::core::MonteCarloResult res =
            s_.runner->monte_carlo(*s_.sys, net_, data[pick], schedule, mco);
        const auto t1 = Clock::now();
        out.latency.push_back(since(t0, t1));
        span(rec_, "monte_carlo", id, t0, t1);
        if (rec_ != nullptr) calls_.push_back({pick, since(t0, t1)});
        if (history_.size() < kDeterminismCalls) {
          history_.push_back({pick, res});
        }
        ok = res.accuracy.size() == mco.trials && res.mean == res.mean;
      } catch (const std::exception&) {
        ok = false;
      }
      r_.op(ok);
      if (ok) out.items += mco.trials * data[pick].size();
    }
    out.wall = since(start, Clock::now());
    return out;
  }

  struct TracedCall {
    std::size_t data;
    double seconds;
  };
  const std::vector<TracedCall>& traced_calls() const { return calls_; }
  const std::vector<std::pair<std::size_t, lt::core::MonteCarloResult>>&
  history() const {
    return history_;
  }

 private:
  Setup& s_;
  const lt::nn::Network& net_;
  Report& r_;
  Tracer* rec_;
  std::uint64_t next_id_ = 0;
  std::vector<std::pair<std::size_t, lt::core::MonteCarloResult>> history_;
  std::vector<TracedCall> calls_;
};

lt::core::ExperimentOptions runner_options(std::uint64_t noise_seed) {
  lt::core::ExperimentOptions eo;
  eo.backend = "physical";
  eo.threads = kThreads;
  eo.noise_seed = noise_seed;
  return eo;
}

/// The recorded-logits probe: fixed frames, noise and faults.
std::vector<double> probe_logits(const lt::core::CompiledModel& model) {
  lt::workloads::SynthMnistOptions mo;
  mo.samples = kProbeFrames;
  mo.seed = kProbeDataSeed;
  const Dataset d = lt::workloads::make_synth_mnist(mo);
  lt::util::ThreadPool pool(1);
  lt::core::ExecutionContext ctx;
  ctx.pool = &pool;
  ctx.noise_seed = kProbeNoiseSeed;
  ctx.faults = kCombined;
  ctx.faults.seed = kProbeFaultSeed;
  const lt::core::BatchOutput y = model.run(d.images, ctx);
  const auto& logits = y.logits();
  return std::vector<double>(logits.data(), logits.data() + logits.size());
}

}  // namespace

void run_physical_mc_lenet(const Args& args, Report& r, Tracer* rec) {
  // Benchmark set-up (not timed): the seeded dataset, one single-frame
  // dataset per sample for phase (a), the phase (b) slice.
  lt::workloads::SynthMnistOptions mo;
  mo.samples = kSamples;
  mo.seed = derive_seed(args.seed, 1);
  const Dataset full = lt::workloads::make_synth_mnist(mo);
  std::vector<Dataset> singles;
  for (std::size_t i = 0; i < full.size(); ++i) {
    singles.push_back(slice(full, i, 1));
  }
  const std::vector<Dataset> campaign_data = {slice(full, 0, kFramesPerTrial)};
  const lt::nn::Network net = lenet();
  const std::uint64_t noise_seed = derive_seed(args.seed, 2);
  const std::uint64_t fault_seed = derive_seed(args.seed, 3);

  // Rounds: a fresh, timed set-up (system, runner with its pool, and a
  // warm-up campaign like phase (a)'s), then phase (a) and phase (b).
  std::vector<double> setups, rates, lat_ms;
  Setup s;
  Client client(s, net, r, rec);
  lt::util::Rng order(derive_seed(args.seed, 5));
  for (int k = 0; k < kRounds; ++k) {
    s.runner.reset();
    s.sys.reset();
    const auto t0 = Clock::now();
    s.sys = std::make_unique<lt::core::LightatorSystem>(
        lt::core::ArchConfig::defaults());
    s.runner = std::make_unique<lt::core::ExperimentRunner>(
        runner_options(noise_seed));
    Client warm(s, net, r, nullptr);
    lt::util::Rng warm_order(derive_seed(args.seed, 4));
    warm.run(singles, warm_order, campaign(kThreads, 1, fault_seed), 1e9, 1);
    setups.push_back(since(t0, Clock::now()));

    const PhaseResult a =
        client.run(singles, order, campaign(kThreads, 1, fault_seed),
                   args.seconds * kOneInFlightShare / kRounds, SIZE_MAX,
                   (kMinCampaigns + kRounds - 1) / kRounds);
    for (const double t : a.latency) lat_ms.push_back(t * 1e3);
    rates.push_back(client
                        .run(campaign_data, order,
                             campaign(kTrials, kFramesPerTrial, fault_seed),
                             args.seconds * (1.0 - kOneInFlightShare) / kRounds)
                        .throughput());
  }
  const double throughput = median(rates);
  r.metric("throughput_per_s", throughput, "1/s");
  report_latency(r, lat_ms, kMinCampaigns);

  if (rec != nullptr) {
    Client plain(s, net, r, nullptr);
    lt::util::Rng plain_order(derive_seed(args.seed, 6));
    rec->stop();
    const PhaseResult u =
        plain.run(campaign_data, plain_order,
                  campaign(kTrials, kFramesPerTrial, fault_seed),
                  args.seconds * (1.0 - kOneInFlightShare) / kRounds);
    rec->start();
    r.metric("obs.trace_overhead", throughput / u.throughput(), "ratio");

    // Coverage: a one-frame campaign is one compile plus one forward on one
    // pool thread. Each traced campaign is replayed right after it on the
    // same pinned CPU, so both see the same host speed.
    lt::core::CompileOptions co;
    co.backend = "physical";
    lt::util::ThreadPool pool(1);
    Client pairs(s, net, r, rec);
    lt::util::Rng pair_order(derive_seed(args.seed, 7));
    {
      const OneCpu one_cpu;
      std::vector<double> e2e, explained;
      for (std::size_t i = 0; i < kReplayCalls; ++i) {
        pairs.run(singles, pair_order, campaign(1, 1, fault_seed), 1e9, 1);
        const auto& call = pairs.traced_calls().back();
        const auto start = Clock::now();
        auto t0 = start;
        const lt::core::CompiledModel model = s.sys->compile(net, co);
        auto t1 = Clock::now();
        span(rec, "compiler.compile", i, t0, t1);
        double sum = since(t0, t1);
        lt::core::ExecutionContext ctx;
        ctx.pool = &pool;
        ctx.noise_seed = noise_seed;
        ctx.faults = kCombined;
        t0 = Clock::now();
        model.run(singles[call.data].images, ctx);
        t1 = Clock::now();
        span(rec, "physical.run", i, t0, t1);
        span(rec, "replay", i, start, t1);
        sum += since(t0, t1);
        e2e.push_back(call.seconds);
        explained.push_back(sum);
      }
      check_coverage(r, "physical.coverage", e2e, explained,
                     kCoverageTolerance, one_cpu.cpu());
    }

    report_compile(r, *s.sys, net, "physical", 5);
    const auto serve_scenes = make_scenes(64, 56, derive_seed(args.seed, 31));
    report_serve_layers(
        args, r, *rec,
        acquire_all(*s.sys, serve_scenes, lt::core::CaOptions{2, true, 4},
                    derive_seed(args.seed, 32)),
        1.0);
    LayerInputs li;
    for (std::size_t i = 0; i < kFramesPerTrial; ++i) {
      li.lenet_frames.push_back(singles[i].images);
    }
    report_layers(args, r, *rec, std::move(li));
    return;
  }

  // Outside the timed phases: a fresh runner with the same seed repeats the
  // warm-up and the first one-frame campaigns with identical results.
  {
    Setup again;
    again.sys = std::make_unique<lt::core::LightatorSystem>(
        lt::core::ArchConfig::defaults());
    again.runner = std::make_unique<lt::core::ExperimentRunner>(
        runner_options(noise_seed));
    Client warm(again, net, r, nullptr);
    lt::util::Rng warm_order(derive_seed(args.seed, 4));
    warm.run(singles, warm_order, campaign(kThreads, 1, fault_seed), 1e9, 1);
    const auto schedule = lt::nn::PrecisionSchedule::uniform(4);
    bool same = !client.history().empty();
    for (const auto& [pick, want] : client.history()) {
      same = same && same_result(again.runner->monte_carlo(
                                     *again.sys, net, singles[pick], schedule,
                                     campaign(kThreads, 1, fault_seed)),
                                 want);
    }
    r.check("physical.same_seed_same_campaign", same);
  }
  lt::core::CompileOptions co;
  co.backend = "physical";
  const lt::core::CompiledModel model = s.sys->compile(net, co);
  r.recorded("physical.logits", probe_logits(model));
  r.metric("setup_s", median(setups), "s");
  r.info("physical.threads", "{\"runner\": " + std::to_string(kThreads) +
                                 ", \"trials\": " + std::to_string(kTrials) +
                                 ", \"frames_per_trial\": " +
                                 std::to_string(kFramesPerTrial) + "}");
  add_run_info(r, "lenet_physical", {{kernel_configs(model), 1}});
}

}  // namespace perfbench
