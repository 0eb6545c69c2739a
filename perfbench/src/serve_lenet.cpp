// serve_lenet: LeNet on gemm at uniform 4-bit behind an InferenceServer with
// 2 replicas x 1 thread, max_batch 8 and the default coalescing window.
// One client thread runs two closed loops: (a) one request in flight, (b)
// 2 x replicas x max_batch = 32 in flight, which keeps both replicas busy.
// Requests take well under a millisecond, so submit, queueing, batching and
// the response path are a large share of each one.
#include <deque>
#include <future>
#include <map>
#include <memory>

#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = lt::serve;
using lt::tensor::Tensor;

constexpr std::size_t kFrames = 64;
constexpr std::size_t kSceneSize = 56;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kLoadedInFlight = 2 * kReplicas * kMaxBatch;
constexpr std::size_t kWarmupRequests = 200;
constexpr std::size_t kReferenceSample = 8;
constexpr std::size_t kReplayBatches = 50;
/// Timed set-ups per round: one takes about 20 ms, so a run times several.
constexpr int kSetupsPerRound = 3;
/// Least one-in-flight samples per run: at 1000, p99 has ten beyond it.
constexpr std::size_t kMinOneInFlight = 1000;

const lt::core::CaOptions kGrayCa{2, true, 4};

serve::ServerOptions server_options() {
  serve::ServerOptions so;
  so.backend = "gemm";
  so.replicas = kReplicas;
  so.threads_per_replica = 1;
  so.batch.max_batch = kMaxBatch;
  return so;
}

/// One completed request as the client saw it.
struct Sample {
  std::size_t frame = 0;
  double latency = 0.0;  // submit call -> result held by the client
  double submit = 0.0;   // the submit call alone
  double queue = 0.0;    // InferResult::queue_seconds
  double total = 0.0;    // InferResult::total_seconds
  std::size_t batch = 0;  // InferResult::batch_size
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::size_t completed = 0;  // requests answered and checked
  double wall = 0.0;          // first submit to last response

  double throughput() const { return static_cast<double>(completed) / wall; }
};

/// The benchmark's own inputs: captured frames and their batch-of-1 truth.
struct Inputs {
  std::vector<Tensor> frames;
  std::vector<std::vector<float>> truth;
};

/// One closed-loop phase: `in_flight` requests outstanding until `seconds`
/// have passed and `min_requests` were issued, or `max_requests` were.
struct Loop {
  std::size_t in_flight = 1;
  double seconds = 1e9;
  std::size_t max_requests = SIZE_MAX;
  std::size_t min_requests = 0;
  /// Keep per-request samples (their memory grows with throughput, so the
  /// untraced loaded phase only counts).
  bool keep_samples = true;
};

constexpr Loop kWarmup{.in_flight = kLoadedInFlight,
                       .max_requests = kWarmupRequests,
                       .keep_samples = false};

/// A closed-loop client over one server: issues requests in a seeded order,
/// keeps `loop.in_flight` outstanding, waits on the oldest, and checks every
/// response bit-exact against the truth of its frame.
PhaseResult closed_loop(serve::InferenceServer& server, const Inputs& in,
                        lt::util::Rng& order, const Loop& loop, Report& r,
                        Tracer* rec, std::uint64_t& next_id) {
  struct Pending {
    std::size_t frame;
    std::uint64_t id;
    Clock::time_point t0, t1;
    std::future<serve::InferResult> result;
  };
  std::deque<Pending> pending;
  PhaseResult out;
  std::size_t issued = 0;
  const auto start = Clock::now();
  const auto issue = [&] {
    const std::size_t frame = order.uniform_index(in.frames.size());
    Tensor input = in.frames[frame];
    const std::uint64_t id = next_id++;
    ++issued;
    const auto t0 = Clock::now();
    serve::SubmitTicket ticket = server.submit(std::move(input));
    const auto t1 = Clock::now();
    if (ticket.status != serve::SubmitStatus::kAccepted) {
      r.op(false);
      span(rec, "request", id, t0, t1);
      return;
    }
    pending.push_back({frame, id, t0, t1, std::move(ticket.result)});
  };
  const auto complete = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    bool ok = false;
    Sample s;
    try {
      const serve::InferResult res = p.result.get();
      const auto t2 = Clock::now();
      ok = res.ok() && same_bits(res.output(), in.truth[p.frame]);
      s = {p.frame, since(p.t0, t2), since(p.t0, p.t1), res.queue_seconds,
           res.total_seconds, res.batch_size};
      // The library's own "submit" span nests in the request on this thread.
      span(rec, "request", p.id, p.t0, t2);
      span(rec, "wait", p.id, p.t1, t2);
    } catch (const std::exception&) {
      ok = false;
    }
    r.op(ok);
    if (ok) {
      if (loop.keep_samples) out.samples.push_back(s);
      ++out.completed;
    }
  };
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(loop.seconds));
  while (issued < loop.max_requests &&
         (Clock::now() < deadline || issued < loop.min_requests)) {
    while (pending.size() < loop.in_flight && issued < loop.max_requests) {
      issue();
    }
    if (!pending.empty()) complete();
  }
  while (!pending.empty()) complete();
  out.wall = since(start, Clock::now());
  return out;
}

Inputs make_inputs(const std::vector<Tensor>& frames,
                   const lt::core::CompiledModel& model) {
  return Inputs{frames, batch1_logits(model, frames)};
}

std::vector<double> pick(const std::vector<Sample>& samples,
                         double Sample::*field, double scale) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(s.*field * scale);
  return v;
}

double p99(const std::vector<double>& v) { return quantile(v, 0.99); }

using BatchHistogram = std::map<std::size_t, std::uint64_t>;

/// Adds the batches a server ran between two of its stats snapshots.
void add_batches(BatchHistogram& hist, const serve::ServerStats& before,
                 const serve::ServerStats& after) {
  for (const auto& [size, count] : after.batch_size_hist) {
    const auto it = before.batch_size_hist.find(size);
    hist[size] += count - (it == before.batch_size_hist.end() ? 0 : it->second);
  }
}

std::string to_json(const BatchHistogram& hist) {
  std::string out = "{";
  const char* sep = "";
  for (const auto& [size, count] : hist) {
    if (count == 0) continue;
    out += sep;
    out += '"';
    out += std::to_string(size);
    out += "\": ";
    out += std::to_string(count);
    sep = ", ";
  }
  return out + "}";
}

}  // namespace

ServeLayers report_serve_layers(const Args& args, Report& r, Tracer& rec,
                                const std::vector<Tensor>& frames,
                                double seconds) {
  const lt::core::LightatorSystem sys(lt::core::ArchConfig::defaults());
  const lt::nn::Network net = lenet();
  serve::InferenceServer server(sys, net, lt::nn::PrecisionSchedule::uniform(4),
                                server_options());
  const Inputs in = make_inputs(frames, server.compiled());
  lt::util::Rng order(derive_seed(args.seed, 11));
  std::uint64_t next_id = 0;
  closed_loop(server, in, order, kWarmup, r, nullptr, next_id);

  const PhaseResult a = closed_loop(
      server, in, order,
      {.seconds = seconds * kOneInFlightShare,
       .min_requests = kMinOneInFlight},
      r, &rec, next_id);
  const serve::ServerStats before = server.stats();
  const PhaseResult b = closed_loop(
      server, in, order,
      {.in_flight = kLoadedInFlight,
       .seconds = seconds * (1.0 - kOneInFlightShare)},
      r, &rec, next_id);
  const serve::ServerStats after = server.stats();

  std::vector<Sample> all = a.samples;
  all.insert(all.end(), b.samples.begin(), b.samples.end());
  std::vector<double> exec_ms, respond_ms;
  for (const Sample& s : all) {
    exec_ms.push_back((s.total - s.queue) * 1e3);
    respond_ms.push_back((s.latency - s.total) * 1e3);
  }
  r.metric("serve.submit_us", median(pick(all, &Sample::submit, 1e6)), "us");
  r.metric("serve.queue_ms", median(pick(all, &Sample::queue, 1e3)), "ms");
  r.metric("serve.exec_ms", median(exec_ms), "ms");
  r.metric("serve.respond_ms", median(respond_ms), "ms");
  const double batches = static_cast<double>(after.batches - before.batches);
  const double served =
      static_cast<double>(after.completed - before.completed);
  r.metric("serve.batch_size_mean", batches > 0 ? served / batches : 0.0,
           "count");
  r.metric("serve.busy_ratio",
           (after.busy_seconds - before.busy_seconds) /
               (b.wall * static_cast<double>(kReplicas)),
           "ratio");
  r.metric("serve.latency_p99_ms", p99(pick(a.samples, &Sample::latency, 1e3)),
           "ms");
  r.metric("serve.loaded_latency_p99_ms",
           p99(pick(b.samples, &Sample::latency, 1e3)), "ms");
  BatchHistogram hist;
  add_batches(hist, before, after);
  r.info("serve.batch_size_hist", to_json(hist));

  // Coverage: bursts of max_batch requests, which ride in one batch, each
  // followed by a one-thread replay of that batch's forward, so both see the
  // same host speed. The replayed forward should account for the server's
  // execution time of the batch (total_seconds - queue_seconds). The replay
  // calls run() on a list of frames as a replica does, once untimed so that
  // its core holds the model in cache as the busy replica's does, then
  // timed. A full batch keeps a replica's wake-up after its idle coalescing
  // wait a small share of the execution time. The server's replica and the
  // replay run on different threads, so every thread is pinned to one CPU.
  lt::util::ThreadPool pool(1);
  const OneCpu one_cpu;
  lt::core::ExecutionContext ctx;
  ctx.pool = &pool;
  std::vector<double> exec, replayed;
  for (std::size_t i = 0; i < kReplayBatches; ++i) {
    const PhaseResult burst = closed_loop(
        server, in, order, {.in_flight = kMaxBatch, .max_requests = kMaxBatch},
        r, &rec, next_id);
    if (burst.samples.size() != kMaxBatch ||
        burst.samples[0].batch != kMaxBatch) {
      continue;
    }
    std::vector<const Tensor*> batch;
    for (const Sample& s : burst.samples) batch.push_back(&in.frames[s.frame]);
    server.compiled().run(batch, ctx);
    const auto t0 = Clock::now();
    server.compiled().run(batch, ctx);
    const auto t1 = Clock::now();
    span(&rec, "replay.core.run", next_id - 1, t0, t1);
    exec.push_back(burst.samples[0].total - burst.samples[0].queue);
    replayed.push_back(since(t0, t1));
  }
  check_coverage(r, "serve.coverage", exec, replayed, kCoverageTolerance,
                 one_cpu.cpu());
  return {b.throughput(), pick(a.samples, &Sample::latency, 1e3)};
}

void run_serve_lenet(const Args& args, Report& r, Tracer* rec) {
  // Benchmark set-up (not timed): 56x56 scenes captured through grayscale
  // CA 2x2 into 28x28 LeNet frames, and their batch-of-1 truth.
  const lt::core::LightatorSystem capture_sys(lt::core::ArchConfig::defaults());
  const auto scenes =
      make_scenes(kFrames, kSceneSize, derive_seed(args.seed, 1));
  const std::uint64_t sensor_seed = derive_seed(args.seed, 2);
  const std::vector<Tensor> frames =
      acquire_all(capture_sys, scenes, kGrayCa, sensor_seed);
  const lt::nn::Network net = lenet();

  if (rec != nullptr) {
    // Traced run: the serve phases with spans, the tracing overhead against
    // a loaded phase with the recorder stopped in the same process, then the
    // layer replays.
    const ServeLayers traced =
        report_serve_layers(args, r, *rec, frames, args.seconds);
    r.metric("throughput_per_s", traced.loaded_rps, "1/s");
    report_latency(r, traced.one_in_flight_ms, kMinOneInFlight);
    {
      serve::InferenceServer server(capture_sys, net,
                                    lt::nn::PrecisionSchedule::uniform(4),
                                    server_options());
      const Inputs in = make_inputs(frames, server.compiled());
      lt::util::Rng order(derive_seed(args.seed, 12));
      std::uint64_t next_id = 0;
      closed_loop(server, in, order, kWarmup, r, nullptr, next_id);
      rec->stop();
      const PhaseResult u = closed_loop(
          server, in, order,
          {.in_flight = kLoadedInFlight,
           .seconds = args.seconds * (1.0 - kOneInFlightShare),
           .keep_samples = false},
          r, nullptr, next_id);
      rec->start();
      r.metric("obs.trace_overhead", traced.loaded_rps / u.throughput(),
               "ratio");
    }
    report_compile(r, capture_sys, net, "gemm", 5);
    LayerInputs li;
    li.scenes = scenes;
    li.ca = kGrayCa;
    li.sensor_seed = sensor_seed;
    li.lenet_frames = frames;
    report_layers(args, r, *rec, std::move(li));
    return;
  }

  // Truth from a benchmark-owned compile; a sample of it against the
  // reference backend.
  lt::core::CompileOptions co;
  const Inputs in = make_inputs(frames, capture_sys.compile(net, co));
  {
    co.backend = "reference";
    const lt::core::CompiledModel ref = capture_sys.compile(net, co);
    lt::util::Rng sample(derive_seed(args.seed, 4));
    bool ok = true;
    for (std::size_t i = 0; i < kReferenceSample; ++i) {
      const std::size_t f = sample.uniform_index(frames.size());
      const auto want = batch1_logits(ref, {frames[f]});
      ok = ok && same_bits(want[0], in.truth[f]);
    }
    r.check("serve.gemm_matches_reference", ok);
  }

  // Rounds: kSetupsPerRound fresh, timed set-ups of the program (system,
  // compile + replica start in the server constructor, and warm-up
  // requests), then phase (a) and phase (b) on the last server.
  std::vector<double> setups, lat_ms, rates;
  std::unique_ptr<lt::core::LightatorSystem> sys;
  std::unique_ptr<serve::InferenceServer> server;
  std::uint64_t next_id = 0;
  lt::util::Rng warm_order(derive_seed(args.seed, 3));
  lt::util::Rng order(derive_seed(args.seed, 5));
  BatchHistogram hist;
  std::map<std::string, int> configs;
  for (int k = 0; k < kRounds; ++k) {
    for (int j = 0; j < kSetupsPerRound; ++j) {
      server.reset();
      sys.reset();
      const auto t0 = Clock::now();
      sys = std::make_unique<lt::core::LightatorSystem>(
          lt::core::ArchConfig::defaults());
      server = std::make_unique<serve::InferenceServer>(
          *sys, net, lt::nn::PrecisionSchedule::uniform(4), server_options());
      closed_loop(*server, in, warm_order, kWarmup, r, nullptr, next_id);
      setups.push_back(since(t0, Clock::now()));
      ++configs[kernel_configs(server->compiled())];
    }
    const serve::ServerStats before = server->stats();
    const PhaseResult a = closed_loop(
        *server, in, order,
        {.seconds = args.seconds * kOneInFlightShare / kRounds,
         .min_requests = (kMinOneInFlight + kRounds - 1) / kRounds},
        r, nullptr, next_id);
    for (const double v : pick(a.samples, &Sample::latency, 1e3)) {
      lat_ms.push_back(v);
    }
    const PhaseResult b = closed_loop(
        *server, in, order,
        {.in_flight = kLoadedInFlight,
         .seconds = args.seconds * (1.0 - kOneInFlightShare) / kRounds,
         .keep_samples = false},
        r, nullptr, next_id);
    rates.push_back(b.throughput());
    add_batches(hist, before, server->stats());
  }

  r.metric("throughput_per_s", median(rates), "1/s");
  report_latency(r, lat_ms, kMinOneInFlight);
  r.metric("setup_s", median(setups), "s");
  r.info("serve.batch_size_hist", to_json(hist));
  r.info("serve.threads",
         "{\"replicas\": " + std::to_string(kReplicas) +
             ", \"threads_per_replica\": 1, \"client_threads\": 1, "
             "\"max_batch\": " +
             std::to_string(kMaxBatch) + ", \"in_flight\": " +
             std::to_string(kLoadedInFlight) + "}");
  add_run_info(r, "lenet", configs);
}

}  // namespace perfbench
