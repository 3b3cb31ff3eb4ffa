// The sharded tier's layers (wire codec, Router replica choice and pools,
// shard accept loop), measured in serve-single's traced run: two dfr_shard
// processes (1 worker each, the serve-single model shape) behind a Router
// with replicas=2 and load-aware p2c over unix sockets, fed by the open-loop
// generator at a low fixed rate through 2 sender threads. Every response is
// checked bit-for-bit against an in-process engine call on the same
// synthetic model (routed == in-process).
//
// It is not an end-to-end workload: on a 4-vCPU VM its p99 sits at the
// latency limit and 3-6% of requests time out even at 1000 QPS, so no
// end-to-end figure from it repeats within a usable bound.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "host.hpp"
#include "loadgen.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "serve/synth.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

using dfr::Matrix;
using dfr::ModelArtifactPtr;
using dfr::Vector;
namespace serve = dfr::serve;
namespace wire = dfr::serve::wire;

constexpr std::size_t kShards = 2;
constexpr std::size_t kModels = 4;
constexpr std::size_t kSteps = 151;
constexpr std::size_t kChannels = 2;
constexpr int kClasses = 4;
constexpr std::size_t kNodes = 30;
constexpr std::size_t kSeriesPool = 32;
constexpr std::size_t kSenders = 2;
constexpr double kTierQps = 1000.0;  // fixed offered rate

std::uint64_t model_seed_base(std::uint64_t seed) { return seed * 1000; }

/// A dfr_shard child process; SIGTERM + wait on destruction.
class ShardProcess {
 public:
  ShardProcess(const std::string& bin, const std::string& endpoint,
               std::uint64_t seed) {
    const std::vector<std::string> args = {
        bin, "--endpoint", endpoint, "--synth-models", std::to_string(kModels),
        "--workers", "1", "--seed", std::to_string(model_seed_base(seed)),
        "--channels", std::to_string(kChannels), "--classes",
        std::to_string(kClasses), "--nodes", std::to_string(kNodes)};
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(),
                    environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot spawn " + bin + ": " +
                               std::strerror(rc));
    }
  }

  ~ShardProcess() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }

  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = 0;
};

struct RoutedLayers {
  std::vector<double> router_us;  // Router::infer call, OK requests
  std::vector<double> shard_us;   // shard-side latency from the response
};

class RoutedRig {
 public:
  explicit RoutedRig(const Options& options) {
    for (std::size_t i = 0; i < kSeriesPool; ++i) {
      series_.push_back(serve::make_synth_series(
          kSteps, kChannels, options.seed * 7919 + 100 + i));
    }
    for (std::size_t m = 0; m < kModels; ++m) {
      ids_.push_back("m" + std::to_string(m));
    }
    serve::RouterConfig config;
    config.replicas = kShards;
    config.load_aware = true;
    config.seed = options.seed;
    router_ = std::make_unique<serve::Router>(config);
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string path = options.out_dir + "/s" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(s) + ".sock";
      sockets_.push_back(path);
      shards_.push_back(std::make_unique<ShardProcess>(
          options.shard_bin, "unix:" + path, options.seed));
      names_.push_back("s" + std::to_string(s));
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      wait_ready(names_[s], sockets_[s]);
    }
    warm_up();
  }

  ~RoutedRig() {
    router_.reset();
    shards_.clear();
    for (const std::string& path : sockets_) std::filesystem::remove(path);
  }

  RoutedRig(const RoutedRig&) = delete;
  RoutedRig& operator=(const RoutedRig&) = delete;

  void compute_reference(const Options& options) {
    serve::SynthModelSpec spec;
    spec.channels = kChannels;
    spec.num_classes = kClasses;
    spec.nodes = kNodes;
    spec.quantized = false;
    for (std::size_t m = 0; m < kModels; ++m) {
      spec.seed = model_seed_base(options.seed) + m;
      artifacts_.push_back(serve::make_synth_artifact(ids_[m], spec));
      dfr::SimdInferenceEngine engine = dfr::make_simd_engine(artifacts_[m]);
      reference_.emplace_back();
      for (const Matrix& series : series_) {
        const std::span<const double> logits = engine.infer(series);
        reference_[m].emplace_back(logits.begin(), logits.end());
      }
    }
  }

  PhaseResult run_phase(const Schedule& schedule, Tracer& tracer,
                        Report& report, RoutedLayers* layers) {
    struct Job {
      std::size_t index;
      Clock::time_point due;
    };
    struct SenderResult {
      PhaseResult phase;
      RoutedLayers layers;
      std::vector<std::string> failures;
      std::exception_ptr error;
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Job> jobs;
    bool done = false;
    std::vector<SenderResult> per_sender(kSenders);

    std::vector<std::thread> senders;
    for (std::size_t s = 0; s < kSenders; ++s) {
      senders.emplace_back([&, s] {
        SenderResult& out = per_sender[s];
        try {
          for (;;) {
            Job job;
            {
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return !jobs.empty() || done; });
              if (jobs.empty()) return;
              job = jobs.front();
              jobs.pop_front();
            }
            const std::size_t m = schedule.model[job.index];
            const std::size_t x = schedule.series[job.index];
            const Clock::time_point t0 = Clock::now();
            const wire::WireResponse r =
                router_->infer(ids_[m], series_[x],
                               remaining_budget(job.due, t0));
            const Clock::time_point t1 = Clock::now();
            out.phase.ledger.count(classify(r.status),
                                   wire::wire_status_name(r.status));
            if (r.status != wire::WireStatus::kOk) continue;
            const double latency = us_between(job.due, t1);
            out.phase.add_latency(latency, schedule.arrival_s[job.index]);
            const Vector& ref = reference_[m][x];
            if (!same_output(r.logits, r.label, ref)) {
            out.failures.push_back("routed: request " +
                                     std::to_string(job.index) + " on " +
                                     ids_[m] + " differs from in-process");
            }
            if (layers != nullptr) {
              out.layers.router_us.push_back(us_between(t0, t1));
              out.layers.shard_us.push_back(r.latency_us);
            }
            if (tracer.enabled()) {
              const std::uint64_t request = job.index + 1;
              const std::uint64_t root = tracer.new_id();
              tracer.record(root, 0, request, "request", job.due, t1);
              tracer.record(root, request, "loadgen.queue", job.due, t0);
              tracer.record(root, request, "router.infer", t0, t1);
            }
          }
        } catch (...) {
          out.error = std::current_exception();
        }
      });
    }
    PhaseResult result;
    result.qps = schedule.qps;
    result.duration_s = schedule.duration_s;
    std::exception_ptr dispatch_error;
    try {
      dispatch(result, schedule, [&](std::size_t i, Clock::time_point due) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          jobs.push_back(Job{i, due});
        }
        cv.notify_one();
      });
    } catch (...) {
      dispatch_error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_all();
    for (std::thread& t : senders) t.join();
    if (dispatch_error) std::rethrow_exception(dispatch_error);
    for (SenderResult& part : per_sender) {
      if (part.error) std::rethrow_exception(part.error);
      result.ledger.merge(part.phase.ledger);
      result.latency_us.insert(result.latency_us.end(),
                               part.phase.latency_us.begin(),
                               part.phase.latency_us.end());
      result.latency_window.insert(result.latency_window.end(),
                                   part.phase.latency_window.begin(),
                                   part.phase.latency_window.end());
      for (std::string& why : part.failures) report.fail_check(std::move(why));
      if (layers != nullptr) {
        layers->router_us.insert(layers->router_us.end(),
                                 part.layers.router_us.begin(),
                                 part.layers.router_us.end());
        layers->shard_us.insert(layers->shard_us.end(),
                                part.layers.shard_us.begin(),
                                part.layers.shard_us.end());
      }
    }
    return result;
  }

  /// Summed router counters over the shards.
  [[nodiscard]] serve::ShardCounters counters() const {
    serve::ShardCounters sum;
    for (const std::string& name : names_) {
      const serve::ShardCounters c = router_->counters(name);
      sum.retried += c.retried;
      sum.io_failures += c.io_failures;
      sum.p2c_primary += c.p2c_primary;
      sum.p2c_alternate += c.p2c_alternate;
      sum.p2c_stale += c.p2c_stale;
    }
    return sum;
  }

  /// Replay the wire codec (both directions, both sides) on this run's own
  /// requests and responses.
  void replay_wire(Tracer& tracer, Report& report) {
    std::vector<double> encode_us;
    std::vector<double> decode_us;
    double bytes = 0.0;
    std::vector<std::byte> request_frame;
    std::vector<std::byte> response_frame;
    std::uint64_t seq = 1;
    for (std::size_t m = 0; m < kModels; ++m) {
      for (std::size_t x = 0; x < series_.size(); ++x) {
        wire::WireRequest request;
        request.seq = seq++;
        request.model_id = ids_[m];
        request.options.deadline_us = kSloUs;
        wire::WireResponse response;
        response.seq = request.seq;
        response.logits = reference_[m][x];
        response.label = argmax(response.logits);
        const Clock::time_point t0 = Clock::now();
        wire::encode_request(request, series_[x], request_frame);
        const Clock::time_point t1 = Clock::now();
        const wire::WireRequest decoded = wire::decode_request(request_frame);
        const Clock::time_point t2 = Clock::now();
        wire::encode_response(response, response_frame);
        const Clock::time_point t3 = Clock::now();
        const wire::WireResponse back = wire::decode_response(response_frame);
        const Clock::time_point t4 = Clock::now();
        tracer.record(0, request.seq, "wire.encode_request", t0, t1);
        tracer.record(0, request.seq, "wire.decode_request", t1, t2);
        tracer.record(0, request.seq, "wire.encode_response", t2, t3);
        tracer.record(0, request.seq, "wire.decode_response", t3, t4);
        encode_us.push_back(us_between(t0, t1) + us_between(t2, t3));
        decode_us.push_back(us_between(t1, t2) + us_between(t3, t4));
        bytes += static_cast<double>(request_frame.size());
        if (decoded.model_id != ids_[m] || back.logits != response.logits) {
          report.fail_check("routed: wire round trip changed a message");
        }
      }
    }
    auto& m = report.metrics;
    m["wire.encode_us"] = median(encode_us);
    m["wire.decode_us"] = median(decode_us);
    m["wire.request_bytes"] = bytes / static_cast<double>(encode_us.size());
  }

 private:
  void wait_ready(const std::string& name, const std::string& socket) {
    const Clock::time_point start = Clock::now();
    bool added = false;
    while (seconds_since(start) < 30.0) {
      if (!added && std::filesystem::exists(socket)) {
        router_->add_shard(name, wire::parse_endpoint("unix:" + socket));
        added = true;
      }
      if (added) {
        try {
          const wire::HealthInfo info = router_->health(name);
          if (info.accepting && info.models >= kModels) return;
        } catch (const std::exception&) {
          // Not accepting yet; probe again.
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw std::runtime_error("shard " + name + " did not become ready");
  }

  /// Warm-up, outside the timed window: every model through the router
  /// enough times to open pooled connections to both replicas.
  void warm_up() {
    serve::RequestOptions request_options;
    for (std::size_t round = 0; round < 8; ++round) {
      for (std::size_t m = 0; m < kModels; ++m) {
        (void)router_->infer(ids_[m], series_[(round + m) % series_.size()],
                             request_options);
      }
    }
  }

  std::vector<std::unique_ptr<ShardProcess>> shards_;
  std::unique_ptr<serve::Router> router_;
  std::vector<std::string> names_;
  std::vector<std::string> sockets_;
  std::vector<std::string> ids_;
  std::vector<Matrix> series_;
  std::vector<ModelArtifactPtr> artifacts_;
  std::vector<std::vector<Vector>> reference_;
};

}  // namespace

void measure_routed_layers(const Options& options, double seconds,
                           Tracer& tracer, Report& report) {
  RoutedRig rig(options);
  rig.compute_reference(options);
  RoutedLayers layers;
  const serve::ShardCounters before = rig.counters();
  const PhaseResult phase = rig.run_phase(
      make_schedule(kTierQps, seconds, kModels, 0.0, kSeriesPool,
                    options.seed * 31 + 4),
      tracer, report, &layers);
  const serve::ShardCounters after = rig.counters();
  account_phase("routed-tier", phase, report);
  rig.replay_wire(tracer, report);

  auto& m = report.metrics;
  const double router_p50 = percentile(layers.router_us, 50.0);
  const double shard_p50 = percentile(layers.shard_us, 50.0);
  m["router.infer_p50_us"] = router_p50;
  m["router.infer_p99_us"] = percentile(layers.router_us, 99.0);
  m["shard.latency_us"] = shard_p50;
  m["router.overhead_us"] = router_p50 - shard_p50;
  m["router.retried"] = static_cast<double>(after.retried - before.retried);
  m["router.io_failures"] =
      static_cast<double>(after.io_failures - before.io_failures);
  const double p2c = static_cast<double>(
      (after.p2c_primary - before.p2c_primary) +
      (after.p2c_alternate - before.p2c_alternate) +
      (after.p2c_stale - before.p2c_stale));
  m["router.p2c_alternate_frac"] =
      p2c > 0.0 ? static_cast<double>(after.p2c_alternate -
                                      before.p2c_alternate) / p2c
                : 0.0;
}

}  // namespace perfbench
