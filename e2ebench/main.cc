// lpce_e2e: end-to-end serving benchmark of the LPCE engine at its
// production defaults. One run serves one workload through EngineServer,
// with LPCE-I estimating and LPCE-R refining, both published through a
// ModelRegistry, and reports the paper's T_end = T_P + T_I + T_R + T_E next
// to client-observed latency and throughput. It measures from outside the
// program: it times its own Submit/Publish calls and reads RunStats,
// QueryTrace, the server/cache/store/registry counters and metric deltas.
//
// Usage: lpce_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--git-sha SHA] [--out-dir DIR]
// The last line of stdout is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics (from a separate traced phase) with --trace 1.
// See README.md for the workloads and the metric -> layer map.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/server.h"
#include "exec/plan.h"
#include "feedback/feedback_store.h"
#include "harness.h"
#include "lpce/estimators.h"
#include "lpce/model_registry.h"
#include "lpce/tree_model.h"
#include "optimizer/plan_cache.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "workload/workload.h"

extern char** environ;

namespace lpce::e2e {
namespace {

// The served system (database, training set, model initialisation) is fixed
// configuration; --seed drives only the traffic: which queries are served,
// their order, arrival times and template draws.
constexpr uint64_t kDatabaseSeed = 42;
constexpr uint64_t kTrainSeed = 7;
// Closed-loop query pools are fixed too: a 160-query pool drawn per seed
// varies by tens of percent in total work (a handful of re-optimizing
// queries dominate it), which would hide any change under the bound. The
// open loop's unique stream is thousands of queries long and is drawn from
// --seed.
constexpr uint64_t kPoolSeed = 1001;
// The untraced phase is cut into this many equal windows; throughput and
// each percentile are reported as the median over windows, so a burst of
// host noise in one or two windows does not move them.
constexpr int kWindows = 8;
constexpr int kSetupRepeats = 3;
constexpr size_t kPlanCacheCapacity = 1024;  // documented LPCE_PLAN_CACHE capacity
constexpr int kOpenLoopWaiters = 32;

struct Spec {
  const char* name;
  double scale;
  int train_queries;
  int train_min_joins;
  int train_max_joins;
  int min_joins;
  int max_joins;
  /// Canonical-plan row bound for generated queries (training and served).
  size_t max_node_rows;
  /// Distinct served queries for closed loops; 0 = a stream of unique
  /// queries, none repeated within the run (open loop).
  size_t pool;
  bool open_loop;
  double rate_qps;       // open loop: Poisson arrival rate
  size_t warmup_unique;  // open loop: unique warm-up queries before timing
  double zipf_s;         // closed loop: 0 = cycle the pool, else Zipf(s)
  bool feedback;         // harvest into a fresh feedback log
  int publish_every;     // re-publish the models after every N-th issue
};

const Spec kSpecs[] = {
    // Executor- and re-optimization-bound: 6-8 joins at scale 0.2.
    {"join_heavy", 0.2, 40, 6, 8, 6, 8, 200000, 160, false, 0.0, 0, 0.0,
     false, 0},
    // Planning- and inference-bound: 6-8 joins over a tiny database, every
    // query new, Poisson arrivals below capacity.
    {"plan_bound_open", 0.002, 60, 6, 8, 6, 8, 200000, 0, true, 1000.0, 400,
     0.0, false, 0},
    // Cache and registry churn: a Zipf(1.0) template pool larger than the
    // plan cache, feedback harvesting, and periodic model re-publishes.
    {"template_churn", 0.02, 100, 2, 5, 2, 5, 200000, 2048, false, 0.0, 0, 1.0,
     true, 5000},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string out_dir = ".bench_build/e2e_out";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "lpce_e2e: %s\nusage: lpce_e2e --workload join_heavy|"
               "plan_bound_open|template_churn --seed N --seconds S --trace 0|1"
               " [--git-sha SHA] [--out-dir DIR]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + key).c_str());
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.seconds <= 0.0) Usage("--seconds must be positive");
  return args;
}

/// A stray LPCE_* knob (LPCE_EXEC_LATE_MAT, LPCE_PLAN_CACHE_CAP, ...) would
/// silently change the served configuration, so the benchmark refuses it.
void RefuseLpceEnvironment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "LPCE_", 5) == 0) {
      std::fprintf(stderr,
                   "lpce_e2e: refusing to run with %s set: the benchmark "
                   "measures library defaults\n",
                   *env);
      std::exit(2);
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up: what the served program builds before it can answer a query.

struct System {
  std::unique_ptr<db::Database> database;
  std::unique_ptr<stats::DatabaseStats> stats;
  std::unique_ptr<model::FeatureEncoder> encoder;
  std::shared_ptr<model::TreeModel> lpce_i;
  std::shared_ptr<model::LpceR> lpce_r;
  double db_s = 0.0;
  double label_s = 0.0;
  double train_s = 0.0;
};

std::unique_ptr<System> BuildSystem(const Spec& spec) {
  auto sys = std::make_unique<System>();
  WallTimer timer;
  db::SynthImdbOptions db_opts;
  db_opts.seed = kDatabaseSeed;
  db_opts.scale = spec.scale;
  sys->database = db::BuildSynthImdb(db_opts);
  sys->stats = std::make_unique<stats::DatabaseStats>();
  sys->stats->Build(*sys->database);
  sys->encoder = std::make_unique<model::FeatureEncoder>(
      &sys->database->catalog(), sys->stats.get());
  sys->db_s = timer.ElapsedSeconds();

  timer.Restart();
  wk::GeneratorOptions gen;
  gen.seed = kTrainSeed;
  gen.require_nonempty = true;
  gen.max_node_rows = spec.max_node_rows;
  const std::vector<wk::LabeledQuery> train =
      wk::QueryGenerator(sys->database.get(), gen)
          .GenerateLabeled(spec.train_queries, spec.train_min_joins,
                           spec.train_max_joins);
  sys->label_s = timer.ElapsedSeconds();

  timer.Restart();
  // LPCE-I at the student shape (32/32/64), trained directly: the served
  // computation is the distilled model's, without the teacher's cost.
  model::TreeModelConfig config;
  config.feature_dim = sys->encoder->dim();
  config.dim = 32;
  config.embed_hidden = 32;
  config.out_hidden = 64;
  config.log_max_card = std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  config.seed = 11;
  sys->lpce_i = std::make_shared<model::TreeModel>(sys->encoder.get(), config);
  model::TrainOptions node_wise;
  node_wise.epochs = 24;
  node_wise.tag = "lpce_i";
  model::TrainTreeModel(sys->lpce_i.get(), *sys->database, train, node_wise);
  sys->lpce_r = std::make_shared<model::LpceR>(sys->encoder.get(), config,
                                               model::RefinerMode::kFull);
  model::LpceRTrainOptions refine;
  refine.pretrain = node_wise;
  refine.pretrain.tag = "lpce_r_pretrain";
  refine.refine_epochs = 8;
  refine.prefixes_per_query = 4;
  refine.pretrained_content = sys->lpce_i.get();
  refine.tag = "lpce_r";
  model::TrainLpceR(sys->lpce_r.get(), *sys->database, train, refine);
  sys->train_s = timer.ElapsedSeconds();
  return sys;
}

// ---------------------------------------------------------------------------
// Served inputs: generated from --seed on every core, labelled by the
// canonical-plan oracle, deduplicated by the plan cache's exact template key.

struct ServedQuery {
  qry::Query query;
  uint64_t label = 0;
};

std::vector<ServedQuery> GenerateServed(const System& sys, const Spec& spec,
                                        uint64_t seed, size_t count,
                                        int threads) {
  model::TreeModelEstimator keyer("LPCE-I", sys.lpce_i.get(), sys.database.get());
  std::unordered_set<std::string> seen;
  std::vector<ServedQuery> out;
  for (uint64_t round = 0; out.size() < count; ++round) {
    const size_t need = count - out.size();
    const size_t per_thread = (need + need / 20 + 8) / static_cast<size_t>(threads) + 1;
    std::vector<std::vector<ServedQuery>> chunks(static_cast<size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const uint64_t stream = MixSeed(seed, round * 1024 + static_cast<uint64_t>(t));
        wk::GeneratorOptions gen;
        gen.seed = stream;
        gen.require_nonempty = true;
        gen.max_node_rows = spec.max_node_rows;
        wk::QueryGenerator generator(sys.database.get(), gen);
        Rng rng(MixSeed(stream, 1));
        auto& chunk = chunks[static_cast<size_t>(t)];
        for (size_t i = 0; i < per_thread; ++i) {
          wk::LabeledQuery labeled;
          labeled.query = generator.Generate(
              static_cast<int>(rng.UniformInt(spec.min_joins, spec.max_joins)));
          wk::LabelQuery(*sys.database, &labeled);
          const uint64_t label = labeled.FinalCard();
          chunk.push_back({std::move(labeled.query), label});
        }
      });
    }
    for (auto& t : pool) t.join();
    for (auto& chunk : chunks) {
      for (auto& q : chunk) {
        if (out.size() == count) break;
        if (!seen.insert(opt::PlanCache::Fingerprint(q.query, keyer).canonical).second) {
          continue;
        }
        out.push_back(std::move(q));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Samples: what one served query reports, kept compact.

constexpr int kNumOps = 6;
const char* const kOpNames[kNumOps] = {"SeqScan",  "IndexScan",    "HashJoin",
                                       "MergeJoin", "NestLoopJoin", "PseudoScan"};

int OpIndex(const std::string& name) {
  for (int i = 0; i < kNumOps; ++i) {
    if (name == kOpNames[i]) return i;
  }
  return -1;
}

/// Operator-level detail, collected in traced phases only.
struct SampleDetail {
  std::vector<std::pair<int, double>> ops;  // (kind, wall s), completion order
  std::vector<double> qerrors;              // non-pseudo operator spans
  uint64_t rows = 0;                        // rows produced by all operators
};

/// Kept compact: closed loops hold one per completed query for the whole
/// run, and their memory lands in peak_rss_mb.
struct Sample {
  double start = 0.0;  // send (closed loop) or scheduled (open loop) time
  double done = 0.0;
  float lag = 0.0f;    // generator lateness / client re-issue gap
  float plan = 0.0f, infer = 0.0f, reopt = 0.0f, exec = 0.0f;
  uint32_t qidx = 0;
  uint32_t estimates = 0;
  uint32_t initial_estimates = 0;
  uint16_t reopts = 0;
  bool ok = false;        // result_count == label
  bool rejected = false;  // admission refused
  bool hit = false;
  uint64_t peak_bytes = 0;
  uint64_t outcome = 0;  // hash of final plan, result count, num_reopts
  std::unique_ptr<SampleDetail> detail;

  double latency() const { return done - start; }
  double t_end() const {
    return static_cast<double>(plan) + infer + reopt + exec;
  }
};

/// The pretty-printed plan without its per-operator wall times.
std::string DeterministicPlan(const std::string& plan) {
  std::string out;
  out.reserve(plan.size());
  size_t pos = 0;
  for (;;) {
    const size_t t = plan.find(" time=", pos);
    if (t == std::string::npos) break;
    out.append(plan, pos, t - pos);
    const size_t ms = plan.find("ms", t);
    pos = ms == std::string::npos ? plan.size() : ms + 2;
  }
  out.append(plan, pos, std::string::npos);
  return out;
}

void FillSample(const eng::RunStats& stats, const ServedQuery& served,
                bool traced, Sample* s) {
  s->ok = stats.result_count == served.label;
  s->plan = static_cast<float>(stats.plan_seconds);
  s->infer = static_cast<float>(stats.inference_seconds);
  s->reopt = static_cast<float>(stats.reopt_seconds);
  s->exec = static_cast<float>(stats.exec_seconds);
  s->reopts = static_cast<uint16_t>(stats.num_reopts);
  s->estimates = static_cast<uint32_t>(stats.num_estimates);
  s->peak_bytes = stats.peak_intermediate_bytes;
  s->outcome = Fnv1a(DeterministicPlan(stats.final_plan) + "|" +
                     std::to_string(stats.result_count) + "|" +
                     std::to_string(stats.num_reopts));
  for (const eng::TraceEvent& e : stats.trace->events()) {
    if (e.kind != eng::TraceEventKind::kPlan || e.decision != "initial") continue;
    s->hit = e.cache_decision == "hit";
    s->initial_estimates = static_cast<uint32_t>(e.num_estimates);
  }
  if (!traced) return;
  s->detail = std::make_unique<SampleDetail>();
  for (const eng::TraceSpan& span : stats.trace->spans()) {
    s->detail->ops.emplace_back(OpIndex(span.op), span.wall_seconds);
    s->detail->rows += span.actual_card;
    if (span.op != "PseudoScan") s->detail->qerrors.push_back(span.qerror);
  }
}

// ---------------------------------------------------------------------------
// Load generators.

struct Workbench {
  const Spec& spec;
  System& sys;
  eng::EngineServer& server;
  model::ModelRegistry& registry;
  const std::vector<ServedQuery>& queries;
  int clients;
  std::vector<double> publish_us;
  std::vector<Span> publish_spans;
  std::mutex publish_mu;
};

/// Closed loop: `clients` threads, each sending its next query as soon as
/// the previous one returns. `pick(client, k)` names the k-th query of a
/// client (nullopt ends that client); clients stop issuing at the deadline.
std::vector<Sample> RunClosedLoop(
    Workbench& wb, double seconds, bool traced,
    const std::function<std::optional<size_t>(int, size_t)>& pick) {
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(wb.clients));
  std::atomic<uint64_t> issued{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      seconds > 0.0 ? start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))
                    : Clock::time_point::max();
  std::vector<std::thread> threads;
  for (int c = 0; c < wb.clients; ++c) {
    threads.emplace_back([&, c] {
      auto& samples = per_client[static_cast<size_t>(c)];
      samples.reserve(1 << 16);  // untouched pages cost no resident memory
      double last_done = 0.0;
      for (size_t k = 0;; ++k) {
        if (Clock::now() >= deadline) break;
        const std::optional<size_t> idx = pick(c, k);
        if (!idx.has_value()) break;
        const uint64_t n = issued.fetch_add(1) + 1;
        if (wb.spec.publish_every > 0 && n % static_cast<uint64_t>(wb.spec.publish_every) == 0) {
          const Clock::time_point p0 = Clock::now();
          wb.registry.Publish(wb.sys.lpce_i, wb.sys.lpce_r, "republish@" + std::to_string(n));
          const Clock::time_point p1 = Clock::now();
          std::lock_guard<std::mutex> lock(wb.publish_mu);
          wb.publish_us.push_back(SecondsBetween(p0, p1) * 1e6);
          if (traced) {
            Span span;
            span.trace_id = (1ull << 63) | n;
            span.name = "registry.publish";
            span.start = SecondsBetween(start, p0);
            span.end = SecondsBetween(start, p1);
            wb.publish_spans.push_back(std::move(span));
          }
        }
        Sample s;
        s.qidx = static_cast<uint32_t>(*idx);
        const Clock::time_point sent = Clock::now();
        s.start = SecondsBetween(start, sent);
        s.lag = k == 0 ? 0.0f : static_cast<float>(s.start - last_done);
        auto admitted = wb.server.Submit(wb.queries[*idx].query);
        if (!admitted.ok()) {
          s.rejected = true;
          s.done = s.start;
        } else {
          const eng::RunStats stats = admitted.value().get();
          s.done = SecondsBetween(start, Clock::now());
          FillSample(stats, wb.queries[*idx], traced, &s);
        }
        last_done = s.done;
        samples.push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Sample> all = std::move(per_client[0]);
  for (size_t c = 1; c < per_client.size(); ++c) {
    for (auto& s : per_client[c]) all.push_back(std::move(s));
    std::vector<Sample>().swap(per_client[c]);
  }
  return all;
}

/// Open loop over queries[first, first + schedule.size()).
std::vector<Sample> RunOpenLoopPhase(Workbench& wb, size_t first,
                                     const std::vector<double>& schedule,
                                     bool traced, uint64_t* waiter_backlog) {
  std::vector<Sample> samples(schedule.size());
  const std::function<std::optional<std::shared_future<eng::RunStats>>(size_t)>
      submit = [&](size_t i) -> std::optional<std::shared_future<eng::RunStats>> {
    auto admitted = wb.server.Submit(wb.queries[first + i].query);
    if (!admitted.ok()) return std::nullopt;
    return admitted.value();
  };
  const std::function<void(size_t, const eng::RunStats&)> on_result =
      [&](size_t i, const eng::RunStats& stats) {
        FillSample(stats, wb.queries[first + i], traced, &samples[i]);
      };
  const std::vector<OpenLoopRecord> records = RunOpenLoop<eng::RunStats>(
      schedule, submit, on_result, kOpenLoopWaiters, waiter_backlog);
  for (size_t i = 0; i < samples.size(); ++i) {
    Sample& s = samples[i];
    s.qidx = static_cast<uint32_t>(first + i);
    s.start = records[i].scheduled;
    s.done = records[i].done;
    s.lag = static_cast<float>(records[i].sent - records[i].scheduled);
    s.rejected = !records[i].admitted;
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// Writing 5 to clear_refs resets the kernel's resident high-water mark
/// (VmHWM) to the current RSS, so the peak covers the timed phase only.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return clear.good();
}

double VmHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// (steal, total) jiffies of all CPUs from /proc/stat. Steal is time the
/// hypervisor ran something else while this machine's vCPUs were runnable;
/// the report prints its share so host noise can be told from a regression.
std::pair<uint64_t, uint64_t> CpuStealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

template <typename F>
std::vector<double> Collect(const std::vector<Sample>& samples, F f) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (!s.rejected) out.push_back(f(s));
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Root span per query from its send (or scheduled) time to its result,
/// children from its RunStats phases, grandchildren from its executed
/// operators. RunStats carries durations, not start times, so children are
/// laid out back to back in the order the engine runs them.
void AppendQuerySpans(const Sample& s, uint64_t trace_id, std::vector<Span>* out) {
  const int root = static_cast<int>(out->size());
  out->push_back({trace_id, -1, "query", s.start, s.done});
  double t = s.start;
  auto child = [&](const char* name, double seconds, int parent) {
    out->push_back({trace_id, parent, name, t, t + seconds});
    t += seconds;
    return static_cast<int>(out->size()) - 1;
  };
  child("server.queue_wait", std::max(0.0, s.latency() - s.t_end()), root);
  child("lpce.infer", s.infer, root);
  child("optimizer.plan", s.plan, root);
  const double exec_start = t;
  const int exec = child("exec", s.exec, root);
  double op_t = exec_start;
  if (s.detail) {
    for (const auto& [op, wall] : s.detail->ops) {
      const std::string name = std::string("exec.") + (op >= 0 ? kOpNames[op] : "other");
      out->push_back({trace_id, exec, name, op_t, op_t + wall});
      op_t += wall;
    }
  }
  child("reopt", s.reopt, root);
}

}  // namespace

int Main(int argc, char** argv) {
  RefuseLpceEnvironment();
  const Args args = ParseArgs(argc, argv);
  const Spec* spec_ptr = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec_ptr = &s;
  }
  if (spec_ptr == nullptr) Usage(("unknown workload '" + args.workload + "'").c_str());
  const Spec& spec = *spec_ptr;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  eng::RunConfig run_config;  // library defaults, plus the LPCE-R trigger policy
  run_config.enable_reopt = true;
  run_config.underestimates_only = true;
  run_config.min_trip_rows = 2000;
  run_config.consider_restart = false;
  std::printf(
      "config {\"workload\":\"%s\",\"git_sha\":\"%s\",\"nproc\":%d,"
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%d,\"scale\":%g,"
      "\"database_seed\":%llu,\"train_seed\":%llu,\"train_queries\":%d,"
      "\"joins\":\"%d-%d\",\"load\":\"%s\",\"rate_qps\":%g,\"pool\":%zu,"
      "\"zipf_s\":%g,\"feedback\":%d,\"publish_every\":%d,"
      "\"num_workers\":%d,\"global_pool\":%d,\"plan_cache_capacity\":%zu,"
      "\"max_queue\":%zu,\"enable_reopt\":1,\"qerror_threshold\":%g,"
      "\"max_reopts\":%d,\"underestimates_only\":1,\"min_trip_rows\":%zu,"
      "\"consider_restart\":0,\"exec_threads\":%d,\"exec_batch_size\":%d,"
      "\"exec_late_mat\":%d,\"setup_repeats\":%d}\n",
      spec.name, args.git_sha.c_str(), nproc,
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
      spec.scale, static_cast<unsigned long long>(kDatabaseSeed),
      static_cast<unsigned long long>(kTrainSeed), spec.train_queries,
      spec.min_joins, spec.max_joins,
      spec.open_loop ? "open/poisson" : "closed", spec.rate_qps, spec.pool,
      spec.zipf_s, spec.feedback ? 1 : 0, spec.publish_every, nproc,
      common::GlobalPool().size(), kPlanCacheCapacity,
      eng::ServerOptions{}.max_queue, run_config.qerror_threshold,
      run_config.max_reopts, run_config.min_trip_rows, run_config.exec_threads,
      run_config.exec_batch_size, run_config.exec_late_mat, kSetupRepeats);
  std::fflush(stdout);

  // ---- Set-up, repeated; the last build serves. -------------------------
  std::unique_ptr<System> sys;
  std::vector<double> setup_s, db_s, label_s, train_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    sys.reset();
    WallTimer timer;
    sys = BuildSystem(spec);
    setup_s.push_back(timer.ElapsedSeconds());
    db_s.push_back(sys->db_s);
    label_s.push_back(sys->label_s);
    train_s.push_back(sys->train_s);
  }

  // ---- Served inputs (benchmark side, not part of set-up). -------------
  WallTimer input_timer;
  size_t count = spec.pool;
  if (spec.open_loop) {
    const double expected = spec.rate_qps * args.seconds;
    count = spec.warmup_unique + static_cast<size_t>(expected + 6.0 * std::sqrt(expected) + 64.0);
  }
  const std::vector<ServedQuery> queries =
      GenerateServed(*sys, spec, spec.pool > 0 ? kPoolSeed : args.seed, count, nproc);
  const double input_gen_s = input_timer.ElapsedSeconds();

  // ---- The served stack. -------------------------------------------------
  model::ModelRegistry registry;
  std::vector<double> publish_us;
  {
    WallTimer t;
    registry.Publish(sys->lpce_i, sys->lpce_r, "initial");
    publish_us.push_back(t.ElapsedMicros());
  }
  std::unique_ptr<fb::FeedbackStore> feedback;
  const std::string feedback_dir = args.out_dir + "/feedback-" + spec.name;
  if (spec.feedback) {
    std::filesystem::remove_all(feedback_dir);
    std::filesystem::create_directories(feedback_dir);
    fb::FeedbackStoreOptions fb_opts;
    fb_opts.dir = feedback_dir;
    feedback = std::make_unique<fb::FeedbackStore>(fb_opts);
  }
  eng::ServerOptions options;
  options.num_workers = nproc;
  options.run_config = run_config;
  options.plan_cache_capacity = kPlanCacheCapacity;
  options.model_registry = &registry;
  options.feedback_store = feedback.get();
  const db::Database* database = sys->database.get();
  eng::EngineServer server(
      database, opt::CostModel{},
      [database](int, const model::ModelVersion& version) {
        eng::EngineServer::Session session;
        session.initial = std::make_unique<model::TreeModelEstimator>(
            "LPCE-I", version.model.get(), database);
        session.refiner =
            std::make_unique<model::LpceREstimator>(version.refiner.get(), database);
        return session;
      },
      options);

  Workbench wb{spec, *sys, server, registry, queries, nproc, {}, {}, {}};
  wb.publish_us = publish_us;

  // ---- Warm-up: every pool query once (or the unique warm-up prefix). ---
  const size_t warm_n = spec.open_loop ? spec.warmup_unique : queries.size();
  std::atomic<size_t> next{0};
  const std::vector<Sample> warm = RunClosedLoop(
      wb, 0.0, false, [&](int, size_t) -> std::optional<size_t> {
        const size_t i = next.fetch_add(1);
        if (i >= warm_n) return std::nullopt;
        return i;
      });
  std::vector<uint64_t> expected(queries.size(), 0);
  for (const Sample& s : warm) expected[s.qidx] = s.outcome;

  // ---- Timed phases. -----------------------------------------------------
  // Untraced: one phase of --seconds. Traced: an untraced half, then a
  // traced half; the difference between the two is the tracing overhead.
  struct Phase {
    bool traced = false;
    double seconds = 0.0;
    std::vector<Sample> samples;
    double wall = 0.0;
    common::MetricsSnapshot metrics;
    uint64_t rejected = 0;
    uint64_t session_rebuilds = 0;
    opt::PlanCacheCounters cache;
    uint64_t appended = 0;
    uint64_t waiter_backlog = 0;
  };
  std::vector<Phase> phases;
  for (int p = 0; p < (args.trace ? 2 : 1); ++p) {
    phases.emplace_back();
    phases.back().traced = p == 1;
    phases.back().seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  }
  malloc_trim(0);
  const bool rss_reset = ResetPeakRss();
  const std::pair<uint64_t, uint64_t> steal0 = CpuStealJiffies();
  size_t open_first = warm_n;
  ZipfSampler zipf(queries.size(), spec.zipf_s > 0.0 ? spec.zipf_s : 1.0);
  for (size_t p = 0; p < phases.size(); ++p) {
    Phase& phase = phases[p];
    const common::MetricsSnapshot m0 = common::MetricsRegistry::Global().Snapshot();
    const eng::EngineServer::Counters s0 = server.counters();
    const opt::PlanCacheCounters c0 = server.plan_cache()->counters();
    const uint64_t a0 = feedback ? feedback->counters().appended : 0;
    WallTimer wall;
    if (spec.open_loop) {
      const std::vector<double> schedule =
          PoissonSchedule(MixSeed(args.seed, 100 + p), spec.rate_qps, phase.seconds);
      if (open_first + schedule.size() > queries.size()) {
        std::fprintf(stderr, "lpce_e2e: unique query stream exhausted\n");
        return 1;
      }
      phase.samples =
          RunOpenLoopPhase(wb, open_first, schedule, phase.traced, &phase.waiter_backlog);
      open_first += schedule.size();
    } else {
      std::vector<Rng> rngs;
      for (int c = 0; c < nproc; ++c) rngs.emplace_back(MixSeed(args.seed, 200 + p * 64 + c));
      // Cycling: all clients take the next query of one shared sequence, a
      // fresh seeded shuffle of the pool per pass, so which queries run side
      // by side keeps changing instead of repeating every pass.
      const size_t n = queries.size();
      std::vector<uint32_t> order;
      Rng shuffle(MixSeed(args.seed, 300 + p));
      std::atomic<size_t> next_in_order{0};
      if (spec.zipf_s == 0.0) {
        const size_t passes =
            static_cast<size_t>(phase.seconds * 2000.0 / static_cast<double>(n)) + 2;
        for (size_t pass = 0; pass < passes; ++pass) {
          std::vector<uint32_t> perm(n);
          for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
          for (size_t i = n - 1; i > 0; --i) {
            std::swap(perm[i], perm[shuffle.Uniform(i + 1)]);
          }
          order.insert(order.end(), perm.begin(), perm.end());
        }
      }
      phase.samples = RunClosedLoop(
          wb, phase.seconds, phase.traced, [&](int c, size_t) -> std::optional<size_t> {
            if (spec.zipf_s > 0.0) {
              return zipf.Sample(rngs[static_cast<size_t>(c)].UniformDouble());
            }
            const size_t k = next_in_order.fetch_add(1);
            if (k >= order.size()) return std::nullopt;
            return order[k];
          });
    }
    phase.wall = wall.ElapsedSeconds();
    phase.metrics = common::Delta(m0, common::MetricsRegistry::Global().Snapshot());
    const eng::EngineServer::Counters s1 = server.counters();
    phase.rejected = s1.rejected - s0.rejected;
    phase.session_rebuilds = s1.session_rebuilds - s0.session_rebuilds;
    const opt::PlanCacheCounters c1 = server.plan_cache()->counters();
    phase.cache.hits = c1.hits - c0.hits;
    phase.cache.misses = c1.misses - c0.misses;
    phase.cache.evictions = c1.evictions - c0.evictions;
    phase.cache.invalidations = c1.invalidations - c0.invalidations;
    phase.appended = (feedback ? feedback->counters().appended : 0) - a0;
  }
  const double peak_rss_mb = VmHwmMb();
  const std::pair<uint64_t, uint64_t> steal1 = CpuStealJiffies();
  const double steal_frac = Ratio(static_cast<double>(steal1.first - steal0.first),
                                  static_cast<double>(steal1.second - steal0.second));
  server.Shutdown();

  // ---- Correctness, determinism and the plan digest. ---------------------
  // Every served query counts, the warm-up pass included.
  uint64_t attempted = 0, failed = 0, mismatches = 0, rejected = 0,
           divergences = 0, tend_violations = 0;
  auto check = [&](const Sample& s) {
    ++attempted;
    if (s.rejected) {
      ++rejected;
      ++failed;
      return false;
    }
    if (!s.ok) {
      ++mismatches;
      ++failed;
    }
    // T_end is timed inside the query's interval as the client saw it.
    if (s.t_end() > s.latency() + 50e-6) ++tend_violations;
    return true;
  };
  for (const Sample& s : warm) check(s);
  for (const Phase& phase : phases) {
    for (const Sample& s : phase.samples) {
      if (!check(s)) continue;
      if (spec.open_loop) {
        expected[s.qidx] = s.outcome;
      } else if (s.outcome != expected[s.qidx]) {
        ++divergences;
      }
    }
  }
  uint64_t digest = 1469598103934665603ull;
  for (uint64_t h : expected) digest = Fnv1a(std::to_string(h) + ";", digest);

  // ---- Metrics. ----------------------------------------------------------
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit, size_t n) {
    metrics.push_back({name, value, unit, n});
  };
  const size_t reps = static_cast<size_t>(kSetupRepeats);
  const double setup_median = Quantile(setup_s, 0.5);
  std::string self_report;
  if (!args.trace) {
    const Phase& ph = phases[0];
    const size_t n = Collect(ph.samples, [](const Sample& s) { return s.latency(); }).size();
    size_t min_window_n = n;
    std::vector<double> w_qps, w_lat50, w_lat99, w_tend50, w_tend99;
    for (int w = 0; w < kWindows; ++w) {
      const double lo = ph.seconds * w / kWindows;
      const double hi = ph.seconds * (w + 1) / kWindows;
      std::vector<double> wl, wt;
      for (const Sample& s : ph.samples) {
        if (s.rejected || s.done < lo || s.done >= hi) continue;
        wl.push_back(s.latency() * 1e3);
        wt.push_back(s.t_end() * 1e3);
      }
      w_qps.push_back(static_cast<double>(wl.size()) / (hi - lo));
      w_lat50.push_back(Quantile(wl, 0.5));
      w_lat99.push_back(Quantile(wl, 0.99));
      w_tend50.push_back(Quantile(wt, 0.5));
      w_tend99.push_back(Quantile(wt, 0.99));
      min_window_n = std::min(min_window_n, wl.size());
    }
    add("qps", Quantile(w_qps, 0.5), "1/s", n);
    add("latency_p50_ms", Quantile(w_lat50, 0.5), "ms", n);
    add("latency_p99_ms", Quantile(w_lat99, 0.5), "ms", min_window_n);
    add("t_end_p50_ms", Quantile(w_tend50, 0.5), "ms", n);
    add("t_end_p99_ms", Quantile(w_tend99, 0.5), "ms", min_window_n);
    add("setup_s", setup_median, "s", reps);
    add("peak_rss_mb", peak_rss_mb, "MB", 1);
  } else {
    const Phase& base = phases[0];
    const Phase& ph = phases[1];
    const auto& S = ph.samples;
    auto of = [&S](double (*f)(const Sample&)) { return Collect(S, f); };
    const std::vector<double> lat = of([](const Sample& s) { return s.latency(); });
    const size_t n = lat.size();
    const double dn = static_cast<double>(n);
    const double sum_tend = Sum(of([](const Sample& s) { return s.t_end(); }));
    auto share = [&](const std::vector<double>& v) { return Ratio(Sum(v), sum_tend); };
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    auto counter = [&](const char* name) {
      auto it = ph.metrics.counters.find(name);
      return it == ph.metrics.counters.end() ? 0.0 : count(it->second);
    };

    const std::vector<double> wait_ms =
        of([](const Sample& s) { return std::max(0.0, s.latency() - s.t_end()) * 1e3; });
    add("server.queue_wait_ms.p50", Quantile(wait_ms, 0.5), "ms", n);
    add("server.queue_wait_ms.p99", Quantile(wait_ms, 0.99), "ms", n);
    add("server.busy_frac", Ratio(sum_tend, ph.wall * nproc), "ratio", n);
    add("server.rejected", count(ph.rejected), "count", n);
    add("server.session_rebuilds", count(ph.session_rebuilds), "count", n);

    const std::vector<double> plan = of([](const Sample& s) { return double{s.plan}; });
    const std::vector<double> est =
        of([](const Sample& s) { return static_cast<double>(s.estimates); });
    add("optimizer.plan_ms.p50", Quantile(plan, 0.5) * 1e3, "ms", n);
    add("optimizer.plan_share", share(plan), "ratio", n);
    add("optimizer.estimates_per_query", Ratio(Sum(est), dn), "count", n);

    // On a hit T_P is the cache lookup; a miss runs initial inference.
    std::vector<double> hit_lookup_us, miss_infer_ms;
    for (const Sample& s : S) {
      if (s.rejected) continue;
      if (s.hit) {
        hit_lookup_us.push_back(s.plan * 1e6);
      } else {
        miss_infer_ms.push_back(s.infer * 1e3);
      }
    }
    const double lookups = count(ph.cache.hits + ph.cache.misses);
    add("plan_cache.hit_ratio", Ratio(count(ph.cache.hits), lookups), "ratio", n);
    add("plan_cache.hit_lookup_us.p50", Quantile(hit_lookup_us, 0.5), "us",
        hit_lookup_us.size());
    add("plan_cache.evictions", count(ph.cache.evictions), "count", n);
    add("plan_cache.invalidations", count(ph.cache.invalidations), "count", n);

    const std::vector<double> infer = of([](const Sample& s) { return double{s.infer}; });
    const double init_est =
        Sum(of([](const Sample& s) { return static_cast<double>(s.initial_estimates); }));
    std::vector<double> qerrors;
    for (const Sample& s : S) {
      if (!s.detail) continue;
      qerrors.insert(qerrors.end(), s.detail->qerrors.begin(), s.detail->qerrors.end());
    }
    add("lpce.infer_ms.p50", Quantile(miss_infer_ms, 0.5), "ms", miss_infer_ms.size());
    add("lpce.infer_share", share(infer), "ratio", n);
    add("lpce.infer_us_per_estimate", Ratio(Sum(infer) * 1e6, init_est), "us",
        static_cast<size_t>(init_est));
    add("lpce.infer_nodes_per_query", Ratio(counter("lpce.infer.nodes_total"), dn), "count", n);
    add("lpce.qerror.p50", Quantile(qerrors, 0.5), "ratio", qerrors.size());
    add("lpce.qerror.p95", Quantile(qerrors, 0.95), "ratio", qerrors.size());

    std::vector<double> reopt_ms;
    double trips = 0.0;
    for (const Sample& s : S) {
      if (s.rejected || s.reopts == 0) continue;
      reopt_ms.push_back(s.reopt * 1e3);
      trips += s.reopts;
    }
    add("reopt.trip_ratio", Ratio(static_cast<double>(reopt_ms.size()), dn), "ratio", n);
    add("reopt.ms.p50", Quantile(reopt_ms, 0.5), "ms", reopt_ms.size());
    add("reopt.share", share(of([](const Sample& s) { return double{s.reopt}; })), "ratio", n);
    add("reopt.refiner_estimates_per_trip",
        Ratio(counter("lpce.refiner.estimates_total"), trips), "count",
        static_cast<size_t>(trips));

    const std::vector<double> exec = of([](const Sample& s) { return double{s.exec}; });
    const double sum_exec = Sum(exec);
    double op_wall[kNumOps] = {};
    double rows = 0.0;
    for (const Sample& s : S) {
      if (!s.detail) continue;
      for (const auto& [op, wall] : s.detail->ops) {
        if (op >= 0) op_wall[op] += wall;
      }
      rows += static_cast<double>(s.detail->rows);
    }
    add("exec.ms.p50", Quantile(exec, 0.5) * 1e3, "ms", n);
    add("exec.share", share(exec), "ratio", n);
    for (int op = 0; op < kNumOps; ++op) {
      add(std::string("exec.op_share.") + kOpNames[op], Ratio(op_wall[op], sum_exec), "ratio",
          n);
    }
    add("exec.rows_per_ms", Ratio(rows, sum_exec * 1e3), "rows/ms", n);
    const std::vector<double> peak_mb =
        of([](const Sample& s) { return static_cast<double>(s.peak_bytes) / (1 << 20); });
    add("exec.peak_intermediate_mb.p50", Quantile(peak_mb, 0.5), "MB", n);
    add("exec.peak_intermediate_mb.p99", Quantile(peak_mb, 0.99), "MB", n);

    const uint64_t appended_total = feedback ? feedback->counters().appended : 0;
    const double log_bytes = feedback ? count(DirBytes(feedback_dir)) : 0.0;
    add("feedback.appended_per_query", Ratio(count(ph.appended), dn), "count", n);
    add("feedback.log_bytes_per_query", Ratio(log_bytes, count(appended_total)), "bytes",
        appended_total);
    add("feedback.disk_errors", counter("lpce.feedback.disk_errors_total"), "count", n);

    add("registry.publish_us.p50", Quantile(wb.publish_us, 0.5), "us", wb.publish_us.size());
    add("registry.publishes", count(registry.counters().published), "count", 1);

    add("setup.db_build_s", Quantile(db_s, 0.5), "s", reps);
    add("setup.label_s", Quantile(label_s, 0.5), "s", reps);
    add("setup.train_s", Quantile(train_s, 0.5), "s", reps);

    const std::vector<double> lag = of([](const Sample& s) { return s.lag * 1e3; });
    add("bench.generator_lag_ms.p99", Quantile(lag, 0.99), "ms", n);
    add("bench.input_gen_s", input_gen_s, "s", queries.size());
    const std::vector<double> base_lat =
        Collect(base.samples, [](const Sample& s) { return s.latency(); });
    const double base_mean = Ratio(Sum(base_lat), static_cast<double>(base_lat.size()));
    const double traced_mean = Ratio(Sum(lat), dn);
    add("bench.trace_overhead_frac", Ratio(traced_mean - base_mean, base_mean), "ratio", n);

    // Spans: kept in memory during the phase, written out now.
    std::vector<Span> spans;
    for (size_t i = 0; i < S.size(); ++i) {
      if (!S[i].rejected) AppendQuerySpans(S[i], i, &spans);
    }
    spans.insert(spans.end(), wb.publish_spans.begin(), wb.publish_spans.end());
    const auto self = SelfTimes(spans);
    for (const char* layer :
         {"server.queue_wait", "lpce.infer", "optimizer.plan", "exec", "reopt"}) {
      double v = 0.0;
      for (const auto& [name, secs] : self) {
        if (name == layer) v = secs;
      }
      add(std::string("trace.self_ms_per_query.") + layer, Ratio(v * 1e3, dn), "ms", n);
    }
    char buf[160];
    for (const auto& [name, secs] : self) {
      std::snprintf(buf, sizeof(buf), "self %-26s %12.3f ms  %6.2f%% of client time\n",
                    name.c_str(), secs * 1e3, 100.0 * Ratio(secs, Sum(lat)));
      self_report += buf;
    }
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans-" + spec.name + ".jsonl";
    std::ofstream(path) << SpansToJsonl(spans);
    self_report += "spans written to " + path + "\n";
  }

  // ---- Report. -----------------------------------------------------------
  const bool correct = mismatches == 0 && tend_violations == 0;
  using ull = unsigned long long;
  std::printf("workload %s seed %llu: %llu attempted, %llu failed (failed_frac %.6f: %llu "
              "row-count mismatches, %llu rejected), %llu T_end>latency violations, %llu plan "
              "divergences from warm-up\n",
              spec.name, static_cast<ull>(args.seed), static_cast<ull>(attempted),
              static_cast<ull>(failed),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<ull>(mismatches), static_cast<ull>(rejected),
              static_cast<ull>(tend_violations), static_cast<ull>(divergences));
  std::printf("plan_digest %s %016llx over %zu queries\n", spec.name,
              static_cast<unsigned long long>(digest), expected.size());
  std::string setup_list;
  for (double v : setup_s) {
    setup_list += (setup_list.empty() ? "" : ", ") + std::to_string(v);
  }
  std::printf("setup %.3fs median of [%s] (db %.3fs, label %.3fs, train %.3fs); "
              "inputs %.3fs for %zu queries\n",
              setup_median, setup_list.c_str(), Quantile(db_s, 0.5), Quantile(label_s, 0.5),
              Quantile(train_s, 0.5), input_gen_s, queries.size());
  std::printf("host steal %.2f%% of CPU time during the timed phase\n", 100.0 * steal_frac);
  if (!rss_reset) std::printf("note: VmHWM reset unavailable; peak_rss_mb is the process peak\n");
  for (const Phase& ph : phases) {
    if (ph.waiter_backlog > 0) {
      std::printf("note: %llu results waited for a free waiter thread\n",
                  static_cast<unsigned long long>(ph.waiter_backlog));
    }
  }
  std::fputs(self_report.c_str(), stdout);
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %14.6f %-7s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
    if (m.name == "latency_p99_ms" || m.name == "t_end_p99_ms") {
      std::printf("       highest percentile with >=10 samples beyond: p%g\n",
                  HighestBackedPercentile(m.samples));
    }
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace lpce::e2e

int main(int argc, char** argv) { return lpce::e2e::Main(argc, argv); }
