// quanta_bench: the repository's benchmark. Usually started through
// qbench/run.py, which builds it first:
//
//   quanta_bench --workload zone-mc|prob-brp|svc-mix --seed N
//                --seconds S --trace 0|1 [--out-dir DIR]
//                [--git-sha SHA] [--source-digest HEX]
//
// An untraced run (--trace 0) measures the workload's end-to-end metrics for
// S seconds. A traced run (--trace 1) measures every layer's metrics, each on
// the workload that exercises that layer, with spans recorded around the
// calls into the layer and written to DIR/trace-<workload>-<seed>.csv.
// Every answer is checked. Standard output ends with a details line
// (provenance, per-metric seeds, failures) and then the result line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

using namespace qb;

namespace {

bool parse_args(int argc, char** argv, Args* a, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a->workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a->seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a->seconds = std::stod(v);
        have_seconds = a->seconds > 0.0;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") throw std::invalid_argument(v);
        a->trace = v == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        a->out_dir = v;
      } else if (flag == "--git-sha") {
        a->git_sha = v;
      } else if (flag == "--source-digest") {
        a->source_digest = v;
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + v;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "--workload, --seed, --seconds (> 0) and --trace are required";
    return false;
  }
  if (a->workload != "zone-mc" && a->workload != "prob-brp" &&
      a->workload != "svc-mix") {
    *error = "unknown workload " + a->workload;
    return false;
  }
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Json provenance(const Args& a) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  Json p;
  p.integer("nproc", std::thread::hardware_concurrency())
      .str("cpu", cpu_model())
      .str("compiler", QB_COMPILER)
      .str("build_type", QB_BUILD_TYPE)
      .boolean("optimized", optimized)
      .str("git_sha", a.git_sha)
      .str("source_digest", a.source_digest)
      .integer("seed", static_cast<std::int64_t>(a.seed))
      .integer("check_seed", static_cast<std::int64_t>(check_seed(a.seed)))
      .num("svc_offered_rate_qps", kSvcOfferedRate);
  if (!optimized) {
    p.str("warning", "unoptimised build: timings are not comparable");
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "quanta_bench: %s\n", error.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "quanta_bench: cannot create %s\n",
                 args.out_dir.c_str());
    return 2;
  }

  Outcome out;
  const Clock::time_point t0 = Clock::now();
  if (!args.trace) {
    if (args.workload == "zone-mc") zone_mc_run(args, out);
    if (args.workload == "prob-brp") prob_brp_run(args, out);
    if (args.workload == "svc-mix") svc_mix_run(args, out);
  } else {
    // Every layer is measured on the workload that exercises it. The svc
    // session runs first: its server forks worker processes, which must not
    // inherit a half-copied thread pool from the other sections.
    Tracer tracer;
    svc_mix_layers(args, tracer, out);
    zone_mc_layers(args, tracer, out);
    prob_brp_layers(args, tracer, out);
    Json self;
    for (const auto& [layer, s] : tracer.self_by_layer()) self.num(layer, s);
    out.details.obj("layer_self_s", self);
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".csv";
    out.check_run(tracer.write_csv(path), "cannot write " + path);
    out.details.str("trace_file", path)
        .integer("spans", static_cast<std::int64_t>(tracer.spans().size()));
  }
  for (const Outcome::Metric& m : out.metrics) {
    out.check_run(std::isfinite(m.value), "metric " + m.name + " not finite");
  }

  Json metrics, seeds;
  for (const Outcome::Metric& m : out.metrics) {
    Json v;
    v.num("value", m.value).str("unit", m.unit);
    metrics.obj(m.name, v);
    Json s;
    s.integer("seed", static_cast<std::int64_t>(args.seed))
        .integer("check_seed",
                 static_cast<std::int64_t>(check_seed(args.seed)));
    seeds.obj(m.name, s);
  }
  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i ? ", " : "") + json_string(out.errors[i]);
  }
  errors += "]";
  Json details;
  details.str("workload", args.workload)
      .boolean("trace", args.trace)
      .num("wall_s", seconds_since(t0))
      .num("failed_ratio",
           out.attempted ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 1.0)
      .obj("provenance", provenance(args))
      .obj("metric_seeds", seeds)
      .obj("workload_details", out.details)
      .raw("errors", errors);
  std::printf("%s\n", details.dump().c_str());

  Json result;
  result.boolean("correct", out.correct())
      .integer("attempted", static_cast<std::int64_t>(out.attempted))
      .integer("failed", static_cast<std::int64_t>(out.failed))
      .obj("metrics", metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}
