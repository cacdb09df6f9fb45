// Macro-benchmark for synchronous vs asynchronous checkpoints: per-
// checkpoint processing pause (serialize cost charged to the pause vs
// capture only), end-to-end capture-to-stored latency, and the mean shipped
// checkpoint size, on the windowed word-count workload across state sizes.
// Results go to stdout and BENCH_ckpt_pipeline.json.
//
// Usage: bench_ckpt_pipeline [output.json]

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/macros.h"
#include "sps/sps.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::bench {
namespace {

struct Row {
  size_t vocabulary = 0;
  bool async = false;
  double pause_p50_ms = 0;
  double pause_p99_ms = 0;
  double e2e_p50_ms = 0;
  double e2e_p99_ms = 0;
  uint64_t checkpoints = 0;
  double ckpt_kib = 0;  // mean shipped checkpoint size
};

Row RunOne(size_t vocabulary, bool async) {
  workloads::wordcount::WordCountConfig wc;
  wc.rate_tuples_per_sec = 500;
  wc.vocabulary = vocabulary;
  wc.seed = 1234;

  sps::SpsConfig config;
  config.cluster.checkpoint_interval = SecondsToSim(5);
  config.cluster.async_checkpoints = async;
  config.cluster.pool.target_size = 3;
  config.scaling.enabled = false;

  auto query = workloads::wordcount::BuildWordCountQuery(wc);
  sps::Sps sps(std::move(query.graph), config);
  SEEP_CHECK(sps.Deploy().ok());
  sps.RunFor(120);

  const runtime::MetricsRegistry& m = sps.metrics();
  Row row;
  row.vocabulary = vocabulary;
  row.async = async;
  row.pause_p50_ms = m.ckpt_pause_ms.Median();
  row.pause_p99_ms = m.ckpt_pause_ms.Percentile(99);
  row.e2e_p50_ms = m.ckpt_e2e_ms.Median();
  row.e2e_p99_ms = m.ckpt_e2e_ms.Percentile(99);
  row.checkpoints = m.checkpoints_taken;
  row.ckpt_kib = m.checkpoints_taken > 0
                     ? static_cast<double>(m.checkpoint_bytes) / 1024.0 /
                           static_cast<double>(m.checkpoints_taken)
                     : 0.0;
  return row;
}

void WriteJson(FILE* f, const std::vector<Row>& rows) {
  std::fprintf(f, "{\n  \"bench\": \"ckpt_pipeline\",\n  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"vocabulary\": %zu, \"mode\": \"%s\", "
                 "\"pause_p50_ms\": %.4f, \"pause_p99_ms\": %.4f, "
                 "\"e2e_p50_ms\": %.3f, \"e2e_p99_ms\": %.3f, "
                 "\"checkpoints\": %llu, "
                 "\"ckpt_kib\": %.1f}%s\n",
                 r.vocabulary, r.async ? "async" : "sync", r.pause_p50_ms,
                 r.pause_p99_ms, r.e2e_p50_ms, r.e2e_p99_ms,
                 static_cast<unsigned long long>(r.checkpoints), r.ckpt_kib,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_ckpt_pipeline.json";
  FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out);
    return 1;
  }
  std::printf(
      "==== Checkpoints: synchronous vs asynchronous serialization ====\n");
  std::printf("%-10s %6s %14s %14s %12s %12s %9s\n", "dict", "mode",
              "pause p50(ms)", "pause p99(ms)", "e2e p50(ms)", "e2e p99(ms)",
              "ckpt KiB");
  std::vector<Row> rows;
  for (size_t vocabulary : std::vector<size_t>{1'000, 10'000, 100'000}) {
    Row sync;
    for (bool async : {false, true}) {
      const Row r = RunOne(vocabulary, async);
      if (!async) sync = r;
      std::printf("%-10zu %6s %14.4f %14.4f %12.3f %12.3f %9.1f\n",
                  vocabulary, r.async ? "async" : "sync", r.pause_p50_ms,
                  r.pause_p99_ms, r.e2e_p50_ms, r.e2e_p99_ms, r.ckpt_kib);
      if (async && r.pause_p99_ms > 0) {
        std::printf("%-10s %6s   pause p99 reduction: %.1fx\n", "", "",
                    sync.pause_p99_ms / r.pause_p99_ms);
      }
      rows.push_back(r);
    }
  }
  WriteJson(f, rows);
  std::fclose(f);
  std::printf("wrote %s\n", out);
  return 0;
}

}  // namespace
}  // namespace seep::bench

int main(int argc, char** argv) { return seep::bench::Main(argc, argv); }
