// Tests for request-scoped serving observability (serve/request_log.h):
// the lifecycle records the serving path assembles when armed, the
// per-request JSONL sink, the flight-recorder ring (wrap, snapshot order,
// auto-dump on drain and on a serve fault firing mid-batch), and the
// guarantee that arming changes no served bytes — armed and disarmed runs
// return bit-identical lists.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/recommender.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "serve/request_log.h"
#include "serve/server.h"

namespace taxorec {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    RequestObservability::Instance().Disarm();
    FaultInjector::Instance().Reset();
    SetNumThreads(1);
  }

  static Status Arm(size_t capacity, const std::string& log_path = "",
                    const std::string& dump_path = "") {
    RequestObservabilityOptions opts;
    opts.flight_capacity = capacity;
    opts.request_log_path = log_path;
    opts.flight_dump_path = dump_path;
    return RequestObservability::Instance().Arm(std::move(opts));
  }
};

DataSplit MakeSplit() {
  SyntheticConfig cfg;
  cfg.seed = 19;
  cfg.num_users = 40;
  cfg.num_items = 70;
  cfg.num_tags = 12;
  return TemporalSplit(GenerateSynthetic(cfg));
}

class SineModel : public Recommender {
 public:
  std::string name() const override { return "Sine"; }
  void ScoreItems(uint32_t user, std::span<double> out) const override {
    for (size_t v = 0; v < out.size(); ++v) {
      out[v] = std::sin(static_cast<double>(user * 131 + v * 17));
    }
  }
};

ServeRequest Req(uint32_t user, size_t k = 5) {
  ServeRequest req;
  req.user = user;
  req.k = k;
  return req;
}

std::vector<std::map<std::string, std::string>> ReadJsonlFile(
    const std::string& path) {
  std::vector<std::map<std::string, std::string>> lines;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, std::string> flat;
    std::string error;
    EXPECT_TRUE(ParseFlatJsonObject(line, &flat, &error))
        << error << "\n" << line;
    lines.push_back(std::move(flat));
  }
  return lines;
}

TEST_F(FlightRecorderTest, RingWrapsKeepingNewestRecordsSorted) {
  ASSERT_TRUE(Arm(4).ok());
  auto& obs = RequestObservability::Instance();
  for (int i = 0; i < 7; ++i) {
    RequestLog log;
    log.id = obs.NextId();
    log.user = static_cast<uint32_t>(i);
    obs.Record(log);
  }
  EXPECT_EQ(obs.recorded(), 7u);
  EXPECT_EQ(obs.ring_dropped(), 0u);

  const auto ring = obs.RingSnapshot();
  ASSERT_EQ(ring.size(), 4u);
  // Ids are process-wide monotonic, so check relative order + contiguity:
  // the ring holds the 4 newest, oldest first.
  for (size_t i = 1; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].id, ring[i - 1].id + 1);
  }
  EXPECT_EQ(ring.back().user, 6u);
}

TEST_F(FlightRecorderTest, RequestLogJsonlRoundTrips) {
  RequestLog log;
  log.id = 42;
  log.user = 7;
  log.k = 10;
  log.status = ServeStatus::kOk;
  log.tier = PrecisionTier::kFloat32;
  log.cache_hit = true;
  log.had_deadline = true;
  log.deadline_slack_ms = -1.5;
  log.queue_us = 250;
  log.score_us = 80;
  log.total_us = 400;
  const std::string line = RequestLogJsonl(log);

  std::map<std::string, std::string> flat;
  std::string error;
  ASSERT_TRUE(ParseFlatJsonObject(line, &flat, &error)) << error << "\n"
                                                        << line;
  EXPECT_EQ(flat.at("event"), "request");
  EXPECT_EQ(flat.at("id"), "42");
  EXPECT_EQ(flat.at("user"), "7");
  EXPECT_EQ(flat.at("status"), "ok");
  EXPECT_EQ(flat.at("tier"), "float32");
  EXPECT_EQ(flat.at("cache_hit"), "true");
  EXPECT_EQ(flat.at("cache_bypass"), "false");
  EXPECT_EQ(flat.at("queue_us"), "250");
  EXPECT_EQ(flat.at("total_us"), "400");
  EXPECT_EQ(flat.count("deadline_slack_ms"), 1u);
}

TEST_F(FlightRecorderTest, QueuedLifecycleRecordsPhasesAndMonotonicIds) {
  const DataSplit split = MakeSplit();
  SineModel model;
  ServeOptions opts;
  opts.admission.max_queue = 64;
  BatchServer server(model, split, opts);
  ASSERT_TRUE(Arm(64).ok());

  for (uint32_t u = 0; u < 8; ++u) {
    ASSERT_EQ(server.Submit(Req(u)), AdmitResult::kAdmitted);
  }
  // Let the queue age so queue_us is measurably > 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto results = server.ServeQueued(64);
  ASSERT_EQ(results.size(), 8u);

  const auto ring = RequestObservability::Instance().RingSnapshot();
  ASSERT_EQ(ring.size(), 8u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].status, ServeStatus::kOk);
    EXPECT_GT(ring[i].queue_us, 0u) << i;
    EXPECT_GT(ring[i].total_us, ring[i].queue_us) << i;
    EXPECT_GT(ring[i].score_start_us, 0u) << i;
    EXPECT_FALSE(ring[i].cache_hit);
    if (i > 0) {
      EXPECT_GT(ring[i].id, ring[i - 1].id);
    }
  }
  // Results carry the stamped ids too.
  for (const ServeResult& r : results) EXPECT_GT(r.request.id, 0u);
}

TEST_F(FlightRecorderTest, CacheHitAndShedVerdictsAreRecorded) {
  const DataSplit split = MakeSplit();
  SineModel model;
  ServeOptions opts;
  opts.cache_capacity = 16;
  opts.admission.max_queue = 2;
  BatchServer server(model, split, opts);
  ASSERT_TRUE(Arm(64).ok());

  // First pass computes, second pass hits the cache.
  ASSERT_EQ(server.Submit(Req(3)), AdmitResult::kAdmitted);
  ASSERT_EQ(server.ServeQueued(8).size(), 1u);
  ASSERT_EQ(server.Submit(Req(3)), AdmitResult::kAdmitted);
  ASSERT_EQ(server.ServeQueued(8).size(), 1u);

  // Overflow the 2-deep queue: the third Submit sheds at admission and
  // still gets a lifecycle record with the verdict folded into status.
  ASSERT_EQ(server.Submit(Req(10)), AdmitResult::kAdmitted);
  ASSERT_EQ(server.Submit(Req(11)), AdmitResult::kAdmitted);
  ASSERT_EQ(server.Submit(Req(12)), AdmitResult::kShedQueueFull);

  const auto ring = RequestObservability::Instance().RingSnapshot();
  ASSERT_EQ(ring.size(), 3u);  // 2 served + 1 shed (queued 2 not served yet)
  EXPECT_FALSE(ring[0].cache_hit);
  EXPECT_TRUE(ring[1].cache_hit);
  EXPECT_EQ(ring[1].score_us, 0u);  // a hit never reaches the kernel
  EXPECT_EQ(ring[2].status, ServeStatus::kShedQueueFull);
  EXPECT_EQ(ring[2].user, 12u);
}

TEST_F(FlightRecorderTest, ServeFaultTriggersDumpContainingOffender) {
  const std::string dump =
      ::testing::TempDir() + "/taxorec_flight_fault.jsonl";
  std::remove(dump.c_str());
  const DataSplit split = MakeSplit();
  SineModel model;
  BatchServer server(model, split);
  ASSERT_TRUE(Arm(32, "", dump).ok());

  FaultInjector::Instance().Arm(faults::kServeSlowKernel, -1, 1);
  std::vector<ServeRequest> batch;
  for (uint32_t u = 0; u < 6; ++u) batch.push_back(Req(u));
  const auto results = server.ServeBatchEx(batch);
  ASSERT_EQ(results.size(), 6u);
  ASSERT_EQ(FaultInjector::Instance().fired(faults::kServeSlowKernel), 1);

  const auto lines = ReadJsonlFile(dump);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("event"), "flight_recorder_dump");
  EXPECT_EQ(lines[0].at("reason"), "serve_fault");
  size_t faulted = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("event"), "request");
    if (lines[i].at("fault") == "true") ++faulted;
  }
  // The stalled sub-batch's requests are all in the dump, marked.
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(
      MetricsRegistry::Instance().GetCounter("taxorec.serve.flight.dumps")
          ->value(),
      0u);
}

TEST_F(FlightRecorderTest, DrainDumpsTheRing) {
  const std::string dump =
      ::testing::TempDir() + "/taxorec_flight_drain.jsonl";
  std::remove(dump.c_str());
  const DataSplit split = MakeSplit();
  SineModel model;
  ServeOptions opts;
  opts.admission.max_queue = 16;
  BatchServer server(model, split, opts);
  ASSERT_TRUE(Arm(16, "", dump).ok());

  for (uint32_t u = 0; u < 5; ++u) {
    ASSERT_EQ(server.Submit(Req(u)), AdmitResult::kAdmitted);
  }
  const auto drained = server.Drain();
  EXPECT_EQ(drained.size(), 5u);

  const auto lines = ReadJsonlFile(dump);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("event"), "flight_recorder_dump");
  EXPECT_EQ(lines[0].at("reason"), "drain");
  EXPECT_EQ(lines.size() - 1, 5u);
}

TEST_F(FlightRecorderTest, RequestLogSinkStreamsEveryRecord) {
  const std::string log_path =
      ::testing::TempDir() + "/taxorec_request_log.jsonl";
  std::remove(log_path.c_str());
  const DataSplit split = MakeSplit();
  SineModel model;
  BatchServer server(model, split);
  ASSERT_TRUE(Arm(8, log_path).ok());

  std::vector<ServeRequest> batch;
  for (uint32_t u = 0; u < 12; ++u) batch.push_back(Req(u));
  server.ServeBatchEx(batch);
  RequestObservability::Instance().Disarm();  // flush + close the sink

  // The ring kept only the last 8, but the sink streamed all 12.
  const auto lines = ReadJsonlFile(log_path);
  ASSERT_EQ(lines.size(), 12u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.at("event"), "request");
    EXPECT_EQ(line.at("status"), "ok");
  }
  EXPECT_EQ(RequestObservability::Instance().RingSnapshot().size(), 8u);
}

TEST_F(FlightRecorderTest, ArmedAndDisarmedServeBitIdentically) {
  const DataSplit split = MakeSplit();
  SineModel model;
  std::vector<ServeRequest> batch;
  for (uint32_t u = 0; u < split.num_users; ++u) batch.push_back(Req(u, 7));

  SetNumThreads(3);
  BatchServer plain(model, split);
  ASSERT_FALSE(RequestObservability::armed());
  const auto disarmed = plain.ServeBatchEx(batch);
  // Disarmed: no ids are assigned, no clocks read.
  for (const ServeResult& r : disarmed) EXPECT_EQ(r.request.id, 0u);

  ASSERT_TRUE(Arm(16).ok());
  BatchServer observed(model, split);
  const auto armed = observed.ServeBatchEx(batch);

  ASSERT_EQ(armed.size(), disarmed.size());
  for (size_t i = 0; i < armed.size(); ++i) {
    ASSERT_EQ(armed[i].items.size(), disarmed[i].items.size()) << i;
    for (size_t j = 0; j < armed[i].items.size(); ++j) {
      EXPECT_EQ(armed[i].items[j].item, disarmed[i].items[j].item);
      EXPECT_EQ(armed[i].items[j].score, disarmed[i].items[j].score)
          << "request " << i << " rank " << j;
    }
  }
}

TEST_F(FlightRecorderTest, DumpToRejectsUnwritablePath) {
  ASSERT_TRUE(Arm(4).ok());
  RequestLog log;
  log.id = RequestObservability::Instance().NextId();
  RequestObservability::Instance().Record(log);
  const Status s = RequestObservability::Instance().DumpTo(
      "/nonexistent-dir/flight.jsonl", "test");
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace taxorec
