// google-benchmark microbenchmarks of the real component costs.
//
// These back the calibration in src/sim/cost_model.h (see EXPERIMENTS.md):
// the virtual-time constants were chosen from these measured costs scaled
// to the paper's 2.27 GHz Xeon E5520 / Java 7 testbed.
#include <benchmark/benchmark.h>

#include <memory>

#include "bft/dedup_table.h"
#include "bft/messages.h"
#include "core/plant.h"
#include "core/push_voter.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/sha256.h"
#include "obs/trace.h"
#include "scada/handlers.h"
#include "scada/historian.h"
#include "scada/master.h"
#include "scada/messages.h"
#include "scada/storage.h"
#include "storage/checkpoint.h"
#include "storage/env.h"

namespace {

using namespace ss;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_ScadaMessageEncode(benchmark::State& state) {
  scada::ItemUpdate update;
  update.ctx.op = OpId{123};
  update.ctx.cid = ConsensusId{45};
  update.ctx.timestamp = millis(10);
  update.item = ItemId{7};
  update.value = scada::Variant{230.5};
  scada::ScadaMessage msg{update};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scada::encode_message(msg));
  }
}
BENCHMARK(BM_ScadaMessageEncode);

void BM_ScadaMessageDecode(benchmark::State& state) {
  scada::ItemUpdate update;
  update.item = ItemId{7};
  update.value = scada::Variant{230.5};
  Bytes encoded = scada::encode_message(scada::ScadaMessage{update});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scada::decode_message(encoded));
  }
}
BENCHMARK(BM_ScadaMessageDecode);

void BM_BatchEncodeDecode(benchmark::State& state) {
  bft::Batch batch;
  batch.timestamp = millis(5);
  for (int i = 0; i < state.range(0); ++i) {
    bft::ClientRequest req;
    req.client = ClientId{1};
    req.sequence = RequestId{static_cast<std::uint64_t>(i)};
    req.payload = Bytes(64, 0x5a);
    req.auth.assign(4, crypto::Digest{});
    batch.requests.push_back(std::move(req));
  }
  for (auto _ : state) {
    Bytes encoded = batch.encode();
    benchmark::DoNotOptimize(bft::Batch::decode(encoded));
  }
}
BENCHMARK(BM_BatchEncodeDecode)->Arg(1)->Arg(16)->Arg(64);

void BM_HandlerChainUpdate(benchmark::State& state) {
  scada::HandlerChain chain;
  chain.emplace<scada::ScaleHandler>(1.5, 0.0);
  chain.emplace<scada::DeadbandHandler>(0.0);
  chain.emplace<scada::MonitorHandler>(
      scada::MonitorHandler::Condition::kAbove, 100.0);
  scada::HandlerContext ctx{ItemId{1}, "item", millis(1), OpId{1}};
  std::vector<scada::Event> events;
  double v = 0;
  for (auto _ : state) {
    scada::Variant value{v};
    v += 1.0;
    chain.run_update(ctx, value, events);
    events.clear();
  }
}
BENCHMARK(BM_HandlerChainUpdate);

/// The k-th update of the alarm workload as the replicated Master sees it:
/// the Frontend's op id (its instance above bit 40, a counter below), one
/// agreement timestamp per batch of four requests about a millisecond
/// apart, and the value the benchmark pushes (a base plus the index).
OpId alarm_op(std::uint64_t k) {
  return OpId{(std::uint64_t{0x2f1} << 40) | (k + 1)};
}
SimTime alarm_time(std::uint64_t k) {
  const auto batch = static_cast<SimTime>(k / 4);
  return seconds(1) + batch * millis(1) + (batch * 7919) % 50000;
}
scada::Variant alarm_value(std::uint64_t k) {
  return scada::Variant{1e9 + static_cast<double>(k)};
}

/// One Monitor alarm appended to a full 4096-event window (so one is
/// evicted), with value, op and timestamp advancing as the workload's do.
void BM_StorageAppend(benchmark::State& state) {
  scada::EventStorage storage(4096);
  scada::Event event;
  event.item = ItemId{1};
  event.code = "MONITOR_TRIGGER";
  event.message = "monitor condition met on item grid/feeder";
  std::uint64_t k = 0;
  for (auto _ : state) {
    event.value = alarm_value(k);
    event.op = alarm_op(k);
    event.timestamp = alarm_time(k);
    ++k;
    benchmark::DoNotOptimize(storage.append(event));
  }
}
BENCHMARK(BM_StorageAppend);

void BM_MasterItemUpdate(benchmark::State& state) {
  scada::MasterOptions options;
  options.deterministic = true;
  options.storage_retention = 4096;
  scada::ScadaMaster master(std::move(options));
  ItemId item = master.add_item("grid/feeder");
  master.handlers(item).emplace<scada::MonitorHandler>(
      scada::MonitorHandler::Condition::kAbove, 1e12);
  master.handle(
      scada::ScadaMessage{scada::Subscribe{scada::Channel::kDa, ItemId{0},
                                           "hmi"}},
      scada::MsgContext{}, "hmi");
  master.set_da_sink([](const std::string&, const scada::ScadaMessage&) {});
  master.set_ae_sink([](const std::string&, const scada::ScadaMessage&) {});

  scada::ItemUpdate update;
  update.item = item;
  scada::MsgContext ctx;
  double v = 0;
  for (auto _ : state) {
    update.value = scada::Variant{v};
    ctx.op = OpId{static_cast<std::uint64_t>(v)};
    ctx.timestamp = static_cast<SimTime>(v) + 1;
    v += 1.0;
    master.handle(scada::ScadaMessage{update}, ctx, "frontend");
  }
}
BENCHMARK(BM_MasterItemUpdate);

void BM_PushVoterOffer(benchmark::State& state) {
  GroupConfig group = GroupConfig::for_f(1);
  std::uint64_t delivered = 0;
  core::PushVoter voter(group,
                        [&](const scada::ScadaMessage&) { ++delivered; });
  scada::ItemUpdate update;
  update.item = ItemId{1};
  std::uint64_t op = 0;
  for (auto _ : state) {
    update.ctx.op = OpId{++op};
    Bytes payload = scada::encode_message(scada::ScadaMessage{update});
    voter.offer(ReplicaId{0}, payload);
    voter.offer(ReplicaId{1}, payload);
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_PushVoterOffer);

void BM_MasterSnapshot(benchmark::State& state) {
  scada::MasterOptions options;
  options.deterministic = true;
  options.storage_retention = 1024;
  scada::ScadaMaster master(std::move(options));
  for (int i = 0; i < state.range(0); ++i) {
    master.add_item("item/" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(master.snapshot());
  }
}
BENCHMARK(BM_MasterSnapshot)->Arg(10)->Arg(100)->Arg(1000);

/// A master as `deploy replica` configures it for the alarm workload
/// (retention 0, a Monitor that raises an event on every temperature
/// update), fed `updates` of the workload's updates.
std::unique_ptr<scada::ScadaMaster> alarm_master(std::int64_t updates) {
  scada::MasterOptions options;
  options.deterministic = true;
  auto master = std::make_unique<scada::ScadaMaster>(std::move(options));
  core::plant::add_points(*master, 100.0);
  scada::ItemUpdate update;
  update.item = core::plant::kTemperature;
  scada::MsgContext ctx;
  for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(updates); ++k) {
    update.value = alarm_value(k);
    ctx.op = alarm_op(k);
    ctx.timestamp = alarm_time(k);
    master->handle(scada::ScadaMessage{update}, ctx, "frontend");
  }
  return master;
}

/// snapshot() with a populated event log: what state transfer and durable
/// checkpoints pay. bytes_per_event is the event log's encoded size per
/// resident event.
void BM_MasterSnapshotEventLog(benchmark::State& state) {
  auto master = alarm_master(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(master->snapshot());
  }
  const scada::EventStorage& storage = master->storage();
  state.counters["bytes_per_event"] =
      static_cast<double>(storage.log_bytes()) /
      static_cast<double>(storage.resident());
}
BENCHMARK(BM_MasterSnapshotEventLog)->Arg(20000);

/// The checkpoint digest over the same state.
void BM_MasterStateDigest(benchmark::State& state) {
  auto master = alarm_master(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(master->state_digest());
  }
}
BENCHMARK(BM_MasterStateDigest)->Arg(20000);

/// A durable checkpoint of the same state on the in-memory Env: the file is
/// written from the state's pieces with the CRC chained over them, as a
/// replica writes it every checkpoint interval.
void BM_CheckpointWrite(benchmark::State& state) {
  auto master = alarm_master(state.range(0));
  storage::MemEnv env;
  storage::CheckpointStore store(env, "replica-0");
  storage::CheckpointMeta meta;
  meta.cid = ConsensusId{128};
  std::size_t bytes = 0;
  for (auto _ : state) {
    Pieces pieces = master->state_pieces();
    bytes = pieces.size();
    store.write(meta, std::move(pieces));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointWrite)->Arg(20000);

/// One Tracer::record: the per-span cost a replica's Adapter pays twice per
/// op (its "master" and "adapter" spans).
void BM_TracerRecord(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  std::uint64_t op = 0;
  for (auto _ : state) {
    ++op;
    tracer.record(OpId{op}, "master", "adapter/0", 1000, 2000);
    benchmark::ClobberMemory();
  }
  tracer.reset();
}
BENCHMARK(BM_TracerRecord);

/// One Historian::record into an item whose 4096-sample window is full: the
/// archive append the Master makes per accepted update, eviction included.
void BM_HistorianRecord(benchmark::State& state) {
  scada::Historian historian;
  const ItemId item{1};
  std::int64_t k = 0;
  for (; k < 4096; ++k) {
    historian.record(item, k, scada::Variant{static_cast<double>(k)},
                     scada::Quality::kGood);
  }
  for (auto _ : state) {
    historian.record(item, k, scada::Variant{static_cast<double>(k)},
                     scada::Quality::kGood);
    ++k;
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(historian.total_samples());
}
BENCHMARK(BM_HistorianRecord);

/// One DedupTable::contains against a client's full 4096-entry window: the
/// lookup a replica makes per client request. Probes alternate between an
/// executed number and a fresh one above the window.
void BM_DedupLookup(benchmark::State& state) {
  bft::DedupTable table;
  const ClientId client{1};
  for (std::uint64_t s = 1; s <= 2 * bft::DedupTable::kWindow; ++s) {
    table.insert(client, RequestId{s});
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    probe = (probe * 2654435761u + 1) % (3 * bft::DedupTable::kWindow);
    benchmark::DoNotOptimize(table.contains(client, RequestId{probe}));
  }
}
BENCHMARK(BM_DedupLookup);

}  // namespace

BENCHMARK_MAIN();
