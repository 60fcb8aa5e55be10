// udsm_cli: a scriptable shell over the Universal Data Store Manager.
// Reads commands from stdin (one per line), so it works interactively and
// in pipelines:
//
//   printf 'open db file /tmp/mydb\nuse db\nput greeting hello\nget greeting\n' \
//     | ./udsm_cli
//
// Commands:
//   open NAME TYPE [PATH]   register a store (TYPE: memory | file | sql |
//                           lsm | shard [N] — N memory shards, default 3 |
//                           replicated [n] [w] [r] — n memory replicas
//                           behind one primary-backup group, ack at W=w,
//                           read R=r; defaults 3/2/2)
//   use NAME                select the current store
//   stores                  list registered stores
//   put KEY VALUE...        store a value (VALUE may contain spaces)
//   get KEY                 print a value
//   del KEY                 delete a key
//   has KEY                 existence check
//   ls                      list keys
//   count                   number of entries
//   clear                   delete everything in the current store
//   sql STATEMENT...        run SQL against a sql-type store
//   monitor                 print the performance monitor report
//   stats                   dump process metrics in Prometheus text format
//   trace KEY               run a force-sampled get and print its span tree
//   slow                    print captured slow/error traces (worst first)
//   version                 print this binary's build identity
//   topology                ring ownership + per-shard key counts (shard store)
//   lsm stats               level shape, bloom hit rate, compaction debt,
//                           block cache bytes/entries/hits/misses
//   lsm compact             flush + compact the lsm store to a steady state
//   addshard NAME           grow a shard store online (memory-backed shard)
//   rmshard NAME            shrink a shard store online
//   replica status          group epoch + per-replica role/lag/hints
//   replica promote [NAME]  manual failover (most-caught-up backup when
//                           NAME is omitted)
//   help                    this text
//   quit                    exit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "admit/admit_store.h"
#include "admit/introspect.h"
#include "admit/limiter.h"
#include "obs/build_info.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "replica/replicated_store.h"
#include "shard/sharded_store.h"
#include "store/file_store.h"
#include "store/lsm/lsm_store.h"
#include "store/memory_store.h"
#include "store/sql_client.h"
#include "store/sql_server.h"
#include "udsm/udsm.h"

using namespace dstore;

namespace {

constexpr char kHelp[] =
    "commands: open NAME TYPE [PATH] | use NAME | stores | put K V | get K |\n"
    "          del K | has K | ls | count | clear | sql STMT | monitor |\n"
    "          stats | trace K | slow | version | topology | addshard NAME |\n"
    "          rmshard NAME | admit | lsm stats | lsm compact |\n"
    "          replica status | replica promote [NAME] | help | quit\n"
    "types:    memory | file | sql | lsm | shard | admit (memory behind a\n"
    "          concurrency limiter + circuit breaker; inspect with `admit`) |\n"
    "          replicated [n] [w] [r] (n memory replicas, ack at W=w, read\n"
    "          R=r; defaults 3/2/2 — inspect with `replica status`)\n";

struct Shell {
  Udsm udsm;
  std::string current;
  // Keep SQL servers alive for the session.
  std::vector<std::unique_ptr<SqlServer>> sql_servers;

  KeyValueStore* Current() {
    if (current.empty()) {
      std::printf("error: no store selected (use `open` then `use`)\n");
      return nullptr;
    }
    KeyValueStore* store = udsm.GetStore(current);
    if (store == nullptr) {
      std::printf("error: store '%s' vanished\n", current.c_str());
    }
    return store;
  }

  void Open(std::istringstream& args) {
    std::string name, type, path;
    args >> name >> type;
    std::getline(args, path);
    while (!path.empty() && path.front() == ' ') path.erase(path.begin());
    if (name.empty() || type.empty()) {
      std::printf("usage: open NAME TYPE [PATH]\n");
      return;
    }
    Status status;
    if (type == "memory") {
      status = udsm.RegisterStore(name, std::make_shared<MemoryStore>());
    } else if (type == "file") {
      if (path.empty()) path = "/tmp/udsm_cli_" + name;
      auto store = FileStore::Open(path);
      status = store.ok()
                   ? udsm.RegisterStore(
                         name, std::shared_ptr<KeyValueStore>(
                                   *std::move(store)))
                   : store.status();
    } else if (type == "lsm") {
      if (path.empty()) path = "/tmp/udsm_cli_" + name;
      auto store = lsm::LsmStore::Open(path);
      status = store.ok()
                   ? udsm.RegisterStore(
                         name, std::shared_ptr<KeyValueStore>(
                                   *std::move(store)))
                   : store.status();
    } else if (type == "sql") {
      auto server = SqlServer::Start(path);  // empty path = in-memory
      if (!server.ok()) {
        status = server.status();
      } else {
        auto client = SqlClient::Connect("127.0.0.1", (*server)->port());
        if (!client.ok()) {
          status = client.status();
        } else {
          sql_servers.push_back(*std::move(server));
          status = udsm.RegisterStore(
              name, std::shared_ptr<KeyValueStore>(*std::move(client)));
        }
      }
    } else if (type == "shard") {
      int count = path.empty() ? 3 : std::atoi(path.c_str());
      if (count < 1) count = 1;
      ShardedStore::ShardList shards;
      for (int i = 0; i < count; ++i) {
        shards.emplace_back("s" + std::to_string(i),
                            std::make_shared<MemoryStore>());
      }
      ShardedStore::Options options;
      options.name = name;
      status = udsm.RegisterStore(
          name, std::make_shared<ShardedStore>(std::move(shards), options));
    } else if (type == "replicated") {
      // n memory replicas behind one primary-backup group. The trailing
      // tokens are [n] [w] [r]; quorums are validated by Create.
      std::istringstream numbers(path);
      int n = 3, w = 2, r = 2;
      numbers >> n >> w >> r;
      if (n < 1) n = 1;
      std::vector<replica::ReplicatedStore::Backend> backends;
      for (int i = 0; i < n; ++i) {
        backends.push_back(
            {"r" + std::to_string(i), std::make_shared<MemoryStore>()});
      }
      replica::ReplicaGroup::Options options;
      options.name = name;
      options.write_quorum = w;
      options.read_quorum = r;
      auto store =
          replica::ReplicatedStore::Create(std::move(backends), options);
      status = store.ok() ? udsm.RegisterStore(name, *std::move(store))
                          : store.status();
    } else if (type == "admit") {
      // Memory store behind the full client-side admission stack, so the
      // `admit` command has live limiter/breaker state to dump.
      admit::AdmittingStore::Options admit_options;
      admit::AdaptiveLimiter::Options limiter_options;
      limiter_options.name = name;
      admit_options.limiter =
          std::make_shared<admit::AdaptiveLimiter>(limiter_options);
      auto admitting = std::make_shared<admit::AdmittingStore>(
          std::make_shared<MemoryStore>(), admit_options);
      status = udsm.RegisterStore(
          name,
          std::make_shared<admit::CircuitBreakerStore>(std::move(admitting)));
    } else {
      std::printf(
          "unknown store type '%s' "
          "(memory|file|sql|lsm|shard|admit|replicated)\n",
          type.c_str());
      return;
    }
    if (status.ok()) {
      std::printf("opened %s (%s)\n", name.c_str(), type.c_str());
      if (current.empty()) current = name;
    } else {
      std::printf("error: %s\n", status.ToString().c_str());
    }
  }

  void Dispatch(const std::string& line) {
    std::istringstream args(line);
    std::string command;
    args >> command;
    if (command.empty()) return;

    if (command == "help") {
      std::fputs(kHelp, stdout);
    } else if (command == "open") {
      Open(args);
    } else if (command == "use") {
      std::string name;
      args >> name;
      if (udsm.GetStore(name) == nullptr) {
        std::printf("error: no store named '%s'\n", name.c_str());
      } else {
        current = name;
        std::printf("using %s\n", name.c_str());
      }
    } else if (command == "stores") {
      for (const std::string& name : udsm.StoreNames()) {
        std::printf("%s%s\n", name.c_str(), name == current ? " *" : "");
      }
    } else if (command == "put") {
      std::string key, value;
      args >> key;
      std::getline(args, value);
      if (!value.empty() && value.front() == ' ') value.erase(value.begin());
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      const Status status = store->PutString(key, value);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    } else if (command == "get") {
      std::string key;
      args >> key;
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      auto value = store->GetString(key);
      std::printf("%s\n", value.ok() ? value->c_str()
                                     : value.status().ToString().c_str());
    } else if (command == "del") {
      std::string key;
      args >> key;
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      const Status status = store->Delete(key);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    } else if (command == "has") {
      std::string key;
      args >> key;
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      auto present = store->Contains(key);
      std::printf("%s\n", present.ok() ? (*present ? "yes" : "no")
                                       : present.status().ToString().c_str());
    } else if (command == "ls") {
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      auto keys = store->ListKeys();
      if (!keys.ok()) {
        std::printf("%s\n", keys.status().ToString().c_str());
        return;
      }
      std::sort(keys->begin(), keys->end());
      for (const std::string& key : *keys) std::printf("%s\n", key.c_str());
    } else if (command == "count") {
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      auto count = store->Count();
      if (count.ok()) {
        std::printf("%zu\n", *count);
      } else {
        std::printf("%s\n", count.status().ToString().c_str());
      }
    } else if (command == "clear") {
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      const Status status = store->Clear();
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    } else if (command == "sql") {
      std::string statement;
      std::getline(args, statement);
      SqlClient* native = udsm.GetNative<SqlClient>(current);
      if (native == nullptr) {
        std::printf("error: '%s' is not a sql store\n", current.c_str());
        return;
      }
      auto result = native->Execute(statement);
      if (!result.ok()) {
        std::printf("%s\n", result.status().ToString().c_str());
        return;
      }
      if (!result->columns.empty()) {
        for (size_t i = 0; i < result->columns.size(); ++i) {
          std::printf(i == 0 ? "%s" : " | %s", result->columns[i].c_str());
        }
        std::printf("\n");
        for (const auto& row : result->rows) {
          for (size_t i = 0; i < row.size(); ++i) {
            std::printf(i == 0 ? "%s" : " | %s",
                        row[i].ToDisplayString().c_str());
          }
          std::printf("\n");
        }
      } else {
        std::printf("ok (%llu rows affected)\n",
                    static_cast<unsigned long long>(result->rows_affected));
      }
    } else if (command == "topology") {
      ShardedStore* sharded = udsm.GetNative<ShardedStore>(current);
      if (sharded == nullptr) {
        std::printf("error: '%s' is not a shard store\n", current.c_str());
        return;
      }
      std::fputs(sharded->DescribeTopology().c_str(), stdout);
    } else if (command == "addshard" || command == "rmshard") {
      std::string shard_name;
      args >> shard_name;
      ShardedStore* sharded = udsm.GetNative<ShardedStore>(current);
      if (sharded == nullptr) {
        std::printf("error: '%s' is not a shard store\n", current.c_str());
        return;
      }
      if (shard_name.empty()) {
        std::printf("usage: %s NAME\n", command.c_str());
        return;
      }
      const Status status =
          command == "addshard"
              ? sharded->AddShard(shard_name, std::make_shared<MemoryStore>())
              : sharded->RemoveShard(shard_name);
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
        return;
      }
      sharded->WaitForRebalance();  // keep the CLI's output deterministic
      std::printf("%s %s (%zu shards, %llu keys migrated)\n",
                  command == "addshard" ? "added" : "removed",
                  shard_name.c_str(), sharded->shard_count(),
                  static_cast<unsigned long long>(
                      sharded->keys_migrated_total()));
    } else if (command == "lsm") {
      std::string sub;
      args >> sub;
      lsm::LsmStore* store = udsm.GetNative<lsm::LsmStore>(current);
      if (store == nullptr) {
        std::printf("error: '%s' is not an lsm store\n", current.c_str());
        return;
      }
      if (sub == "compact") {
        const Status status = store->CompactAll();
        if (!status.ok()) {
          std::printf("error: %s\n", status.ToString().c_str());
          return;
        }
      } else if (sub != "stats" && !sub.empty()) {
        std::printf("usage: lsm stats | lsm compact\n");
        return;
      }
      const lsm::LsmStats stats = store->GetStats();
      std::printf("memtable: %zu bytes, %zu entries%s\n", stats.memtable_bytes,
                  stats.memtable_entries,
                  stats.has_immutable ? " (+1 immutable flushing)" : "");
      for (size_t level = 0; level < stats.levels.size(); ++level) {
        const auto& l = stats.levels[level];
        if (l.files == 0) continue;
        std::printf("L%zu: %zu files, %llu bytes, %llu entries\n", level,
                    l.files, static_cast<unsigned long long>(l.bytes),
                    static_cast<unsigned long long>(l.entries));
      }
      const double hit_rate =
          stats.bloom_checks == 0
              ? 0.0
              : 100.0 * static_cast<double>(stats.bloom_negatives) /
                    static_cast<double>(stats.bloom_checks);
      std::printf(
          "flushes: %llu  compactions: %llu  tombstones dropped: %llu\n",
          static_cast<unsigned long long>(stats.flushes),
          static_cast<unsigned long long>(stats.compactions),
          static_cast<unsigned long long>(stats.tombstones_dropped));
      std::printf("bloom: %llu checks, %.1f%% skipped, %llu false positives\n",
                  static_cast<unsigned long long>(stats.bloom_checks),
                  hit_rate,
                  static_cast<unsigned long long>(stats.bloom_false_positives));
      std::printf("compaction debt: %llu bytes  last sequence: %llu  "
                  "snapshots: %zu\n",
                  static_cast<unsigned long long>(stats.compaction_debt_bytes),
                  static_cast<unsigned long long>(stats.last_sequence),
                  stats.live_snapshots);
      std::printf("block cache: %zu bytes, %zu entries, %llu hits, "
                  "%llu misses\n",
                  stats.block_cache_bytes, stats.block_cache_entries,
                  static_cast<unsigned long long>(stats.block_cache_hits),
                  static_cast<unsigned long long>(stats.block_cache_misses));
    } else if (command == "replica") {
      std::string sub, target;
      args >> sub >> target;
      auto* replicated = udsm.GetNative<replica::ReplicatedStore>(current);
      if (replicated == nullptr) {
        std::printf("error: '%s' is not a replicated store\n",
                    current.c_str());
        return;
      }
      replica::ReplicaGroup* group = replicated->group();
      if (sub == "promote") {
        const Status status = group->Promote(target);
        if (!status.ok()) {
          std::printf("error: %s\n", status.ToString().c_str());
          return;
        }
        std::printf("promoted %s (epoch %llu)\n",
                    group->primary_name().c_str(),
                    static_cast<unsigned long long>(group->epoch()));
      } else if (sub == "status" || sub.empty()) {
        const auto status = group->GetStatus();
        std::printf("group %s: epoch %llu, last seq %llu, primary %s\n",
                    status.name.c_str(),
                    static_cast<unsigned long long>(status.epoch),
                    static_cast<unsigned long long>(status.last_seq),
                    status.primary.c_str());
        for (const auto& info : status.replicas) {
          std::printf("  %-8s %s %s  applied %llu  lag %llu  hints %llu  "
                      "breaker %s\n",
                      info.name.c_str(), info.primary ? "primary" : "backup ",
                      info.up ? "up  " : "down",
                      static_cast<unsigned long long>(info.applied),
                      static_cast<unsigned long long>(info.lag),
                      static_cast<unsigned long long>(info.hints),
                      info.breaker.c_str());
        }
      } else {
        std::printf("usage: replica status | replica promote [NAME]\n");
      }
    } else if (command == "admit") {
      // Live admission-control state: breaker states, concurrency limits,
      // shed counters — every registered component, one line each.
      std::fputs(admit::DescribeAdmissionState().c_str(), stdout);
    } else if (command == "monitor") {
      std::fputs(udsm.monitor()->Report().c_str(), stdout);
    } else if (command == "stats") {
      std::fputs(obs::RenderPrometheusText().c_str(), stdout);
    } else if (command == "trace") {
      std::string key;
      args >> key;
      KeyValueStore* store = Current();
      if (store == nullptr) return;
      Status get_status = Status::OK();
      {
        // Force-sampled root: children opened inside the layered Get (cache
        // lookup, transforms, base store) attach to it automatically.
        obs::Span root("cli.get", obs::Tracer::Default(),
                       /*force_sample=*/true);
        get_status = store->Get(key).status();
      }
      if (!get_status.ok()) {
        std::printf("get: %s\n", get_status.ToString().c_str());
      }
      auto trace = obs::Tracer::Default()->LatestTrace();
      if (trace == nullptr) {
        std::printf("no trace recorded\n");
      } else {
        std::fputs(trace->ToText().c_str(), stdout);
      }
    } else if (command == "slow") {
      // Tail-captured slow and error traces, worst first, with remote
      // segments stitched in. Arm capture on first use so a plain shell
      // session records from here on.
      obs::Tracer* tracer = obs::Tracer::Default();
      if (tracer->SlowTraces().empty()) {
        obs::Tracer::SlowCaptureOptions options;
        options.threshold_ms = 10;
        tracer->EnableSlowCapture(options);
      }
      std::fputs(obs::RenderSlowTracesText(tracer).c_str(), stdout);
    } else if (command == "version") {
      std::printf("%s\n", obs::BuildInfoJson().c_str());
    } else {
      std::printf("unknown command '%s' (try `help`)\n", command.c_str());
    }
  }
};

}  // namespace

int main() {
  Shell shell;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    shell.Dispatch(line);
  }
  for (auto& server : shell.sql_servers) server->Stop();
  return 0;
}
