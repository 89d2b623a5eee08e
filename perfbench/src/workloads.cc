// social_cold and wire_social: data generation, client operation mixes and
// correctness gates. See perfbench/README.md for the
// sizes, isolation levels and the reason each workload exists.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <unordered_map>

#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

using neosi::Client;
using neosi::DatabaseOptions;
using neosi::GraphDatabase;
using neosi::IsolationLevel;
using neosi::NodeId;
using neosi::PropertyValue;
using neosi::RelId;
using neosi::Status;
using neosi::Transaction;

namespace {

// Stream purposes for StreamSeed.
enum Purpose : uint64_t { kGraph = 1, kHotOrder = 2, kClient = 3 };

constexpr double kZipfTheta = 0.8;
constexpr uint64_t kLoadBatch = 2000;  // entities created per load txn
// social_cold checkpoints and rolls WAL segments several times per run, so
// the checkpoint daemon and segment roll run inside the window; at the
// defaults (4 MiB, 16 MiB) its updates write too little WAL to reach either.
constexpr uint64_t kColdCheckpointWal = 256 << 10;
constexpr uint64_t kColdWalSegment = 512 << 10;

std::string PersonName(uint64_t i) { return "person-" + std::to_string(i); }

/// Zipf rank -> entity index: a seeded shuffle, so the hot set is scattered
/// over the id space instead of being the first entities created.
std::vector<uint32_t> HotOrder(uint64_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (uint64_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  Rng rng(StreamSeed(seed, kHotOrder));
  for (uint64_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  return order;
}

Status OpenDb(const DatabaseOptions& options,
              std::unique_ptr<GraphDatabase>* out) {
  if (!options.in_memory) {
    std::error_code ec;
    std::filesystem::create_directories(options.path, ec);
    if (ec) return Status::IOError(options.path + ": " + ec.message());
  }
  auto db = GraphDatabase::Open(options);
  if (!db.ok()) return db.status();
  *out = std::move(*db);
  return Status::OK();
}

/// Commits `txn` when it has `pending` >= kLoadBatch creates (or `force`),
/// then starts a fresh one.
Status MaybeFlush(GraphDatabase& db, std::unique_ptr<Transaction>* txn,
                  uint64_t* pending, bool force) {
  if (!force && *pending < kLoadBatch) return Status::OK();
  Status s = (*txn)->Commit();
  if (!s.ok()) return s;
  *pending = 0;
  if (!force) *txn = db.Begin(IsolationLevel::kSnapshotIsolation);
  return Status::OK();
}

Status Mismatch(const std::string& what) {
  return Status::Corruption("output check failed: " + what);
}

// ---------------------------------------------------------------------------
// Social graph (social_cold, wire_social)
// ---------------------------------------------------------------------------

struct SocialSpec {
  uint64_t people = 0;
  bool on_disk = false;
  bool wire = false;
};

class SocialWorkload : public Workload {
 public:
  SocialWorkload(const SocialSpec& spec, const WorkloadConfig& config)
      : spec_(spec),
        config_(config),
        zipf_(spec.people, kZipfTheta),
        hot_(HotOrder(spec.people, config.seed)),
        acked_(spec.people) {}

  ~SocialWorkload() override {
    if (server_) server_->Stop();
  }

  Status Setup() override {
    if (spec_.on_disk) {
      options_.in_memory = false;
      options_.path = config_.dir + "/db";
      // The cache holds 1/8 of the entities (4 per person: the node and its
      // three outgoing KNOWS), so the working set does not fit.
      options_.object_cache_capacity = spec_.people * 4 / 8;
      options_.checkpoint_wal_threshold = kColdCheckpointWal;
      options_.wal_segment_size = kColdWalSegment;
    }
    Status s = OpenDb(options_, &db_);
    if (!s.ok()) return s;
    s = Generate();
    if (!s.ok()) return s;
    if (spec_.wire) {
      auto server = neosi::Server::Start(db_.get(), neosi::ServerOptions{});
      if (!server.ok()) return server.status();
      server_ = std::move(*server);
    }
    return Status::OK();
  }

  uint64_t warmup_ops() const override { return spec_.wire ? 5000 : 10000; }
  std::unique_ptr<ClientDriver> NewClient(int index) override;
  GraphDatabase& db() override { return *db_; }
  uint64_t cache_capacity() const override {
    return options_.object_cache_capacity;
  }

  // The age ledger on the live database; for the on-disk workload also
  // after closing and reopening it, which takes the recovery path.
  std::string Check() override {
    std::string why = CheckLedger();
    if (!why.empty() || !spec_.on_disk) return why;
    db_.reset();
    Status s = OpenDb(options_, &db_);
    if (!s.ok()) return "reopen: " + s.ToString();
    why = CheckLedger();
    return why.empty() ? why : "after reopen: " + why;
  }

  Status FabricateLostUpdate() override {
    auto txn = db_->Begin(IsolationLevel::kSnapshotIsolation);
    auto age = txn->GetNodeProperty(ids_[0], "age");
    if (!age.ok()) return age.status();
    Status s = txn->SetNodeProperty(ids_[0], "age", age->AsInt() + 1);
    if (s.ok()) s = txn->Commit();
    if (!s.ok()) return s;
    AckIncrement(0);
    txn = db_->Begin(IsolationLevel::kSnapshotIsolation);
    s = txn->SetNodeProperty(ids_[0], "age", *age);
    return s.ok() ? txn->Commit() : s;
  }

  void FabricateAck() override { AckIncrement(0); }

  // --- shared with the client drivers --------------------------------------

  uint64_t DrawPerson(Rng& rng) const { return hot_[zipf_.Draw(rng)]; }
  NodeId id(uint64_t person) const { return ids_[person]; }
  void AckIncrement(uint64_t person) { acked_[person].fetch_add(1); }

  /// Checks that `name` is the name generated for node `node`.
  Status CheckName(NodeId node, const PropertyValue& name) const {
    auto it = person_of_.find(node);
    if (it == person_of_.end()) {
      return Mismatch("node " + std::to_string(node) + " is not a person");
    }
    if (!name.is_string() || name.AsString() != PersonName(it->second)) {
      return Mismatch("wrong name on node " + std::to_string(node));
    }
    return Status::OK();
  }

  uint16_t port() const { return server_->port(); }

 private:
  // The age ledger over one snapshot of every person.
  std::string CheckLedger() {
    auto txn = db_->Begin(IsolationLevel::kSnapshotIsolation);
    auto people = txn->GetNodesByLabel("Person");
    if (!people.ok()) return people.status().ToString();
    if (people->size() != spec_.people) {
      return std::to_string(people->size()) + " Person nodes, expected " +
             std::to_string(spec_.people);
    }
    std::vector<int64_t> final_ages(spec_.people);
    std::vector<uint64_t> acked(spec_.people);
    for (uint64_t i = 0; i < spec_.people; ++i) {
      auto age = txn->GetNodeProperty(ids_[i], "age");
      if (!age.ok()) return age.status().ToString();
      final_ages[i] = age->AsInt();
      acked[i] = acked_[i].load();
    }
    return CheckAgeLedger(initial_age_, acked, final_ages);
  }

  // People with name and age; each person i KNOWS i+1 (a ring, so the graph
  // is connected) and two uniformly chosen others. Every KNOWS carries a
  // `since` year.
  Status Generate() {
    Rng rng(StreamSeed(config_.seed, kGraph));
    ids_.reserve(spec_.people);
    initial_age_.reserve(spec_.people);
    auto txn = db_->Begin(IsolationLevel::kSnapshotIsolation);
    uint64_t pending = 0;
    for (uint64_t i = 0; i < spec_.people; ++i) {
      const int64_t age = 18 + static_cast<int64_t>(rng.Uniform(60));
      auto id = txn->CreateNode({"Person"},
                                {{"name", PersonName(i)}, {"age", age}});
      if (!id.ok()) return id.status();
      ids_.push_back(*id);
      person_of_.emplace(*id, static_cast<uint32_t>(i));
      initial_age_.push_back(age);
      ++pending;
      Status s = MaybeFlush(*db_, &txn, &pending, false);
      if (!s.ok()) return s;
    }
    const uint64_t n = spec_.people;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t targets[3] = {(i + 1) % n, rng.Uniform(n), rng.Uniform(n)};
      for (uint64_t dst : targets) {
        if (dst == i) dst = (i + n / 2) % n;
        const int64_t since = 1980 + static_cast<int64_t>(rng.Uniform(45));
        auto rel = txn->CreateRelationship(ids_[i], ids_[dst], "KNOWS",
                                           {{"since", since}});
        if (!rel.ok()) return rel.status();
        ++pending;
        Status s = MaybeFlush(*db_, &txn, &pending, false);
        if (!s.ok()) return s;
      }
    }
    return MaybeFlush(*db_, &txn, &pending, true);
  }

  const SocialSpec spec_;
  const WorkloadConfig config_;
  const Zipf zipf_;
  const std::vector<uint32_t> hot_;
  DatabaseOptions options_;
  std::vector<NodeId> ids_;
  std::unordered_map<NodeId, uint32_t> person_of_;
  std::vector<int64_t> initial_age_;
  std::vector<std::atomic<uint64_t>> acked_;  // acknowledged age increments
  std::unique_ptr<GraphDatabase> db_;
  std::unique_ptr<neosi::Server> server_;  // declared after db_: stops first
};

// social_cold: 90% 1-hop reads and 5% index point lookups under snapshot
// isolation, 5% age + since updates under Serializable (SSI).
class SocialClient : public ClientDriver {
 public:
  SocialClient(SocialWorkload* w, uint64_t seed) : w_(w), rng_(seed) {}

  void Next() override {
    const uint64_t pick = rng_.Uniform(100);
    kind_ = pick < 90 ? kRead : pick < 95 ? kLookup : kUpdate;
    person_ = w_->DrawPerson(rng_);
    rel_pick_ = rng_.Next();
    since_ = 1980 + static_cast<int64_t>(rng_.Uniform(45));
  }

  Status Run(Tracer& t) override {
    GraphDatabase& db = w_->db();
    const NodeId node = w_->id(person_);
    auto txn = t.Time(Layer::kBegin, [&] {
      return db.Begin(kind_ == kUpdate ? IsolationLevel::kSerializable
                                       : IsolationLevel::kSnapshotIsolation);
    });
    t.SetTxn(txn->id());
    Status s;
    switch (kind_) {
      case kRead: s = OneHop(t, *txn, node); break;
      case kLookup: s = Lookup(t, *txn, node); break;
      case kUpdate: s = Update(t, *txn, node); break;
    }
    if (!s.ok()) return s;
    return t.Time(Layer::kCommit, [&] { return txn->Commit(); });
  }

  void Ack() override {
    if (kind_ == kUpdate) w_->AckIncrement(person_);
  }

 private:
  enum Kind { kRead, kLookup, kUpdate };

  Status OneHop(Tracer& t, Transaction& txn, NodeId node) {
    auto rels = t.Time(Layer::kExpand, [&] { return txn.GetRelationships(node); });
    if (!rels.ok()) return rels.status();
    if (rels->empty()) return Mismatch("person without relationships");
    for (RelId rel : *rels) {
      auto view = t.Time(Layer::kRead, [&] { return txn.GetRelationship(rel); });
      if (!view.ok()) return view.status();
      if (!view->props.count("since")) return Mismatch("KNOWS without since");
      const NodeId other = view->OtherEnd(node);
      auto name = t.Time(Layer::kRead,
                         [&] { return txn.GetNodeProperty(other, "name"); });
      if (!name.ok()) return name.status();
      Status s = w_->CheckName(other, *name);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  Status Lookup(Tracer& t, Transaction& txn, NodeId node) {
    auto hits = t.Time(Layer::kIndex, [&] {
      return txn.GetNodesByProperty("name", PersonName(person_));
    });
    if (!hits.ok()) return hits.status();
    if (hits->size() != 1 || hits->front() != node) {
      return Mismatch("name lookup did not return exactly its person");
    }
    auto age = t.Time(Layer::kRead, [&] { return txn.GetNodeProperty(node, "age"); });
    return age.status();
  }

  Status Update(Tracer& t, Transaction& txn, NodeId node) {
    auto age = t.Time(Layer::kRead, [&] { return txn.GetNodeProperty(node, "age"); });
    if (!age.ok()) return age.status();
    Status s = t.Time(Layer::kWrite, [&] {
      return txn.SetNodeProperty(node, "age", age->AsInt() + 1);
    });
    if (!s.ok()) return s;
    auto rels = t.Time(Layer::kExpand, [&] {
      return txn.GetRelationships(node, neosi::Direction::kOutgoing);
    });
    if (!rels.ok()) return rels.status();
    if (rels->empty()) return Mismatch("person without outgoing KNOWS");
    const RelId rel = (*rels)[rel_pick_ % rels->size()];
    return t.Time(Layer::kWrite,
                  [&] { return txn.SetRelProperty(rel, "since", since_); });
  }

  SocialWorkload* const w_;
  Rng rng_;
  Kind kind_ = kRead;
  uint64_t person_ = 0;
  uint64_t rel_pick_ = 0;
  int64_t since_ = 0;
};

// wire_social: 80% reads (2 point reads), 10% index lookups, 10%
// read-modify-write, all Read Committed through one Client connection.
class WireClient : public ClientDriver {
 public:
  WireClient(SocialWorkload* w, uint64_t seed) : w_(w), rng_(seed) {}

  Status Connect() { return client_.Connect("127.0.0.1", w_->port()); }

  void Next() override {
    const uint64_t pick = rng_.Uniform(100);
    kind_ = pick < 80 ? kRead : pick < 90 ? kLookup : kUpdate;
    person_ = w_->DrawPerson(rng_);
  }

  Status Run(Tracer& t) override {
    auto begin = t.Time(Layer::kWireBegin, [&] {
      return client_.Begin(IsolationLevel::kReadCommitted);
    });
    if (!begin.ok()) return begin.status();
    t.SetTxn(begin->txn_id);
    Status s = Body(t, w_->id(person_));
    if (s.ok()) {
      auto commit = t.Time(Layer::kWireCommit, [&] { return client_.Commit(); });
      return commit.status();
    }
    // The server keeps the failed transaction open until told otherwise.
    Status rollback = client_.Rollback();
    if (!rollback.ok() && s.IsRetryable()) return rollback;
    return s;
  }

  void Ack() override {
    if (kind_ == kUpdate) w_->AckIncrement(person_);
  }

 private:
  enum Kind { kRead, kLookup, kUpdate };

  neosi::Result<PropertyValue> Read(Tracer& t, NodeId node,
                                    const std::string& key) {
    return t.Time(Layer::kWireRead,
                  [&] { return client_.GetNodeProperty(node, key); });
  }

  Status Body(Tracer& t, NodeId node) {
    switch (kind_) {
      case kRead: {
        auto name = Read(t, node, "name");
        if (!name.ok()) return name.status();
        Status s = w_->CheckName(node, *name);
        if (!s.ok()) return s;
        return Read(t, node, "age").status();
      }
      case kLookup: {
        auto hits = t.Time(Layer::kWireRead, [&] {
          return client_.GetNodesByProperty("name", PersonName(person_));
        });
        if (!hits.ok()) return hits.status();
        if (hits->size() != 1 || hits->front() != node) {
          return Mismatch("name lookup did not return exactly its person");
        }
        return Status::OK();
      }
      case kUpdate: {
        // Read Committed reads take no lasting lock, so lock the person
        // first (a write, like SELECT ... FOR UPDATE) and only then read
        // the age to increment; otherwise two clients lose an update.
        Status s = t.Time(Layer::kWireWrite, [&] {
          return client_.SetNodeProperty(node, "locked_by", int64_t{1});
        });
        if (!s.ok()) return s;
        auto age = Read(t, node, "age");
        if (!age.ok()) return age.status();
        return t.Time(Layer::kWireWrite, [&] {
          return client_.SetNodeProperty(node, "age", age->AsInt() + 1);
        });
      }
    }
    return Status::OK();
  }

  SocialWorkload* const w_;
  Rng rng_;
  Client client_;
  Kind kind_ = kRead;
  uint64_t person_ = 0;
};

std::unique_ptr<ClientDriver> SocialWorkload::NewClient(int index) {
  const uint64_t seed = StreamSeed(config_.seed, kClient, index);
  if (!spec_.wire) return std::make_unique<SocialClient>(this, seed);
  auto client = std::make_unique<WireClient>(this, seed);
  if (!client->Connect().ok()) return nullptr;
  return client;
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  Rng mix(seed ^ (purpose * 0xD1B54A32D192ED03ULL) ^
          (index * 0x8CB92BA72F3D8DD7ULL));
  return mix.Next();
}

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Draw(Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint64_t>(it - cdf_.begin());
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"social_cold", "wire_social"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  const auto scaled = [&](uint64_t n) {
    return std::max<uint64_t>(16, static_cast<uint64_t>(n * config.scale));
  };
  if (name == "social_cold") {
    return std::make_unique<SocialWorkload>(
        SocialSpec{scaled(100000), /*on_disk=*/true, /*wire=*/false}, config);
  }
  if (name == "wire_social") {
    return std::make_unique<SocialWorkload>(
        SocialSpec{scaled(50000), /*on_disk=*/false, /*wire=*/true}, config);
  }
  return nullptr;
}

}  // namespace perfbench
