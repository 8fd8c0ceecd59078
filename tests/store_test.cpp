// Tests of the persistence layer behind the shardable sweep service: the
// shared binary framing (core/binfile.h), canonical scenario hashing, the
// content-addressed result store with its lease protocol, mission
// checkpoint files, and the execution backends' byte-identity contract
// across shard counts, thread counts and kill-and-resume cycles.
//
// Every negative-path test feeds deliberately damaged bytes through the
// readers — they must throw a descriptive std::runtime_error, never crash
// or read out of bounds (the sanitize CI job runs this suite under
// ASan/UBSan).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/binfile.h"
#include "core/mission.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"
#include "sweep/scenario_hash.h"

namespace co = brightsi::core;
namespace fs = std::filesystem;
namespace sw = brightsi::sweep;

namespace {

std::string csv_of(const sw::SweepResult& result) {
  std::stringstream stream;
  sw::write_sweep_csv(stream, result);
  return stream.str();
}

/// A fresh, empty directory path under the test temp dir.
std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("brightsi_store_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// An 8-row plan over the (fast, thermal-solve-free) array evaluator.
sw::SweepPlan small_array_grid() {
  sw::SweepPlan plan;
  plan.name = "store_grid";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::array_power_evaluator();
  plan.add_grid({{"flow_ml_min", {48.0, 200.0, 400.0, 676.0}},
                 {"channel_gap_um", {150.0, 250.0}}});
  return plan;
}

sw::StoreScope scope_of(const sw::SweepPlan& plan) {
  return sw::StoreScope{plan.name, plan.evaluator.name, plan.evaluator.metrics};
}

/// The record logs of a store directory, in filename order.
std::vector<fs::path> record_logs(const std::string& dir) {
  std::vector<fs::path> logs;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("records-", 0) == 0) {
      logs.push_back(entry.path());
    }
  }
  std::sort(logs.begin(), logs.end());
  return logs;
}

// ----------------------------------------------------------- core/binfile

TEST(Binfile, PrimitivesRoundTripBitwise) {
  std::string out;
  co::put_u8(out, 0xAB);
  co::put_u32(out, 0xDEADBEEFu);
  co::put_u64(out, 0x0123456789ABCDEFull);
  co::put_f64(out, -0.0);
  co::put_f64(out, 5e-324);  // smallest subnormal
  co::put_bytes(out, "hello");

  co::ByteReader in(out, "test buffer");
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  const double neg_zero = in.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // -0.0 survives, not just its value
  EXPECT_EQ(in.f64(), 5e-324);
  EXPECT_EQ(in.bytes(), "hello");
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(Binfile, Crc32MatchesTheIeeeTestVector) {
  EXPECT_EQ(co::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(co::crc32(""), 0u);
}

TEST(Binfile, ReaderThrowsOnTruncationInsteadOfOverreading) {
  const std::string four_bytes("\x01\x02\x03\x04", 4);
  co::ByteReader in(four_bytes, "short file");
  EXPECT_THROW((void)in.u64(), std::runtime_error);

  std::string claims_more;
  co::put_u32(claims_more, 100);  // length prefix promising 100 bytes
  co::ByteReader lying(claims_more, "lying file");
  EXPECT_THROW((void)lying.bytes(), std::runtime_error);
}

TEST(Binfile, HeaderRejectsWrongMagicAndVersion) {
  const std::string header = co::make_binfile_header("BSISTOR1", 3, 0x1234);
  {
    co::ByteReader in(header, "store file");
    const co::BinfileHeader parsed = co::read_binfile_header(in, "BSISTOR1", 3);
    EXPECT_EQ(parsed.format_version, 3u);
    EXPECT_EQ(parsed.salt, 0x1234u);
  }
  {
    co::ByteReader in(header, "store file");
    EXPECT_THROW((void)co::read_binfile_header(in, "BSIJRNL1", 3), std::runtime_error);
  }
  {
    co::ByteReader in(header, "store file");
    try {
      (void)co::read_binfile_header(in, "BSISTOR1", 4);
      FAIL() << "version mismatch must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("incompatible"), std::string::npos) << e.what();
    }
  }
  {
    const std::string stub = header.substr(0, 6);  // shorter than the magic
    co::ByteReader in(stub, "stub file");
    EXPECT_THROW((void)co::read_binfile_header(in, "BSISTOR1", 3), std::runtime_error);
  }
}

TEST(Binfile, RecordTornTailVsMidStreamCorruption) {
  std::string out;
  co::put_record(out, "payload-one");
  co::put_record(out, "payload-two");

  {
    co::ByteReader in(out, "log");
    std::string_view payload;
    EXPECT_EQ(co::read_record(in, payload), co::RecordStatus::kOk);
    EXPECT_EQ(payload, "payload-one");
    EXPECT_EQ(co::read_record(in, payload), co::RecordStatus::kOk);
    EXPECT_EQ(payload, "payload-two");
  }
  {
    // A frame running past end-of-buffer is a torn tail, not corruption.
    const std::string torn = out.substr(0, out.size() - 3);
    co::ByteReader in(torn, "log");
    std::string_view payload;
    EXPECT_EQ(co::read_record(in, payload), co::RecordStatus::kOk);
    EXPECT_EQ(co::read_record(in, payload), co::RecordStatus::kTruncated);
  }
  {
    // A bit flip inside a complete frame is corruption and must throw.
    std::string corrupt = out;
    corrupt[6] ^= 0x01;  // inside "payload-one"
    co::ByteReader in(corrupt, "log");
    std::string_view payload;
    EXPECT_THROW((void)co::read_record(in, payload), std::runtime_error);
  }
}

// ------------------------------------------------------- scenario hashing

TEST(ScenarioHash, DeterministicAndOrderInsensitive) {
  sw::ScenarioSpec ab;
  ab.name = "row";
  ab.set("flow_ml_min", 200.0);
  ab.set("inlet_c", 27.0);
  sw::ScenarioSpec ba;
  ba.name = "row";
  ba.set("inlet_c", 27.0);
  ba.set("flow_ml_min", 200.0);

  const sw::ScenarioHash h1 = sw::hash_scenario(ab, 42);
  EXPECT_EQ(h1, sw::hash_scenario(ab, 42));  // deterministic
  EXPECT_EQ(h1, sw::hash_scenario(ba, 42));  // override order canonicalized
  EXPECT_NE(h1, sw::hash_scenario(ab, 43));  // salt participates

  sw::ScenarioSpec renamed = ab;
  renamed.name = "other row";
  EXPECT_NE(h1, sw::hash_scenario(renamed, 42));  // name participates

  sw::ScenarioSpec retuned = ab;
  retuned.set("flow_ml_min", 200.0000000001);
  EXPECT_NE(h1, sw::hash_scenario(retuned, 42));  // value bits participate
}

TEST(ScenarioHash, CanonicalizesNegativeZeroButKeepsOtherBitPatterns) {
  // 0.0 and -0.0 compare equal everywhere a parameter value is consumed,
  // so they must name the same evaluation: a -0.0 produced by snapped
  // optimizer arithmetic must not fork a second store row for the same
  // physical design.
  sw::ScenarioSpec pos;
  pos.name = "z";
  pos.set("inlet_c", 0.0);
  sw::ScenarioSpec neg;
  neg.name = "z";
  neg.set("inlet_c", -0.0);
  EXPECT_EQ(sw::hash_scenario(pos, 7), sw::hash_scenario(neg, 7));

  // Every other bit pattern still hashes by raw IEEE-754 bits: values a
  // printf would round together stay distinct evaluations.
  sw::ScenarioSpec nearby = pos;
  nearby.set("inlet_c", 5e-324);  // smallest subnormal: != 0.0
  EXPECT_NE(sw::hash_scenario(pos, 7), sw::hash_scenario(nearby, 7));
}

TEST(ScenarioHash, HexIs32LowercaseChars) {
  const sw::ScenarioHash hash{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(hash.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(sw::ScenarioHash{}.hex(), std::string(32, '0'));
}

TEST(ScenarioHash, ShardAssignmentPartitionsThePlan) {
  const sw::SweepPlan plan = sw::make_registered_plan("ablation_geometry");
  const std::uint64_t salt = scope_of(plan).salt();
  int counts[3] = {0, 0, 0};
  for (const sw::ScenarioSpec& scenario : plan.scenarios) {
    const int shard = sw::hash_scenario(scenario, salt).shard_of(3);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 3);
    ++counts[shard];
  }
  EXPECT_EQ(counts[0] + counts[1] + counts[2],
            static_cast<int>(plan.scenarios.size()));
}

TEST(ScenarioHash, StoreSaltSeparatesScopesAndFormatVersions) {
  const std::vector<std::string> metrics = {"a", "b"};
  const std::uint64_t salt = sw::store_salt("plan", "eval", metrics);
  EXPECT_EQ(salt, sw::store_salt("plan", "eval", metrics));
  EXPECT_NE(salt, sw::store_salt("other", "eval", metrics));
  EXPECT_NE(salt, sw::store_salt("plan", "other", metrics));
  EXPECT_NE(salt, sw::store_salt("plan", "eval", {"a", "c"}));
  EXPECT_NE(salt, sw::store_salt("plan", "eval", {"b", "a"}));  // order matters
}

TEST(ScenarioHash, MissionTrajectoryKeyIgnoresElectrochemicalKnobs) {
  sw::ScenarioSpec small_tank;
  small_tank.name = "tank=2";
  small_tank.set("flow_ml_min", 200.0);
  small_tank.set("tank_ml", 2.0);
  small_tank.set("initial_soc", 0.9);
  sw::ScenarioSpec big_tank;
  big_tank.name = "tank=50";
  big_tank.set("flow_ml_min", 200.0);
  big_tank.set("tank_ml", 50.0);
  big_tank.set("initial_soc", 0.5);

  // Same thermal trajectory: tank and SOC are mission_thermal_invariant
  // (and the name never participates).
  EXPECT_EQ(sw::mission_trajectory_key(small_tank), sw::mission_trajectory_key(big_tank));

  sw::ScenarioSpec other_flow = small_tank;
  other_flow.set("flow_ml_min", 48.0);
  EXPECT_NE(sw::mission_trajectory_key(small_tank), sw::mission_trajectory_key(other_flow));

  sw::ScenarioSpec other_dt = small_tank;
  other_dt.set("mission_dt_s", 0.07);
  EXPECT_NE(sw::mission_trajectory_key(small_tank), sw::mission_trajectory_key(other_dt));
}

// ----------------------------------------------------------- result store

TEST(ResultStore, AppendReloadFindRoundTrip) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("roundtrip");
  sw::ResultStore store(dir, scope_of(plan));

  sw::ScenarioResult row;
  row.name = plan.scenarios[0].name;
  row.overrides = plan.scenarios[0].overrides;
  row.metrics = {1.5, -0.0, 3.25, 0.0, 5e-324};
  const sw::ScenarioHash hash = sw::hash_scenario(plan.scenarios[0], store.salt());
  store.append(hash, row);
  EXPECT_EQ(store.appended_count(), 1);

  // A second instance (fresh process, conceptually) sees the row bitwise.
  sw::ResultStore reader(dir, scope_of(plan), /*create=*/false, "r");
  EXPECT_EQ(reader.reload(), 1u);
  const sw::ScenarioResult* hit = reader.find(hash);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->name, row.name);
  EXPECT_EQ(hit->overrides, row.overrides);
  ASSERT_EQ(hit->metrics.size(), row.metrics.size());
  for (std::size_t i = 0; i < row.metrics.size(); ++i) {
    EXPECT_EQ(hit->metrics[i], row.metrics[i]);
  }
  EXPECT_TRUE(std::signbit(hit->metrics[1]));  // -0.0 survived the disk trip
  EXPECT_FALSE(hit->failed);
  EXPECT_EQ(reader.find(sw::ScenarioHash{1, 2}), nullptr);
}

TEST(ResultStore, FailedRowsPersistTheirError) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("failed_rows");
  sw::ResultStore store(dir, scope_of(plan));
  sw::ScenarioResult row;
  row.name = "broken";
  row.failed = true;
  row.error = "channel groups must divide the channel count";
  row.metrics.assign(plan.evaluator.metrics.size(), 0.0);
  store.append(sw::ScenarioHash{9, 9}, row);

  store.reload();
  const sw::ScenarioResult* hit = store.find(sw::ScenarioHash{9, 9});
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->failed);
  EXPECT_EQ(hit->error, row.error);
}

TEST(ResultStore, MissingStoreAndScopeMismatchThrow) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("scope");
  EXPECT_THROW(sw::ResultStore(dir, scope_of(plan), /*create=*/false),
               std::runtime_error);

  sw::ResultStore store(dir, scope_of(plan));  // creates meta.bin

  sw::StoreScope other_plan = scope_of(plan);
  other_plan.scope = "some_other_plan";
  EXPECT_THROW(sw::ResultStore(dir, other_plan), std::runtime_error);

  sw::StoreScope other_metrics = scope_of(plan);
  other_metrics.metrics.push_back("extra");
  EXPECT_THROW(sw::ResultStore(dir, other_metrics), std::runtime_error);
}

TEST(ResultStore, TornTailIsDroppedButMidFileCorruptionThrows) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("damage");
  const std::uint64_t salt = scope_of(plan).salt();
  {
    sw::ResultStore store(dir, scope_of(plan));
    for (int i = 0; i < 2; ++i) {
      sw::ScenarioResult row;
      row.name = plan.scenarios[static_cast<std::size_t>(i)].name;
      row.metrics.assign(plan.evaluator.metrics.size(), static_cast<double>(i));
      store.append(sw::hash_scenario(plan.scenarios[static_cast<std::size_t>(i)], salt),
                   row);
    }
  }
  const std::vector<fs::path> logs = record_logs(dir);
  ASSERT_EQ(logs.size(), 1u);
  const std::string intact = co::read_file_bytes(logs[0].string());

  // Chop a few bytes off the tail: the kill signature. The last row is
  // lost, the store stays readable.
  co::write_file_bytes(logs[0].string(), std::string(intact, 0, intact.size() - 3));
  {
    sw::ResultStore store(dir, scope_of(plan), /*create=*/false, "r");
    EXPECT_EQ(store.reload(), 1u);
  }

  // Flip a byte inside the FIRST record: real corruption, loud failure.
  std::string corrupt = intact;
  corrupt[30] ^= 0x40;
  co::write_file_bytes(logs[0].string(), corrupt);
  {
    sw::ResultStore store(dir, scope_of(plan), /*create=*/false, "r");
    EXPECT_THROW((void)store.reload(), std::runtime_error);
  }

  // A wrong-magic record log is rejected by name, not silently skipped.
  co::write_file_bytes(logs[0].string(),
                       co::make_binfile_header("BSIJRNL1", 1, salt));
  {
    sw::ResultStore store(dir, scope_of(plan), /*create=*/false, "r");
    EXPECT_THROW((void)store.reload(), std::runtime_error);
  }
}

TEST(ResultStore, LeaseClaimReleaseAndSteal) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("leases");
  sw::ResultStore store(dir, scope_of(plan));
  const sw::ScenarioHash hash{0xAA, 0xBB};

  bool stolen = false;
  EXPECT_TRUE(store.try_claim(hash, 60.0, /*create_if_absent=*/true, &stolen));
  EXPECT_FALSE(stolen);
  // Held and fresh: a second claim fails, whether or not it may create.
  EXPECT_FALSE(store.try_claim(hash, 60.0, /*create_if_absent=*/true));
  EXPECT_FALSE(store.try_claim(hash, 60.0, /*create_if_absent=*/false));

  store.release(hash);
  store.release(hash);  // idempotent
  // Absent + probe-only (a foreign shard's row): no claim.
  EXPECT_FALSE(store.try_claim(hash, 60.0, /*create_if_absent=*/false));
  EXPECT_TRUE(store.try_claim(hash, 60.0, /*create_if_absent=*/true));

  // An expired lease is stolen even probe-only — the crashed-peer rescue.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stolen = false;
  EXPECT_TRUE(store.try_claim(hash, 0.02, /*create_if_absent=*/false, &stolen));
  EXPECT_TRUE(stolen);
  store.release(hash);
}

TEST(ResultStore, LeaseWithFutureMtimeIsStolenNotHeldForever) {
  // Clock skew between hosts on a shared filesystem — or a store directory
  // copied with timestamps — can leave a lease file whose mtime is ahead
  // of this host's clock. Its age computes negative; before the clamp such
  // a lease looked "fresh" forever and orphaned its row.
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("future_lease");
  sw::ResultStore store(dir, scope_of(plan));
  const sw::ScenarioHash hash{0xCC, 0xDD};

  ASSERT_TRUE(store.try_claim(hash, 60.0, /*create_if_absent=*/true));
  const fs::path lease = fs::path(dir) / "leases" / (hash.hex() + ".lease");
  ASSERT_TRUE(fs::exists(lease));

  // Forward-date the lease a full hour: a fresh claim must steal it even
  // with a generous timeout, not wait the skew out.
  fs::last_write_time(lease, fs::file_time_type::clock::now() + std::chrono::hours(1));
  bool stolen = false;
  EXPECT_TRUE(store.try_claim(hash, 60.0, /*create_if_absent=*/false, &stolen));
  EXPECT_TRUE(stolen);

  // Back-date it past the timeout: the ordinary crashed-peer steal.
  fs::last_write_time(lease, fs::file_time_type::clock::now() - std::chrono::hours(1));
  stolen = false;
  EXPECT_TRUE(store.try_claim(hash, 60.0, /*create_if_absent=*/false, &stolen));
  EXPECT_TRUE(stolen);

  // Sanity: a just-claimed lease (mtime ~now) is still honored.
  EXPECT_FALSE(store.try_claim(hash, 60.0, /*create_if_absent=*/false));
  store.release(hash);
}

TEST(ResultStore, JournalRoundTripsEvents) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("journal");
  const std::uint64_t salt = scope_of(plan).salt();
  {
    sw::ResultStore store(dir, scope_of(plan));
    store.journal("run_begin", "shard 0/2");
    store.journal("lease_steal", "flow_ml_min=48");
    store.journal("run_end", "evaluated=4");
  }
  const auto journals = sw::read_store_journals(dir, salt);
  ASSERT_EQ(journals.size(), 1u);
  const std::vector<sw::JournalEvent>& events = journals[0].second;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].event, "run_begin");
  EXPECT_EQ(events[0].detail, "shard 0/2");
  EXPECT_EQ(events[1].event, "lease_steal");
  EXPECT_EQ(events[2].event, "run_end");
  // A journal of a different store (wrong salt) is rejected.
  EXPECT_THROW((void)sw::read_store_journals(dir, salt + 1), std::runtime_error);
}

// ----------------------------------------------------- mission checkpoint

TEST(MissionCheckpoint, RoundTripsBitwise) {
  brightsi::numerics::Grid3<double> state(3, 2, 2);
  state(0, 0, 0) = -0.0;
  state(1, 0, 0) = 5e-324;
  state(2, 1, 1) = 351.0625;
  const std::string path = temp_dir("ckpt") + ".bin";
  co::save_mission_checkpoint(path, state, 0.8125);

  const co::MissionCheckpoint loaded = co::load_mission_checkpoint(path);
  EXPECT_EQ(loaded.soc, 0.8125);
  ASSERT_EQ(loaded.state.nx(), 3);
  ASSERT_EQ(loaded.state.ny(), 2);
  ASSERT_EQ(loaded.state.nz(), 2);
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(loaded.state.data()[i], state.data()[i]) << i;
  }
  EXPECT_TRUE(std::signbit(loaded.state(0, 0, 0)));
  fs::remove(path);
}

TEST(MissionCheckpoint, RejectsDamagedFiles) {
  const std::string dir = temp_dir("ckpt_bad");
  fs::create_directories(dir);
  const std::string missing = dir + "/missing.bin";
  EXPECT_THROW((void)co::load_mission_checkpoint(missing), std::runtime_error);

  const std::string wrong_magic = dir + "/wrong.bin";
  co::write_file_bytes(wrong_magic, co::make_binfile_header("BSISTOR1", 1, 0));
  EXPECT_THROW((void)co::load_mission_checkpoint(wrong_magic), std::runtime_error);

  brightsi::numerics::Grid3<double> state(2, 2, 2, 300.0);
  const std::string good = dir + "/good.bin";
  co::save_mission_checkpoint(good, state, 0.5);
  const std::string intact = co::read_file_bytes(good);
  for (const std::size_t keep : {std::size_t{5}, std::size_t{21}, intact.size() - 4}) {
    const std::string truncated_path = dir + "/trunc.bin";
    co::write_file_bytes(truncated_path, std::string(intact, 0, keep));
    EXPECT_THROW((void)co::load_mission_checkpoint(truncated_path), std::runtime_error)
        << "kept " << keep << " bytes";
  }
  std::string corrupt = intact;
  corrupt[40] ^= 0x01;  // inside the framed payload -> crc mismatch
  const std::string corrupt_path = dir + "/corrupt.bin";
  co::write_file_bytes(corrupt_path, corrupt);
  EXPECT_THROW((void)co::load_mission_checkpoint(corrupt_path), std::runtime_error);
}

// ------------------------------------------------------ execution backends

TEST(ExecutionBackend, LocalBackendMatchesPlainRunner) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string reference = csv_of(sw::SweepRunner({2}).run(plan));
  const sw::SweepRunner runner(sw::make_local_backend({2}));
  const sw::SweepResult result = runner.run(plan);
  EXPECT_EQ(csv_of(result), reference);
  EXPECT_EQ(result.backend, "local");
  EXPECT_EQ(result.exec.evaluated, 8);
  EXPECT_EQ(result.exec.store_hits, 0);
}

TEST(ExecutionBackend, ShardedRunsMergeByteIdenticalAtAnyShardAndThreadCount) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string reference = csv_of(sw::SweepRunner({1}).run(plan));

  for (const int shard_count : {1, 2, 3}) {
    for (const int threads : {1, 4}) {
      const std::string dir = temp_dir("shards_" + std::to_string(shard_count) + "_" +
                                       std::to_string(threads));
      long long evaluated = 0;
      for (int index = 0; index < shard_count; ++index) {
        sw::ShardOptions options;
        options.store_dir = dir;
        options.scope = plan.name;
        options.shard_index = index;
        options.shard_count = shard_count;
        options.local = {threads};
        const sw::SweepRunner runner(sw::make_shard_backend(options));
        const sw::SweepResult partial = runner.run(plan);
        EXPECT_EQ(partial.backend, "shard");
        evaluated += partial.exec.evaluated;
      }
      // Strict partitioning: every row evaluated exactly once across shards,
      // because a shard never claims a foreign row that has no lease.
      EXPECT_EQ(evaluated, 8) << shard_count << " shards, " << threads << " threads";
      const sw::SweepResult merged = sw::assemble_from_store(plan, dir);
      EXPECT_EQ(csv_of(merged), reference)
          << shard_count << " shards, " << threads << " threads";
      EXPECT_EQ(merged.backend, "merge");
    }
  }
}

TEST(ExecutionBackend, SequentialShardsStealNothingButFinishEverything) {
  // A shard takes over a foreign row only when its lease is orphaned. Here
  // shard 1 runs first, so it leaves shard 0's rows pending (their leases
  // were never created, nothing to steal), then shard 0 completes the store.
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("steal_pending");

  sw::ShardOptions one;
  one.store_dir = dir;
  one.scope = plan.name;
  one.shard_index = 1;
  one.shard_count = 2;
  one.local = {2};
  const sw::SweepResult first = sw::SweepRunner(sw::make_shard_backend(one)).run(plan);
  EXPECT_GT(first.exec.pending, 0);
  EXPECT_GT(first.failure_count(), 0);  // pending rows read as failed rows
  for (const sw::ScenarioResult& row : first.rows) {
    if (row.failed) {
      EXPECT_EQ(row.error.rfind("pending: ", 0), 0u) << row.error;
    }
  }

  sw::ShardOptions zero = one;
  zero.shard_index = 0;
  const sw::SweepResult second = sw::SweepRunner(sw::make_shard_backend(zero)).run(plan);
  EXPECT_EQ(second.exec.pending, 0);
  EXPECT_EQ(second.failure_count(), 0);
  EXPECT_EQ(second.exec.store_hits + second.exec.evaluated, 8);
  EXPECT_EQ(csv_of(second), csv_of(sw::SweepRunner({1}).run(plan)));
}

TEST(ExecutionBackend, KillAndResumeReproducesTheUninterruptedRun) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string reference = csv_of(sw::SweepRunner({1}).run(plan));
  const std::string dir = temp_dir("resume");

  // "Kill" after 3 fresh evaluations (row-limit injection).
  sw::ShardOptions limited;
  limited.store_dir = dir;
  limited.scope = plan.name;
  limited.row_limit = 3;
  limited.local = {2};
  const sw::SweepResult killed = sw::SweepRunner(sw::make_shard_backend(limited)).run(plan);
  EXPECT_EQ(killed.exec.evaluated, 3);
  EXPECT_EQ(killed.exec.pending, 5);
  EXPECT_THROW((void)sw::assemble_from_store(plan, dir), std::runtime_error);
  const sw::SweepResult partial = sw::assemble_from_store(plan, dir, /*allow_missing=*/true);
  EXPECT_EQ(partial.exec.pending, 5);

  // Resume against the same store: only the missing rows are evaluated.
  sw::ShardOptions resume = limited;
  resume.row_limit = -1;
  const sw::SweepResult resumed = sw::SweepRunner(sw::make_shard_backend(resume)).run(plan);
  EXPECT_EQ(resumed.exec.store_hits, 3);
  EXPECT_EQ(resumed.exec.evaluated, 5);
  EXPECT_EQ(csv_of(resumed), reference);
  EXPECT_EQ(csv_of(sw::assemble_from_store(plan, dir)), reference);
}

TEST(ExecutionBackend, WarmStoreSkipsEveryEvaluation) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("warm");
  sw::ShardOptions options;
  options.store_dir = dir;
  options.scope = plan.name;
  options.local = {2};
  (void)sw::SweepRunner(sw::make_shard_backend(options)).run(plan);

  const sw::SweepResult warm = sw::SweepRunner(sw::make_shard_backend(options)).run(plan);
  EXPECT_EQ(warm.exec.evaluated, 0);
  EXPECT_EQ(warm.exec.store_hits, 8);
  EXPECT_EQ(csv_of(warm), csv_of(sw::SweepRunner({1}).run(plan)));
}

TEST(ExecutionBackend, StoreRefusesAForeignPlan) {
  const sw::SweepPlan plan = small_array_grid();
  const std::string dir = temp_dir("foreign");
  sw::ShardOptions options;
  options.store_dir = dir;
  options.scope = plan.name;
  options.local = {1};
  (void)sw::SweepRunner(sw::make_shard_backend(options)).run(plan);

  // Same directory, different plan: the scope check must fire (on the
  // first execute, where the evaluator completes the scope).
  sw::SweepPlan other = small_array_grid();
  other.name = "another_plan";
  sw::ShardOptions reuse = options;
  reuse.scope = other.name;
  const sw::SweepRunner runner(sw::make_shard_backend(reuse));
  EXPECT_THROW((void)runner.run(other), std::runtime_error);
  EXPECT_THROW((void)sw::assemble_from_store(other, dir), std::runtime_error);
}

TEST(ExecutionBackend, ShardOptionsValidateBounds) {
  sw::ShardOptions no_dir;
  EXPECT_THROW((void)sw::make_shard_backend(no_dir), std::invalid_argument);

  sw::ShardOptions bad_index;
  bad_index.store_dir = temp_dir("bounds");
  bad_index.shard_index = 2;
  bad_index.shard_count = 2;
  EXPECT_THROW((void)sw::make_shard_backend(bad_index), std::invalid_argument);
  bad_index.shard_index = -1;
  EXPECT_THROW((void)sw::make_shard_backend(bad_index), std::invalid_argument);
}

}  // namespace
