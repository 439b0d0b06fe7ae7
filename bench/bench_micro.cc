// Substrate micro-benchmarks (google-benchmark): the primitive costs
// underneath the paper tables — B+tree point ops, object store CRUD,
// buffer-pool hit path, page read + verify (the miss path), slotted-page
// ops, WAL appends, CRC32, bitmap inversion. Useful for attributing
// where the macro numbers come from.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "index/bptree.h"
#include "objstore/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/slotted_page.h"
#include "util/bitmap.h"
#include "util/crc32.h"
#include "util/random.h"

namespace {

using hm::index::BPlusTree;
using hm::index::Key128;

std::string ScratchDir(const std::string& name) {
  std::string dir = "/tmp/hm_micro_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------- CRC32 ----------

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hm::util::Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
// 16/63: short WAL records and frames, which stay on the table kernel;
// 64: where the folding kernel starts; 8188: the page body every
// buffer-pool miss verifies.
BENCHMARK(BM_Crc32)->Arg(16)->Arg(63)->Arg(64)->Arg(8188)->Arg(8192);

// ---------- Bitmap ----------

void BM_BitmapInvertRect(benchmark::State& state) {
  hm::util::Bitmap bitmap(400, 400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.InvertRect(100, 100, 50, 50).ok());
  }
}
BENCHMARK(BM_BitmapInvertRect);

// ---------- SlottedPage ----------

void BM_SlottedInsertErase(benchmark::State& state) {
  hm::storage::Page page;
  hm::storage::SlottedPage::Init(&page);
  std::string record(100, 'r');
  for (auto _ : state) {
    auto slot = hm::storage::SlottedPage::Insert(&page, record);
    benchmark::DoNotOptimize(slot.ok());
    if (slot.ok()) {
      (void)hm::storage::SlottedPage::Erase(&page, *slot);
    } else {
      hm::storage::SlottedPage::Compact(&page);
    }
  }
}
BENCHMARK(BM_SlottedInsertErase);

// ---------- BufferPool ----------

void BM_BufferPoolHit(benchmark::State& state) {
  std::string dir = ScratchDir("pool");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/p.db");
  hm::storage::BufferPool pool(&fm, 64);
  auto guard = pool.New(hm::storage::PageType::kSlotted);
  hm::storage::PageId id = guard->id();
  guard->Release();
  for (auto _ : state) {
    auto fetched = pool.Fetch(id);
    benchmark::DoNotOptimize(fetched->page());
  }
}
BENCHMARK(BM_BufferPoolHit);

// What a buffer-pool miss pays below the pool: FileManager::ReadPage of
// a page the OS already caches — one pread plus the checksum verify.
void BM_PageReadVerify(benchmark::State& state) {
  std::string dir = ScratchDir("read");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/r.db");
  hm::storage::PageId id = *fm.AllocatePage();
  hm::storage::Page page;
  hm::util::Rng rng(1);
  for (uint32_t i = 0; i < hm::storage::kPagePayloadSize; ++i) {
    page.payload()[i] = static_cast<char>(rng.Next64());
  }
  (void)fm.WritePage(id, &page);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fm.ReadPage(id, &page).ok());
  }
}
BENCHMARK(BM_PageReadVerify);

// ---------- BPlusTree ----------

void BM_BPlusTreeInsert(benchmark::State& state) {
  std::string dir = ScratchDir("bpt_insert");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/i.db");
  hm::storage::BufferPool pool(&fm, 4096);
  BPlusTree tree = *BPlusTree::Create(&pool);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(Key128{key++, 0}, key).ok());
  }
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeGet(benchmark::State& state) {
  std::string dir = ScratchDir("bpt_get");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/g.db");
  hm::storage::BufferPool pool(&fm, 4096);
  BPlusTree tree = *BPlusTree::Create(&pool);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    (void)tree.Insert(Key128{i, 0}, i);
  }
  hm::util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Get(Key128{rng.NextBounded(n), 0}).ok());
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_BPlusTreeScan100(benchmark::State& state) {
  std::string dir = ScratchDir("bpt_scan");
  hm::storage::FileManager fm;
  (void)fm.Open(dir + "/s.db");
  hm::storage::BufferPool pool(&fm, 4096);
  BPlusTree tree = *BPlusTree::Create(&pool);
  for (uint64_t i = 0; i < 100000; ++i) {
    (void)tree.Insert(Key128{i, 0}, i);
  }
  hm::util::Rng rng(1);
  for (auto _ : state) {
    uint64_t start = rng.NextBounded(99900);
    uint64_t sum = 0;
    (void)tree.ScanRange(Key128{start, 0}, Key128{start + 99, ~0ULL},
                         [&](Key128, uint64_t value) {
                           sum += value;
                           return true;
                         });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BPlusTreeScan100);

// ---------- ObjectStore ----------

void BM_ObjectCreate(benchmark::State& state) {
  std::string dir = ScratchDir("obj_create");
  auto store = std::move(*hm::objstore::ObjectStore::Open({}, dir));
  auto txn = *store->Begin();
  std::string data(static_cast<size_t>(state.range(0)), 'o');
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Create(&txn, data).ok());
  }
  (void)store->Commit(&txn);
  (void)store->Close();
}
BENCHMARK(BM_ObjectCreate)->Arg(80)->Arg(380);

void BM_ObjectRead(benchmark::State& state) {
  std::string dir = ScratchDir("obj_read");
  auto store = std::move(*hm::objstore::ObjectStore::Open({}, dir));
  auto txn = *store->Begin();
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; ++i) {
    (void)store->Create(&txn, std::string(100, 'r'));
  }
  (void)store->Commit(&txn);
  hm::util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Read(1 + rng.NextBounded(n)).ok());
  }
  (void)store->Close();
}
BENCHMARK(BM_ObjectRead);

void BM_ObjectUpdateCommit(benchmark::State& state) {
  std::string dir = ScratchDir("obj_commit");
  auto store = std::move(*hm::objstore::ObjectStore::Open({}, dir));
  auto setup = *store->Begin();
  auto oid = *store->Create(&setup, std::string(100, 'u'));
  (void)store->Commit(&setup);
  // One update + durable commit per iteration: the paper's per-op
  // commit cost.
  for (auto _ : state) {
    auto txn = *store->Begin();
    (void)store->Update(&txn, oid, std::string(100, 'v'));
    benchmark::DoNotOptimize(store->Commit(&txn).ok());
  }
  (void)store->Close();
}
BENCHMARK(BM_ObjectUpdateCommit);

// ---------- WAL ----------

void BM_WalAppend(benchmark::State& state) {
  std::string dir = ScratchDir("wal");
  hm::storage::SegmentedWal wal;
  (void)wal.Open(dir + "/w.log");
  std::string payload(static_cast<size_t>(state.range(0)), 'w');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wal.Append(hm::storage::WalRecordType::kUpdate, 1, payload).ok());
  }
  (void)wal.Sync();
  (void)wal.Close();
}
BENCHMARK(BM_WalAppend)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
