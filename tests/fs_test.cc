// Tests for the §4.1 minimal filesystem: whole-file read/write through
// out-of-line memory, copy-on-write isolation of returned file data, the
// external-pager cache behaviour, and the mapped-file extension (§8.1).

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/managers/mfs/traditional_io.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

class FsTest : public ::testing::Test {
 protected:
  FsTest() {
    Kernel::Config config;
    config.frames = 256;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    fs_disk_ = std::make_unique<SimDisk>(2048, kPage, &kernel_->clock(),
                                         DiskLatencyModel{0, 0});
    server_ = std::make_unique<FsServer>(kernel_.get(), fs_disk_.get());
    server_->StartServer();
    client_task_ = kernel_->CreateTask(nullptr, "client");
    client_ = std::make_unique<FsClient>(client_task_.get(), server_->service_port());
  }
  ~FsTest() override {
    client_task_.reset();
    server_.reset();
  }

  // Writes a file through the API from a fresh buffer.
  void PutFile(const std::string& name, const std::vector<uint8_t>& content) {
    ASSERT_EQ(client_->Create(name), KernReturn::kSuccess);
    VmSize span = RoundPage(std::max<VmSize>(content.size(), 1), kPage);
    VmOffset buf = client_task_->VmAllocate(span).value();
    if (!content.empty()) {
      ASSERT_EQ(client_task_->Write(buf, content.data(), content.size()), KernReturn::kSuccess);
    }
    ASSERT_EQ(client_->WriteFile(name, buf, content.size()), KernReturn::kSuccess);
    client_task_->VmDeallocate(buf, span);
  }

  std::vector<uint8_t> Fetch(const std::string& name) {
    Result<FsClient::ReadResult> r = client_->ReadFile(name);
    EXPECT_TRUE(r.ok()) << KernReturnName(r.status());
    if (!r.ok()) {
      return {};
    }
    std::vector<uint8_t> out(r.value().size);
    EXPECT_EQ(client_task_->Read(r.value().address, out.data(), out.size()),
              KernReturn::kSuccess);
    client_task_->VmDeallocate(r.value().address, RoundPage(std::max<VmSize>(r.value().size, 1),
                                                            kPage));
    return out;
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<SimDisk> fs_disk_;
  std::unique_ptr<FsServer> server_;
  std::shared_ptr<Task> client_task_;
  std::unique_ptr<FsClient> client_;
};

TEST_F(FsTest, CopyFileThroughReadAndWrite) {
  // fs_read_file's memory, written back with fs_write_file untouched: the
  // server reads pages its own file backs, so it must not hold its file
  // lock across that read, or its page-ins wait out pager_timeout (§6.1).
  std::vector<uint8_t> content(2 * kPage);
  std::iota(content.begin(), content.end(), uint8_t{7});
  PutFile("src", content);
  Result<FsClient::ReadResult> src = client_->ReadFile("src");
  ASSERT_TRUE(src.ok());
  ASSERT_EQ(client_->Create("dst"), KernReturn::kSuccess);
  ASSERT_EQ(client_->WriteFile("dst", src.value().address, src.value().size),
            KernReturn::kSuccess);
  EXPECT_EQ(Fetch("dst"), content);
}

TEST_F(FsTest, WriteFileSizePastItsDataIsRejected) {
  // A forged fs_write_file whose size runs past its one out-of-line page:
  // the server must neither read past that page nor size a buffer from an
  // unchecked client value (RoundPage(UINT64_MAX) wraps to 0).
  std::vector<uint8_t> content(kPage, uint8_t{0x5a});
  PutFile("dst", content);
  VmOffset buf = client_task_->VmAllocate(kPage).value();
  for (uint64_t size : {uint64_t{UINT64_MAX}, uint64_t{2 * kPage}}) {
    Result<std::shared_ptr<VmMapCopy>> copy =
        kernel_->vm().CopyIn(client_task_->vm_context(), buf, kPage);
    ASSERT_TRUE(copy.ok());
    Message request(kMsgFsWriteFile);
    request.PushString("dst");
    request.PushU64(size);
    request.PushOol(copy.value(), copy.value()->size());
    Result<Message> reply = MsgRpc(server_->service_port(), std::move(request), kWaitForever,
                                   std::chrono::seconds(10));
    ASSERT_TRUE(reply.ok()) << KernReturnName(reply.status());
    EXPECT_EQ(static_cast<KernReturn>(reply.value().TakeU32().value()),
              KernReturn::kInvalidArgument)
        << size;
  }
  client_task_->VmDeallocate(buf, kPage);
  // The server still answers, and the file is as it was.
  EXPECT_EQ(client_->Stat("dst").value(), kPage);
  EXPECT_EQ(Fetch("dst"), content);
}

TEST_F(FsTest, CreateStatDelete) {
  EXPECT_EQ(client_->Create("a"), KernReturn::kSuccess);
  EXPECT_EQ(client_->Create("a"), KernReturn::kAlreadyExists);
  EXPECT_EQ(client_->Stat("a").value(), 0u);
  EXPECT_EQ(client_->Stat("missing").status(), KernReturn::kNotFound);
  EXPECT_EQ(client_->Delete("a"), KernReturn::kSuccess);
  EXPECT_EQ(client_->Delete("a"), KernReturn::kNotFound);
}

TEST_F(FsTest, WriteThenReadRoundTrip) {
  std::vector<uint8_t> content(3 * kPage + 123);
  std::iota(content.begin(), content.end(), 0);
  PutFile("data", content);
  EXPECT_EQ(client_->Stat("data").value(), content.size());
  EXPECT_EQ(Fetch("data"), content);
}

TEST_F(FsTest, ReadMissingFileFails) {
  EXPECT_EQ(client_->ReadFile("nope").status(), KernReturn::kNotFound);
}

TEST_F(FsTest, ReadReturnsCopyOnWriteMemory) {
  // "other applications will consistently see the original file contents
  // while the random changes are being made" (§4.1).
  std::vector<uint8_t> content(kPage, 0x42);
  PutFile("cow", content);
  Result<FsClient::ReadResult> r1 = client_->ReadFile("cow");
  ASSERT_TRUE(r1.ok());
  // Mutate the first copy in place.
  uint8_t junk = 0xFF;
  ASSERT_EQ(client_task_->Write(r1.value().address, &junk, 1), KernReturn::kSuccess);
  // A second read still sees the original bytes.
  std::vector<uint8_t> again = Fetch("cow");
  ASSERT_EQ(again.size(), content.size());
  EXPECT_EQ(again[0], 0x42);
}

TEST_F(FsTest, WriteBackHalfTheFile) {
  // The §4.1 example writes back only file_size/2 bytes.
  std::vector<uint8_t> content(2 * kPage, 0x11);
  PutFile("half", content);
  Result<FsClient::ReadResult> r = client_->ReadFile("half");
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> patch(kPage, 0x99);
  ASSERT_EQ(client_task_->Write(r.value().address, patch.data(), patch.size()),
            KernReturn::kSuccess);
  ASSERT_EQ(client_->WriteFile("half", r.value().address, kPage), KernReturn::kSuccess);
  std::vector<uint8_t> after = Fetch("half");
  ASSERT_EQ(after.size(), 2 * kPage);
  EXPECT_EQ(after[0], 0x99);
  EXPECT_EQ(after[kPage], 0x11);  // Second half untouched.
}

TEST_F(FsTest, RereadIsServedFromCache) {
  // §9: repeated references to the same data need no disk transfers.
  std::vector<uint8_t> content(4 * kPage, 0x33);
  PutFile("hot", content);
  Fetch("hot");  // Prime the cache.
  uint64_t disk_ops_before = fs_disk_->total_ops();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Fetch("hot").size(), content.size());
  }
  EXPECT_EQ(fs_disk_->total_ops(), disk_ops_before);  // Pure cache hits.
}

TEST_F(FsTest, WriteInvalidatesCachedData) {
  std::vector<uint8_t> v1(kPage, 0x01);
  PutFile("inval", v1);
  EXPECT_EQ(Fetch("inval")[0], 0x01);
  std::vector<uint8_t> v2(kPage, 0x02);
  VmOffset buf = client_task_->VmAllocate(kPage).value();
  ASSERT_EQ(client_task_->Write(buf, v2.data(), v2.size()), KernReturn::kSuccess);
  ASSERT_EQ(client_->WriteFile("inval", buf, v2.size()), KernReturn::kSuccess);
  // The server's pager_flush_request ran in its own thread, inside the local
  // kernel, before it replied: the very first re-read sees the new contents.
  std::vector<uint8_t> seen = Fetch("inval");
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0], 0x02);
}

TEST_F(FsTest, ManyFilesSurviveCachePressure) {
  // More file data than physical memory: the kernel cache evicts (dirty
  // pages return via pager_data_write) and re-fetches from the server.
  constexpr int kFiles = 8;
  constexpr VmSize kFilePages = 48;
  for (int f = 0; f < kFiles; ++f) {
    std::vector<uint8_t> content(kFilePages * kPage, static_cast<uint8_t>(0x10 + f));
    PutFile("bulk" + std::to_string(f), content);
  }
  for (int f = 0; f < kFiles; ++f) {
    std::vector<uint8_t> out = Fetch("bulk" + std::to_string(f));
    ASSERT_EQ(out.size(), kFilePages * kPage);
    EXPECT_EQ(out[0], 0x10 + f);
    EXPECT_EQ(out[out.size() - 1], 0x10 + f);
  }
}

TEST_F(FsTest, EmptyFileReads) {
  PutFile("empty", {});
  EXPECT_EQ(client_->Stat("empty").value(), 0u);
  EXPECT_TRUE(Fetch("empty").empty());
}

// --- mapped files (§8.1) -----------------------------------------------------

TEST_F(FsTest, MappedFileReadSeesFileContents) {
  std::vector<uint8_t> content(2 * kPage);
  std::iota(content.begin(), content.end(), 1);
  PutFile("mf", content);
  Result<MappedFile> open = MappedFile::Open(client_task_.get(), server_->service_port(), "mf");
  ASSERT_TRUE(open.ok());
  MappedFile file = std::move(open).value();
  EXPECT_EQ(file.size(), content.size());
  std::vector<uint8_t> out(content.size());
  Result<VmSize> n = file.Read(out.data(), out.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), content.size());
  EXPECT_EQ(out, content);
  EXPECT_EQ(file.Close(), KernReturn::kSuccess);
}

TEST_F(FsTest, MappedFileCursorSemantics) {
  std::vector<uint8_t> content(100);
  std::iota(content.begin(), content.end(), 0);
  PutFile("cursor", content);
  MappedFile file =
      MappedFile::Open(client_task_.get(), server_->service_port(), "cursor").value();
  uint8_t b = 0;
  ASSERT_EQ(file.Read(&b, 1).value(), 1u);
  EXPECT_EQ(b, 0);
  ASSERT_EQ(file.Read(&b, 1).value(), 1u);
  EXPECT_EQ(b, 1);
  file.Seek(50);
  ASSERT_EQ(file.Read(&b, 1).value(), 1u);
  EXPECT_EQ(b, 50);
  // Read past EOF truncates.
  file.Seek(90);
  std::vector<uint8_t> tail(100);
  EXPECT_EQ(file.Read(tail.data(), tail.size()).value(), 10u);
  file.Close();
}

TEST_F(FsTest, MappedFileWritePersists) {
  std::vector<uint8_t> content(kPage, 0x00);
  PutFile("mw", content);
  {
    MappedFile file =
        MappedFile::Open(client_task_.get(), server_->service_port(), "mw").value();
    std::vector<uint8_t> data(64, 0xAB);
    ASSERT_EQ(file.WriteAt(100, data.data(), data.size()), KernReturn::kSuccess);
    ASSERT_EQ(file.Close(), KernReturn::kSuccess);
  }
  std::vector<uint8_t> out = Fetch("mw");
  ASSERT_EQ(out.size(), kPage);
  EXPECT_EQ(out[100], 0xAB);
  EXPECT_EQ(out[99], 0x00);
}

TEST_F(FsTest, MappedFileGrowsWithCapacity) {
  PutFile("grow", std::vector<uint8_t>(10, 0x01));
  {
    MappedFile file = MappedFile::Open(client_task_.get(), server_->service_port(), "grow",
                                       /*capacity=*/4 * kPage)
                          .value();
    std::vector<uint8_t> data(kPage, 0x77);
    ASSERT_EQ(file.WriteAt(2 * kPage, data.data(), data.size()), KernReturn::kSuccess);
    EXPECT_EQ(file.size(), 3 * kPage);
    file.Close();
  }
  EXPECT_EQ(client_->Stat("grow").value(), 3 * kPage);
  std::vector<uint8_t> out = Fetch("grow");
  EXPECT_EQ(out[2 * kPage], 0x77);
  EXPECT_EQ(out[0], 0x01);
}

TEST_F(FsTest, TwoMappedReadersShareTheCache) {
  std::vector<uint8_t> content(8 * kPage, 0x5C);
  PutFile("shared", content);
  // First reader faults the pages in.
  MappedFile a = MappedFile::Open(client_task_.get(), server_->service_port(), "shared").value();
  std::vector<uint8_t> buf(content.size());
  ASSERT_TRUE(a.Read(buf.data(), buf.size()).ok());
  uint64_t disk_before = fs_disk_->total_ops();
  // Second reader (another task): no disk traffic, same physical cache.
  std::shared_ptr<Task> other = kernel_->CreateTask();
  MappedFile b = MappedFile::Open(other.get(), server_->service_port(), "shared").value();
  std::vector<uint8_t> buf2(content.size());
  ASSERT_TRUE(b.Read(buf2.data(), buf2.size()).ok());
  EXPECT_EQ(buf2, content);
  EXPECT_EQ(fs_disk_->total_ops(), disk_before);
  a.Close();
  b.Close();
}

// --- traditional baseline ------------------------------------------------------

TEST(TraditionalIoTest, RoundTrip) {
  SimClock clock;
  SimDisk disk(512, kPage, &clock, DiskLatencyModel{0, 0});
  TraditionalFileSystem fs(&disk, 16);
  ASSERT_EQ(fs.Create("f"), KernReturn::kSuccess);
  std::vector<uint8_t> data(kPage + 77, 0x3C);
  ASSERT_EQ(fs.Write("f", 0, data.data(), data.size()), KernReturn::kSuccess);
  std::vector<uint8_t> out(data.size());
  ASSERT_EQ(fs.Read("f", 0, out.data(), out.size()).value(), data.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs.Stat("f").value(), data.size());
}

TEST(TraditionalIoTest, CacheHitsAndMisses) {
  SimClock clock;
  SimDisk disk(512, kPage, &clock, DiskLatencyModel{0, 0});
  TraditionalFileSystem fs(&disk, 4);
  fs.Create("f");
  std::vector<uint8_t> data(8 * kPage, 1);
  fs.Write("f", 0, data.data(), data.size());
  // Working set (8 blocks) exceeds the cache (4): re-reads miss.
  std::vector<uint8_t> out(8 * kPage);
  fs.Read("f", 0, out.data(), out.size());
  uint64_t misses_first = fs.cache_misses();
  fs.Read("f", 0, out.data(), out.size());
  EXPECT_GT(fs.cache_misses(), misses_first);  // Thrashing, as expected.
}

TEST(TraditionalIoTest, SmallWorkingSetStaysCached) {
  SimClock clock;
  SimDisk disk(512, kPage, &clock, DiskLatencyModel{0, 0});
  TraditionalFileSystem fs(&disk, 16);
  fs.Create("f");
  std::vector<uint8_t> data(4 * kPage, 1);
  fs.Write("f", 0, data.data(), data.size());
  std::vector<uint8_t> out(4 * kPage);
  fs.Read("f", 0, out.data(), out.size());
  uint64_t ops_before = disk.total_ops();
  for (int i = 0; i < 10; ++i) {
    fs.Read("f", 0, out.data(), out.size());
  }
  EXPECT_EQ(disk.total_ops(), ops_before);
}

TEST(TraditionalIoTest, HolesReadAsZero) {
  SimClock clock;
  SimDisk disk(512, kPage, &clock, DiskLatencyModel{0, 0});
  TraditionalFileSystem fs(&disk, 8);
  fs.Create("f");
  uint8_t one = 1;
  fs.Write("f", 3 * kPage, &one, 1);
  uint8_t out = 0xFF;
  ASSERT_EQ(fs.Read("f", kPage, &out, 1).value(), 1u);
  EXPECT_EQ(out, 0);
}

}  // namespace
}  // namespace mach
