// Counting and timing FileSystem for the persist layer's I/O.
//
// Implements the public util/fs.h interface over a base filesystem
// (FileSystem::Default() in the benchmark) and is handed to the persist
// layer through CheckpointOptions::fs, RecoverOptions::fs and
// GcOptions::fs. Every call is forwarded unchanged; the wrapper only
// counts bytes and operations and times appends, fsyncs and reads, which
// gives the persist.* per-layer metrics. It also sums the calling
// thread's CPU time inside every call: on a virtual machine that time
// follows the shared disk's load, so the checkpoint latency metric leaves
// it out. In the traced run each call is also a "fs.*" span nested under
// the persist call that issued it.
//
// Not thread-safe: the benchmark drives persistence from one thread.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "span_recorder.h"
#include "util/fs.h"

namespace perfbench {

struct FsCounts {
  int64_t bytes_written = 0;
  int64_t fsyncs = 0;  // file syncs plus directory syncs
  int64_t append_ns = 0;
  int64_t fsync_ns = 0;
  int64_t read_ns = 0;
  int64_t cpu_ns = 0;  // the calling thread's CPU time inside any call

  FsCounts operator-(const FsCounts& o) const {
    return {bytes_written - o.bytes_written, fsyncs - o.fsyncs,
            append_ns - o.append_ns, fsync_ns - o.fsync_ns,
            read_ns - o.read_ns,     cpu_ns - o.cpu_ns};
  }
  FsCounts& operator+=(const FsCounts& o) {
    bytes_written += o.bytes_written;
    fsyncs += o.fsyncs;
    append_ns += o.append_ns;
    fsync_ns += o.fsync_ns;
    read_ns += o.read_ns;
    cpu_ns += o.cpu_ns;
    return *this;
  }
};

class CountingFs : public pie::FileSystem {
  /// Adds the calling thread's CPU time over its scope to counts_.cpu_ns.
  class CpuScope {
   public:
    explicit CpuScope(FsCounts* counts)
        : counts_(counts), start_(ThreadCpuNs()) {}
    ~CpuScope() { counts_->cpu_ns += ThreadCpuNs() - start_; }
    CpuScope(const CpuScope&) = delete;
    CpuScope& operator=(const CpuScope&) = delete;

   private:
    FsCounts* counts_;
    int64_t start_;
  };

 public:
  explicit CountingFs(pie::FileSystem& base) : base_(base) {}

  /// When false, Sync and SyncDir are counted but not passed on: files
  /// stay in the page cache, as on a filesystem mounted without write
  /// barriers.
  void set_forward_syncs(bool forward) { forward_syncs_ = forward; }
  /// Spans for the traced run (null when untraced).
  void set_spans(ThreadSpans* spans) { spans_ = spans; }
  const FsCounts& counts() const { return counts_; }

  pie::Result<std::string> ReadFile(const std::string& path) override {
    ScopedSpan span(spans_, "fs.read");
    CpuScope cpu(&counts_);
    const int64_t start = NowNs();
    auto data = base_.ReadFile(path);
    counts_.read_ns += NowNs() - start;
    if (data.ok()) span.set_items(static_cast<int64_t>(data->size()));
    return data;
  }

  pie::Result<std::unique_ptr<pie::WritableFile>> NewWritableFile(
      const std::string& path) override {
    ScopedSpan span(spans_, "fs.create");
    CpuScope cpu(&counts_);
    auto file = base_.NewWritableFile(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<pie::WritableFile>(
        new File(this, std::move(file.value())));
  }

  pie::Status Rename(const std::string& from, const std::string& to) override {
    ScopedSpan span(spans_, "fs.rename");
    CpuScope cpu(&counts_);
    return base_.Rename(from, to);
  }

  pie::Status RemoveFile(const std::string& path) override {
    ScopedSpan span(spans_, "fs.remove");
    CpuScope cpu(&counts_);
    return base_.RemoveFile(path);
  }

  pie::Status SyncDir(const std::string& dir) override {
    ScopedSpan span(spans_, "fs.sync_dir");
    CpuScope cpu(&counts_);
    const int64_t start = NowNs();
    pie::Status status =
        forward_syncs_ ? base_.SyncDir(dir) : pie::Status::OK();
    counts_.fsync_ns += NowNs() - start;
    ++counts_.fsyncs;
    return status;
  }

  pie::Status CreateDirs(const std::string& dir) override {
    ScopedSpan span(spans_, "fs.mkdir");
    CpuScope cpu(&counts_);
    return base_.CreateDirs(dir);
  }

  pie::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    ScopedSpan span(spans_, "fs.list");
    CpuScope cpu(&counts_);
    return base_.ListDir(dir);
  }

 private:
  class File : public pie::WritableFile {
   public:
    File(CountingFs* fs, std::unique_ptr<pie::WritableFile> base)
        : fs_(fs), base_(std::move(base)) {}

    pie::Result<size_t> AppendSome(const char* data, size_t n) override {
      ScopedSpan span(fs_->spans_, "fs.append");
      CpuScope cpu(&fs_->counts_);
      const int64_t start = NowNs();
      auto written = base_->AppendSome(data, n);
      fs_->counts_.append_ns += NowNs() - start;
      if (written.ok()) {
        fs_->counts_.bytes_written += static_cast<int64_t>(*written);
        span.set_items(static_cast<int64_t>(*written));
      }
      return written;
    }

    pie::Status Sync() override {
      ScopedSpan span(fs_->spans_, "fs.sync");
      CpuScope cpu(&fs_->counts_);
      const int64_t start = NowNs();
      pie::Status status =
          fs_->forward_syncs_ ? base_->Sync() : pie::Status::OK();
      fs_->counts_.fsync_ns += NowNs() - start;
      ++fs_->counts_.fsyncs;
      return status;
    }

    pie::Status Close() override {
      ScopedSpan span(fs_->spans_, "fs.close");
      CpuScope cpu(&fs_->counts_);
      return base_->Close();
    }

   private:
    CountingFs* fs_;
    std::unique_ptr<pie::WritableFile> base_;
  };

  pie::FileSystem& base_;
  ThreadSpans* spans_ = nullptr;
  bool forward_syncs_ = true;
  FsCounts counts_;
};

}  // namespace perfbench
