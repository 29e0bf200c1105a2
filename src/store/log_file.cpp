#include "store/log_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/io.hpp"

namespace tc::store {

namespace {
/// A Get reads two extents with one pread when at most this many bytes of
/// other records lie between them, about where copying the gap out of the
/// page cache costs as much as one more pread. The gaps between an index
/// node's entries, appended one per chunk, are the records every stream
/// of the shard wrote meanwhile: with one stream ingesting they are the
/// chunk records alone and a node is one read; with a dozen or more
/// streams interleaving, a node costs up to one read per entry.
constexpr uint64_t kMaxReadGap = 4096;
}  // namespace

Result<std::shared_ptr<LogFile>> LogFile::Open(const std::string& path,
                                               bool staged) {
  std::FILE* append = std::fopen(path.c_str(), staged ? "wb" : "ab");
  if (append == nullptr) return Unavailable("cannot open log file: " + path);
  auto file = std::shared_ptr<LogFile>(new LogFile(path, staged));
  file->append_.reset(append, [](std::FILE* f) { std::fclose(f); });
  file->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file->fd_ < 0) return Unavailable("cannot read log file: " + path);
  return file;
}

void LogFile::Remove(const std::string& path) { std::remove(path.c_str()); }

LogFile::~LogFile() {
  if (fd_ >= 0) ::close(fd_);
  if (staged_) Remove(path_);
}

Result<RecordHead> LogFile::Append(uint8_t type, std::string_view key,
                                   BytesView value) {
  BinaryWriter w(1 + 2 * kMaxVarintBytes + key.size() + value.size());
  w.PutU8(type);
  w.PutString(key);
  if (type != kRecordTombstone) w.PutVar(value.size());
  RecordHead head{type, key, w.size(), value.size()};
  w.PutRaw(value);
  TC_RETURN_IF_ERROR(Write(w.data()));
  return head;
}

Status LogFile::Write(BytesView records) {
  if (append_ == nullptr) {
    return Unavailable("log append handle closed after a failed write: " +
                       path_);
  }
  if (std::fwrite(records.data(), 1, records.size(), append_.get()) !=
      records.size()) {
    DropAppendHandle();
    return Unavailable("log append failed: " + path_);
  }
  end_ += records.size();
  return Status::Ok();
}

void LogFile::DropAppendHandle() {
  // Earlier records still in the write buffer may have failed with the
  // write, and stdio drops a buffer whose write failed, so a flush's
  // result alone does not show they reached the file. The file's size
  // does: it holds them all only if it reaches end_. If it does not, Sync
  // and any Get of their keys fail from here on.
  bool flushed = std::fflush(append_.get()) == 0;
  append_.reset();
  auto size = Size();
  if (flushed && size.ok() && *size >= end_) flushed_end_ = end_;
}

Status LogFile::FlushThrough(uint64_t end) {
  if (end <= flushed_end_) return Status::Ok();
  TC_ASSIGN_OR_RETURN(PendingFlush flush, StartFlush());
  flush.Run();
  return FinishFlush(flush);
}

Result<LogFile::PendingFlush> LogFile::StartFlush() const {
  if (end_ <= flushed_end_) return PendingFlush{};
  if (append_ == nullptr) {
    return Unavailable("log records lost with a failed write: " + path_);
  }
  return PendingFlush{append_, end_};
}

Status LogFile::FinishFlush(const PendingFlush& flush) {
  // stdio orders the flush with the writes made meanwhile, so the records
  // up to the flush's end are in the file if it succeeded.
  if (append_ == flush.handle && flush.ok) {
    flushed_end_ = std::max(flushed_end_, flush.end);
  } else if (append_ == flush.handle) {
    DropAppendHandle();
  }
  return flush.ok ? Status::Ok() : Unavailable("fflush failed: " + path_);
}

Status LogFile::RenameTo(const std::string& path) {
  TC_RETURN_IF_ERROR(Sync());
  if (std::rename(path_.c_str(), path.c_str()) != 0) {
    return Unavailable("cannot rename " + path_ + " over " + path);
  }
  path_ = path;
  staged_ = false;
  return Status::Ok();
}

Status LogFile::ReadValue(std::span<const Extent> extents, Bytes& out) const {
  uint8_t* dst = out.data();
  for (size_t i = 0; i < extents.size();) {
    // One read covers a run of extents that each start at most kMaxReadGap
    // bytes after the previous one ends.
    uint64_t start = extents[i].offset;
    uint64_t end = start + extents[i].length;
    size_t j = i + 1;
    while (j < extents.size() && extents[j].offset >= end &&
           extents[j].offset - end <= kMaxReadGap) {
      end = extents[j].offset + extents[j].length;
      ++j;
    }
    if (j == i + 1) {
      TC_RETURN_IF_ERROR(Read(dst, extents[i].length, start));
      dst += extents[i].length;
    } else {
      // Into a buffer, the records between the extents too: a preadv that
      // scattered the extents and dropped the rest costs the kernel more
      // per piece than copying the run out again does.
      auto run = std::make_unique_for_overwrite<uint8_t[]>(end - start);
      TC_RETURN_IF_ERROR(Read(run.get(), end - start, start));
      for (; i < j; ++i) {
        std::memcpy(dst, run.get() + (extents[i].offset - start),
                    extents[i].length);
        dst += extents[i].length;
      }
    }
    i = j;
  }
  return Status::Ok();
}

Result<Bytes> LogFile::ReadRecords(uint64_t offset, uint64_t end,
                                   size_t max_bytes) const {
  // One read of up to max_bytes; the whole records at its front ship.
  Bytes out(std::min<uint64_t>(end - offset, max_bytes));
  TC_RETURN_IF_ERROR(Read(out.data(), out.size(), offset));
  TC_ASSIGN_OR_RETURN(
      uint64_t whole,
      ForEachRecord(InMemory(out), out.size(),
                    [](const RecordHead&, uint64_t) { return Status::Ok(); }));
  if (whole == 0 && !out.empty()) {
    // The first record alone is larger than max_bytes: it ships whole.
    TC_ASSIGN_OR_RETURN(auto head, ParseRecord(Window(end), offset, end));
    if (!head) {
      return DataLoss("log " + path_ + ": no record at offset " +
                      std::to_string(offset));
    }
    whole = head->size();
    out.resize(whole);
    TC_RETURN_IF_ERROR(Read(out.data(), out.size(), offset));
  }
  out.resize(whole);
  return out;
}

Status LogFile::Read(uint8_t* dst, size_t n, uint64_t offset) const {
  while (n > 0) {
    ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return DataLoss("short read at log offset " + std::to_string(offset));
    }
    dst += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::Ok();
}

Result<uint64_t> LogFile::Size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return Unavailable("cannot stat log file");
  return static_cast<uint64_t>(st.st_size);
}

Status LogFile::Truncate(uint64_t size) {
  // By path: the append handle writes only through stdio.
  if (::truncate(path_.c_str(), static_cast<off_t>(size)) != 0) {
    return Unavailable("cannot truncate torn log tail: " + path_);
  }
  return Status::Ok();
}

}  // namespace tc::store
