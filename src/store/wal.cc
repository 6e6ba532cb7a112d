#include "store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/clock.h"

#include "store/bytes.h"
#include "store/checksum.h"

namespace taco {
namespace {

constexpr std::string_view kWalMagic = "TWAL";
constexpr uint32_t kWalVersion = 1;

Status WalCorrupt(const std::string& path, std::string_view detail) {
  return Status::DataLoss("wal '" + path + "': " + std::string(detail));
}

/// Bounds each header string (snapshot path, unused backend slot): far above
/// any real value, small enough that PeekHeader can read a fixed-size
/// prefix instead of the whole log.
constexpr uint32_t kMaxHeaderString = 64u << 10;

std::string EncodeHeader(const WalHeader& header) {
  std::string out;
  ByteWriter w(&out);
  w.Raw(kWalMagic);
  w.U32(kWalVersion);
  w.Str(header.snapshot_path);
  w.Str("");  // The graph-backend slot: unused, always empty.
  w.U32(Crc32(out));
  return out;
}

/// Parses the header at the front of `data`. Returns the header length,
/// or an error; a file too short to hold its own header is corruption
/// (headers are written atomically, never appended piecemeal).
Result<size_t> DecodeHeader(const std::string& path, std::string_view data,
                            WalHeader* header) {
  ByteReader r(data);
  if (data.size() < kWalMagic.size() ||
      data.substr(0, kWalMagic.size()) != kWalMagic) {
    return Status::ParseError("'" + path + "' is not a write-ahead log");
  }
  uint8_t skip;
  for (size_t i = 0; i < kWalMagic.size(); ++i) r.U8(&skip);
  uint32_t version, crc;
  std::string_view snap, unused_backend;
  if (!r.U32(&version) || !r.Str(&snap, kMaxHeaderString) ||
      !r.Str(&unused_backend, kMaxHeaderString) || !r.U32(&crc)) {
    return WalCorrupt(path, "truncated header");
  }
  size_t header_len = r.position();
  if (Crc32(data.substr(0, header_len - 4)) != crc) {
    return WalCorrupt(path, "header CRC mismatch");
  }
  if (version != kWalVersion) {
    return Status::Unsupported("wal '" + path + "' version " +
                               std::to_string(version));
  }
  header->snapshot_path = std::string(snap);
  return header_len;
}

void EncodeEdit(const Edit& edit, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(edit.kind));
  switch (edit.kind) {
    case Edit::Kind::kSetNumber:
      w->I32(edit.cell.col);
      w->I32(edit.cell.row);
      w->F64(edit.number);
      return;
    case Edit::Kind::kSetText:
    case Edit::Kind::kSetFormula:
      w->I32(edit.cell.col);
      w->I32(edit.cell.row);
      w->Str(edit.text);
      return;
    case Edit::Kind::kClearRange:
      w->I32(edit.range.head.col);
      w->I32(edit.range.head.row);
      w->I32(edit.range.tail.col);
      w->I32(edit.range.tail.row);
      return;
  }
}

bool DecodeEdit(ByteReader* r, Edit* edit) {
  uint8_t kind;
  if (!r->U8(&kind) || kind > static_cast<uint8_t>(Edit::Kind::kClearRange)) {
    return false;
  }
  edit->kind = static_cast<Edit::Kind>(kind);
  switch (edit->kind) {
    case Edit::Kind::kSetNumber:
      return r->I32(&edit->cell.col) && r->I32(&edit->cell.row) &&
             r->F64(&edit->number);
    case Edit::Kind::kSetText:
    case Edit::Kind::kSetFormula: {
      std::string_view text;
      if (!r->I32(&edit->cell.col) || !r->I32(&edit->cell.row) ||
          !r->Str(&text)) {
        return false;
      }
      edit->text = std::string(text);
      return true;
    }
    case Edit::Kind::kClearRange:
      return r->I32(&edit->range.head.col) && r->I32(&edit->range.head.row) &&
             r->I32(&edit->range.tail.col) && r->I32(&edit->range.tail.row);
  }
  return false;
}

/// Scans `data` (header already skipped) record by record. Returns the
/// number of bytes of intact records (relative to `data`), reporting each
/// decoded batch through `replay`. Distinguishes a torn tail (truncate)
/// from interior corruption (DataLoss) by whether the failure consumes
/// exactly the rest of the file.
Result<size_t> ScanRecords(const std::string& path, std::string_view data,
                           const WalOptions& options,
                           const WriteAheadLog::ReplayFn& replay,
                           WalRecovery* recovery) {
  size_t pos = 0;
  while (pos < data.size()) {
    size_t remaining = data.size() - pos;
    if (remaining < 8) {
      recovery->torn_tail = true;  // Partial record header.
      break;
    }
    ByteReader frame(data.substr(pos, 8));
    uint32_t len, crc;
    frame.U32(&len);
    frame.U32(&crc);
    // Torn-tail test FIRST: a record extending past EOF is by
    // definition the tail, even when its length field is implausible —
    // classifying it as corruption would make a recoverable crash
    // permanently unrecoverable.
    if (len > remaining - 8) {
      recovery->torn_tail = true;  // Payload cut off by the crash.
      break;
    }
    if (len > options.max_record_bytes) {
      return WalCorrupt(path, "record length " + std::to_string(len) +
                                  " exceeds the limit");
    }
    std::string_view payload = data.substr(pos + 8, len);
    if (Crc32(payload) != crc) {
      if (pos + 8 + len == data.size()) {
        // The final record: a torn in-place overwrite, not corruption.
        recovery->torn_tail = true;
        break;
      }
      return WalCorrupt(path,
                        "record " + std::to_string(recovery->records + 1) +
                            " CRC mismatch");
    }
    ByteReader body(payload);
    uint32_t edit_count;
    if (!body.U32(&edit_count) || edit_count > body.remaining()) {
      return WalCorrupt(path, "record " +
                                  std::to_string(recovery->records + 1) +
                                  " has a malformed edit count");
    }
    EditBatch batch;
    batch.reserve(edit_count);
    for (uint32_t i = 0; i < edit_count; ++i) {
      Edit edit;
      if (!DecodeEdit(&body, &edit)) {
        return WalCorrupt(path, "record " +
                                    std::to_string(recovery->records + 1) +
                                    " has a malformed edit");
      }
      batch.push_back(std::move(edit));
    }
    if (!body.AtEnd()) {
      return WalCorrupt(path, "record " +
                                  std::to_string(recovery->records + 1) +
                                  " has trailing bytes");
    }
    if (replay != nullptr) {
      TACO_RETURN_IF_ERROR(replay(batch));
    }
    ++recovery->records;
    recovery->edits += edit_count;
    pos += 8 + len;
  }
  return pos;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("stat '" + path + "': " + std::strerror(err));
  }
  std::string data;
  data.resize(static_cast<size_t>(st.st_size));
  size_t total = 0;
  while (total < data.size()) {
    ssize_t n = ::read(fd, data.data() + total, data.size() - total);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IoError("read '" + path + "': " + std::strerror(err));
    }
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(total);
  return data;
}

/// Writes a fresh header-only log at `path` via temp + rename and opens
/// it for appending. Returns the open fd and size.
Result<std::pair<int, uint64_t>> CreateFreshLog(const std::string& path,
                                                const WalHeader& meta) {
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::string header = EncodeHeader(meta);
  int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create '" + tmp +
                           "': " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < header.size()) {
    ssize_t n = ::write(fd, header.data() + written, header.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("write '" + tmp + "': " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync '" + tmp + "': " + std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("rename '" + tmp + "' to '" + path +
                           "': " + std::strerror(err));
  }
  // The rename is only durable once the directory itself is synced; a
  // failure here means a crash could resurface the OLD log (or none),
  // so it must fail the create like the file fsync above — not weaken
  // the crash guarantee silently. The rename already happened, so the
  // file is left in place for a retry rather than unlinked.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("open dir '" + dir + "': " + std::strerror(err));
  }
  if (::fsync(dir_fd) != 0) {
    int err = errno;
    ::close(dir_fd);
    ::close(fd);
    return Status::IoError("fsync dir '" + dir +
                           "': " + std::strerror(err));
  }
  ::close(dir_fd);
  return std::make_pair(fd, static_cast<uint64_t>(header.size()));
}

}  // namespace

Status ApplyEditToSheet(Sheet* sheet, const Edit& edit) {
  switch (edit.kind) {
    case Edit::Kind::kSetNumber:
      return sheet->SetNumber(edit.cell, edit.number);
    case Edit::Kind::kSetText:
      return sheet->SetText(edit.cell, edit.text);
    case Edit::Kind::kSetFormula:
      return sheet->SetFormula(edit.cell, edit.text);
    case Edit::Kind::kClearRange:
      return sheet->ClearRange(edit.range);
  }
  return Status::Internal("unknown edit kind");
}

WriteAheadLog::WriteAheadLog(std::string path, WalOptions options, int fd,
                             uint64_t bytes)
    : path_(std::move(path)), options_(options), fd_(fd), bytes_(bytes) {}

WriteAheadLog::~WriteAheadLog() {
  // Any ticket still pending must resolve before the fd dies (waiters
  // hold the owning session alive, so in practice the queue is empty —
  // this is the backstop that makes closing the fd always safe).
  if (options_.group_commit != nullptr) options_.group_commit->Drain(this);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string path, const WalOptions& options, const ReplayFn& replay,
    WalRecovery* recovery, const WalHeader& header) {
  WalRecovery local;
  WalRecovery* rec = recovery != nullptr ? recovery : &local;
  *rec = WalRecovery{};

  if (!std::filesystem::exists(path)) {
    auto fresh = CreateFreshLog(path, header);
    if (!fresh.ok()) return fresh.status();
    rec->header = header;
    rec->bytes = fresh->second;
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(std::move(path), options, fresh->first,
                          fresh->second));
  }

  auto data = ReadWholeFile(path);
  if (!data.ok()) return data.status();
  auto header_len = DecodeHeader(path, *data, &rec->header);
  if (!header_len.ok()) return header_len.status();
  auto valid = ScanRecords(path, std::string_view(*data).substr(*header_len),
                           options, replay, rec);
  if (!valid.ok()) return valid.status();
  uint64_t valid_bytes = *header_len + *valid;
  rec->bytes = valid_bytes;

  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("cannot reopen '" + path +
                           "': " + std::strerror(errno));
  }
  if (valid_bytes < data->size()) {
    // Drop the torn tail so the next append starts on a record boundary.
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
      int err = errno;
      ::close(fd);
      return Status::IoError("truncate '" + path +
                             "': " + std::strerror(err));
    }
    if (options.sync) ::fsync(fd);
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("seek '" + path + "': " + std::strerror(err));
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(path), options, fd, valid_bytes));
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Create(
    std::string path, const WalOptions& options, const WalHeader& header) {
  auto fresh = CreateFreshLog(path, header);
  if (!fresh.ok()) return fresh.status();
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(
      std::move(path), options, fresh->first, fresh->second));
}

Result<WalRecovery> WriteAheadLog::Replay(const std::string& path,
                                          const ReplayFn& replay,
                                          const WalOptions& options) {
  auto data = ReadWholeFile(path);
  if (!data.ok()) return data.status();
  WalRecovery rec;
  auto header_len = DecodeHeader(path, *data, &rec.header);
  if (!header_len.ok()) return header_len.status();
  auto valid = ScanRecords(path, std::string_view(*data).substr(*header_len),
                           options, replay, &rec);
  if (!valid.ok()) return valid.status();
  rec.bytes = *header_len + *valid;
  return rec;
}

Result<WalHeader> WriteAheadLog::PeekHeader(const std::string& path) {
  // The header is bounded (two strings of at most kMaxHeaderString), so
  // one bounded read suffices — never the whole log, which may be long.
  constexpr size_t kMaxHeaderBytes = 16 + 2 * (4 + kMaxHeaderString) + 4;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::string data;
  data.resize(kMaxHeaderBytes);
  size_t total = 0;
  while (total < data.size()) {
    ssize_t n = ::read(fd, data.data() + total, data.size() - total);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IoError("read '" + path + "': " + std::strerror(err));
    }
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(total);
  WalHeader header;
  auto header_len = DecodeHeader(path, data, &header);
  if (!header_len.ok()) return header_len.status();
  return header;
}

Status WriteAheadLog::Append(std::span<const Edit> edits,
                             GroupCommitTicket* ticket) {
  last_sync_ns_ = 0;  // Never report a previous append's fsync.
  if (edits.empty()) return Status::OK();
  std::string payload;
  ByteWriter body(&payload);
  body.U32(static_cast<uint32_t>(edits.size()));
  for (const Edit& edit : edits) EncodeEdit(edit, &body);
  if (payload.size() > options_.max_record_bytes) {
    return Status::InvalidArgument(
        "wal record of " + std::to_string(payload.size()) +
        " bytes exceeds the limit of " +
        std::to_string(options_.max_record_bytes));
  }
  std::string record;
  ByteWriter frame(&record);
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload));
  frame.Raw(payload);

  size_t written = 0;
  while (written < record.size()) {
    ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      // A partial append is exactly the torn tail recovery handles;
      // trim it now so this handle stays usable on a transient error.
      if (written > 0) {
        if (::ftruncate(fd_, static_cast<off_t>(bytes_)) == 0) {
          ::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET);
        }
      }
      if (options_.observer) {
        options_.observer(WalEvent::kAppendFailure, path_,
                          std::strerror(err));
      }
      return Status::IoError("wal append '" + path_ +
                             "': " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (options_.sync) {
    if (options_.group_commit != nullptr) {
      // Deferred sync: the record is written; durability arrives with
      // the group flush. Hand the ticket out when the caller can wait
      // outside its own lock, otherwise wait here so Append keeps its
      // synced-on-return contract for callers that don't opt in.
      GroupCommitTicket t = options_.group_commit->Enqueue(this, fd_, path_);
      if (ticket != nullptr) {
        *ticket = t;
      } else {
        auto sync_start = SteadyNow();
        Status flushed = t.Wait();
        if (!flushed.ok()) {
          if (options_.observer) {
            options_.observer(WalEvent::kAppendFailure, path_,
                              flushed.message());
          }
          return flushed;
        }
        last_sync_ns_ = NsSince(sync_start);
      }
    } else {
      auto sync_start = SteadyNow();
      if (::fsync(fd_) != 0) {
        int err = errno;
        if (options_.observer) {
          options_.observer(WalEvent::kAppendFailure, path_,
                            std::strerror(err));
        }
        return Status::IoError("wal fsync '" + path_ +
                               "': " + std::strerror(err));
      }
      last_sync_ns_ = NsSince(sync_start);
    }
  }
  bytes_ += record.size();
  ++appended_records_;
  return Status::OK();
}

Status WriteAheadLog::Rotate(const WalHeader& header) {
  // Resolve every outstanding group ticket against the OLD fd before it
  // closes. A failed drain is not the rotation's failure: those waiters
  // see the error themselves, and the snapshot this rotation serves has
  // already captured their edits (Save writes it before rotating).
  if (options_.group_commit != nullptr) options_.group_commit->Drain(this);
  auto fresh = CreateFreshLog(path_, header);
  if (!fresh.ok()) return fresh.status();
  // The old fd points at the unlinked inode; swap in the new one.
  if (fd_ >= 0) ::close(fd_);
  fd_ = fresh->first;
  bytes_ = fresh->second;
  appended_records_ = 0;
  if (options_.observer) {
    options_.observer(WalEvent::kRotate, path_, header.snapshot_path);
  }
  return Status::OK();
}

}  // namespace taco
