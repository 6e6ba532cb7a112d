#include "service/workbook_service.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/clock.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace taco {

WorkbookService::WorkbookService(WorkbookServiceOptions options)
    : options_(std::move(options)), metrics_(options_.trace_spans) {
  if (options_.slow_op_ms > 0) {
    metrics_.trace().set_slow_threshold_ns(
        static_cast<uint64_t>(options_.slow_op_ms * 1e6));
  }
  int shards = std::max(1, options_.shards);
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (wal_enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.wal_dir, ec);
    if (options_.group_commit) {
      GroupCommitOptions gc;
      gc.max_delay_us = options_.group_commit_max_delay_us;
      // Fires on the committer thread, once per file per flush round.
      // RecordGroupFlush is lock-free and Log never re-enters the store,
      // so the observer can't stall or deadlock the flush pipeline.
      gc.observer = [this](const GroupFlushStats& f) {
        metrics_.RecordGroupFlush(f.appends, f.flush_ns, f.ok);
        if (obs::Logger* logger = options_.logger; logger != nullptr) {
          logger->Log(f.ok ? obs::LogLevel::kDebug : obs::LogLevel::kError,
                      "wal.group_flush",
                      {{"path", f.path},
                       {"appends", std::to_string(f.appends)},
                       {"flush_us", std::to_string(f.flush_ns / 1000)},
                       {"ok", f.ok ? "true" : "false"},
                       {"error", f.error}});
        }
      };
      group_committer_ = std::make_unique<GroupCommitter>(std::move(gc));
    }
  }
  if (options_.recalc_threads > 0) {
    recalc_pool_ = std::make_unique<ThreadPool>(options_.recalc_threads);
    SchedulerOptions sched = options_.scheduler;
    sched.threads = options_.recalc_threads;
    recalc_scheduler_ =
        std::make_unique<RecalcScheduler>(recalc_pool_.get(), sched);
  }
}

WorkbookService::Shard& WorkbookService::ShardFor(const std::string& name) {
  return *shards_[std::hash<std::string>{}(name) % shards_.size()];
}

const WorkbookService::Shard& WorkbookService::ShardFor(
    const std::string& name) const {
  return *shards_[std::hash<std::string>{}(name) % shards_.size()];
}

void WorkbookService::Touch(WorkbookSession& session) {
  session.Touch(lru_clock_.fetch_add(1) + 1);
}

std::string WorkbookService::WalPathFor(const std::string& name) const {
  if (!wal_enabled()) return "";
  // Escape anything a filesystem (or this escaping itself) could
  // misread, so distinct protocol names map to distinct files.
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string file;
  file.reserve(name.size());
  for (unsigned char c : name) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (safe) {
      file.push_back(static_cast<char>(c));
    } else {
      file.push_back('%');
      file.push_back(kHex[c >> 4]);
      file.push_back(kHex[c & 0xF]);
    }
  }
  return (std::filesystem::path(options_.wal_dir) / (file + ".wal"))
      .string();
}

WalOptions WorkbookService::WalOptionsFor(const std::string& name) const {
  WalOptions wal = options_.wal;
  wal.group_commit = group_committer_.get();
  if (obs::Logger* logger = options_.logger; logger != nullptr) {
    // The observer fires on the appending (session) thread; Log is
    // lock-free and never re-enters the store, so this is safe inside
    // the WAL's own failure path.
    wal.observer = [logger, name](WalEvent event, const std::string& path,
                                  const std::string& detail) {
      switch (event) {
        case WalEvent::kRotate:
          logger->Log(obs::LogLevel::kInfo, "wal.rotate",
                      {{"session", name},
                       {"path", path},
                       {"snapshot", detail}});
          break;
        case WalEvent::kAppendFailure:
          logger->Log(obs::LogLevel::kError, "wal.append_failed",
                      {{"session", name},
                       {"path", path},
                       {"error", detail}});
          break;
      }
    };
  }
  return wal;
}

std::optional<std::string> WorkbookService::TakeParked(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(parked_mu_);
  auto it = parked_.find(name);
  if (it == parked_.end()) return std::nullopt;
  std::string path = std::move(it->second);
  parked_.erase(it);
  return path;
}

Result<std::shared_ptr<WorkbookSession>> WorkbookService::MakeSession(
    const std::string& name, Sheet sheet) {
  TacoGraph graph;
  TACO_RETURN_IF_ERROR(BuildGraphFromSheet(sheet, &graph));
  auto session = std::make_shared<WorkbookSession>(
      name, std::move(sheet), std::move(graph), &metrics_);
  session->set_logger(options_.logger);
  if (wal_enabled()) {
    // Lazy arming: a fresh session creates its log file on its first
    // mutation, so this costs no I/O here (important for the in-lock
    // empty-session fast path). Recovered sessions AdoptWal afterwards,
    // replacing the armed path with the already-open log.
    session->ArmWal(WalPathFor(name), WalOptionsFor(name));
  }
  if (recalc_scheduler_ != nullptr) {
    session->EnableParallelRecalc(recalc_scheduler_.get());
  }
  if (options_.cutoff) session->SetCutoff(true);
  Touch(*session);
  return session;
}

Result<std::shared_ptr<WorkbookSession>>
WorkbookService::LoadSessionFromStorage(const std::string& name,
                                        const std::string& base_path,
                                        bool replay_wal) {
  const std::string wal_path = WalPathFor(name);
  const bool wal_exists =
      !wal_path.empty() && std::filesystem::exists(wal_path);
  std::string snapshot_path = base_path;
  if (replay_wal && wal_exists) {
    auto header = WriteAheadLog::PeekHeader(wal_path);
    if (!header.ok()) return header.status();
    if (base_path.empty()) {
      // OPEN-style (crash) recovery: the log knows its own base snapshot.
      snapshot_path = header->snapshot_path;
    } else if (header->snapshot_path != base_path) {
      // LOAD of a file this log does not extend: the caller's explicit
      // file wins and the stale log is reset below. (Replaying edits
      // recorded against a different snapshot would corrupt the sheet.)
      // LOAD of the very file the log extends is recovery: it replays.
      replay_wal = false;
    }
  }

  Sheet sheet;
  if (!snapshot_path.empty()) {
    auto loaded = LoadSnapshotFile(snapshot_path);
    if (!loaded.ok()) return loaded.status();
    sheet = std::move(*loaded);
  }

  std::unique_ptr<WriteAheadLog> wal;
  WalRecovery recovery;
  if (!wal_path.empty() && replay_wal && wal_exists) {
    // Replay the acknowledged tail onto the snapshot. Torn final
    // records truncate silently (never acknowledged); interior
    // corruption fails the whole open with DataLoss — better NotFound
    // than a silently wrong sheet. (Open only ever trims the torn
    // tail, so a later failure below leaves the log's data intact.)
    auto opened = WriteAheadLog::Open(
        wal_path, WalOptionsFor(name),
        [&sheet](const EditBatch& batch) {
          for (const Edit& edit : batch) {
            TACO_RETURN_IF_ERROR(ApplyEditToSheet(&sheet, edit));
          }
          return Status::OK();
        },
        &recovery);
    if (!opened.ok()) return opened.status();
    wal = std::move(*opened);
  }

  auto session = MakeSession(name, std::move(sheet));
  if (!session.ok()) return session;
  if (!wal_path.empty() && wal == nullptr) {
    // Create (or reset, in the LOAD-mismatch case) the log only now
    // that the session definitely exists: a failed load/build must
    // neither destroy an existing log's acknowledged records nor leave
    // a stray log that would flip a later OPEN into recovery mode.
    auto created =
        WriteAheadLog::Create(wal_path, WalOptionsFor(name), {snapshot_path});
    if (!created.ok()) return created.status();
    wal = std::move(*created);
  }
  if (!snapshot_path.empty()) (*session)->BindPath(snapshot_path);
  if (wal != nullptr) (*session)->AdoptWal(std::move(wal), recovery);
  if (recovery.records > 0) {
    metrics_.storage().recoveries.fetch_add(1);
    metrics_.storage().recovered_records.fetch_add(recovery.records);
  }
  if (obs::Logger* logger = options_.logger; logger != nullptr) {
    logger->Log(obs::LogLevel::kInfo, "session.load",
                {{"session", name},
                 {"path", snapshot_path},
                 {"recovered_records", recovery.records}});
    if (recovery.records > 0) {
      logger->Log(obs::LogLevel::kInfo, "session.recover",
                  {{"session", name},
                   {"records", recovery.records},
                   {"wal", wal_path}});
    }
  }
  return session;
}

Result<std::shared_ptr<WorkbookSession>> WorkbookService::OpenImpl(
    const std::string& name, bool create_if_missing) {
  // The lookup/create/claim transition runs under the shard lock, but
  // the HEAVY part of a parked reload — file I/O and graph build — runs
  // outside it behind an InFlight placeholder, so a big reload stalls
  // only requests for the same name, not the whole shard. Lock order
  // here and in MaybeEvict is always shard.mu before parked_mu_; the
  // placeholder's mutex is only ever taken with no registry lock held.
  Shard& shard = ShardFor(name);
  for (;;) {
    std::shared_ptr<InFlight> flight;
    std::optional<std::string> parked;
    bool recover_from_wal = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.sessions.find(name);
      if (it != shard.sessions.end()) {
        Touch(*it->second);
        return it->second;
      }
      auto pending = shard.pending.find(name);
      if (pending != shard.pending.end()) {
        flight = pending->second;  // Someone's load; wait below, unlocked.
      } else {
        // Parked? Reload from the remembered file.
        parked = TakeParked(name);
        if (!parked.has_value()) {
          // Crash recovery: a WAL left by a previous process means this
          // name has durable state even though the registry has never
          // heard of it. Recovering replays real I/O, so it runs behind
          // a placeholder like any reload (the existence probe is one
          // stat — cheap enough for the lock).
          recover_from_wal =
              create_if_missing && wal_enabled() &&
              std::filesystem::exists(WalPathFor(name));
          if (!recover_from_wal) {
            if (!create_if_missing) {
              return Status::NotFound("no session named '" + name + "'");
            }
            // Creating an EMPTY session does no file I/O and builds no
            // graph (its WAL is armed lazily), so it stays under the
            // lock and the lookup-or-create transition remains atomic.
            auto session = MakeSession(name, Sheet());
            if (!session.ok()) return session;
            shard.sessions.emplace(name, *session);
            resident_count_.fetch_add(1);
            if (obs::Logger* logger = options_.logger;
                logger != nullptr) {
              logger->Log(obs::LogLevel::kInfo, "session.open",
                          {{"session", name}});
            }
            return session;
          }
        }
        flight = std::make_shared<InFlight>();
        shard.pending.emplace(name, flight);
      }
    }

    if (!parked.has_value() && !recover_from_wal) {
      // Another request owns the load. Its success is our session; its
      // failure re-parked the entry (or a LOAD failed), so re-run the
      // whole transition rather than guessing what state it left.
      std::unique_lock<std::mutex> wait_lock(flight->mu);
      flight->cv.wait(wait_lock, [&] { return flight->done; });
      if (flight->result.ok()) {
        Touch(**flight->result);
        return flight->result;
      }
      continue;
    }

    // We claimed the reload: snapshot + WAL replay outside the shard
    // lock. A failed parked reload restores the parked entry — the saved
    // data must stay reachable, not be shadowed by a fresh empty session
    // next try. (A failed WAL recovery keeps the log on disk for the
    // same reason.)
    auto result =
        parked.has_value()
            ? LoadSessionFromStorage(name, *parked,
                                     /*replay_wal=*/wal_enabled())
            : LoadSessionFromStorage(name, "", /*replay_wal=*/true);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.pending.erase(name);
      if (result.ok()) {
        shard.sessions.emplace(name, *result);
        resident_count_.fetch_add(1);
      } else if (parked.has_value()) {
        std::lock_guard<std::mutex> parked_lock(parked_mu_);
        parked_.emplace(name, *parked);
      }
    }
    {
      std::lock_guard<std::mutex> done_lock(flight->mu);
      flight->done = true;
      flight->result = result;
    }
    flight->cv.notify_all();
    return result;
  }
}

Result<std::shared_ptr<WorkbookSession>> WorkbookService::Open(
    const std::string& name) {
  auto start = SteadyNow();
  auto result = OpenImpl(name, /*create_if_missing=*/true);
  metrics_.Record(ServiceOp::kOpen, NsSince(start), result.ok());
  if (result.ok()) MaybeEvict();
  return result;
}

Result<std::shared_ptr<WorkbookSession>> WorkbookService::Get(
    const std::string& name) {
  auto result = OpenImpl(name, /*create_if_missing=*/false);
  if (result.ok()) MaybeEvict();  // A parked reload may breach the cap.
  return result;
}

Result<std::shared_ptr<WorkbookSession>> WorkbookService::Load(
    const std::string& name, const std::string& path) {
  auto start = SteadyNow();
  auto result = [&]() -> Result<std::shared_ptr<WorkbookSession>> {
    Shard& shard = ShardFor(name);
    std::shared_ptr<InFlight> flight;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      // An in-flight load/reload counts as existing: LOAD must not race
      // a reload of the same name into two sessions.
      if (shard.sessions.contains(name) || shard.pending.contains(name)) {
        return Status::AlreadyExists("session '" + name + "' is open");
      }
      flight = std::make_shared<InFlight>();
      shard.pending.emplace(name, flight);
    }
    // File read + graph build happen outside the shard lock; same-name
    // requests wait on the placeholder, other names proceed. When a WAL
    // for this name extends `path`, its acknowledged tail is replayed on
    // top (LOAD performs recovery too); a WAL recorded against some
    // OTHER snapshot is reset — the operator explicitly chose this file.
    auto loaded_result =
        LoadSessionFromStorage(name, path, /*replay_wal=*/true);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.pending.erase(name);
      if (loaded_result.ok()) {
        shard.sessions.emplace(name, *loaded_result);
        resident_count_.fetch_add(1);
        // LOAD replaces any stale parked entry for this name. (A failed
        // LOAD leaves it alone: the parked data stays reachable.)
        std::lock_guard<std::mutex> parked_lock(parked_mu_);
        parked_.erase(name);
      }
    }
    {
      std::lock_guard<std::mutex> done_lock(flight->mu);
      flight->done = true;
      flight->result = loaded_result;
    }
    flight->cv.notify_all();
    return loaded_result;
  }();
  metrics_.Record(ServiceOp::kLoad, NsSince(start), result.ok());
  if (result.ok()) MaybeEvict();
  return result;
}

Status WorkbookService::Save(const std::string& name,
                             const std::string& path) {
  // A parked session is by definition saved-and-clean at its parked
  // path, so SAVE to that path (or no path) is already satisfied —
  // don't pay a full reload just to rewrite identical bytes. (A racing
  // un-park between this check and Get is fine: Get then saves live.)
  {
    std::lock_guard<std::mutex> lock(parked_mu_);
    auto it = parked_.find(name);
    if (it != parked_.end() &&
        (path.empty() || path == it->second)) {
      metrics_.Record(ServiceOp::kSave, 0, /*ok=*/true);
      return Status::OK();
    }
  }
  auto session = Get(name);
  if (!session.ok()) return session.status();
  return (*session)->Save(path);  // Session records SAVE metrics itself.
}

Status WorkbookService::Close(const std::string& name) {
  auto start = SteadyNow();
  Status status = [&] {
    for (;;) {
      std::shared_ptr<InFlight> flight;
      {
        Shard& shard = ShardFor(name);
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.sessions.erase(name) > 0) {
          resident_count_.fetch_sub(1);
          return Status::OK();
        }
        auto pending = shard.pending.find(name);
        if (pending != shard.pending.end()) flight = pending->second;
      }
      if (flight != nullptr) {
        // A load in flight: the name exists, it just isn't published
        // yet. Wait for the loader, then close whatever it produced.
        std::unique_lock<std::mutex> wait_lock(flight->mu);
        flight->cv.wait(wait_lock, [&] { return flight->done; });
        continue;
      }
      std::lock_guard<std::mutex> lock(parked_mu_);
      if (parked_.erase(name) > 0) return Status::OK();
      return Status::NotFound("no session named '" + name + "'");
    }
  }();
  if (status.ok() && wal_enabled()) {
    // CLOSE drops unsaved changes by contract, and that includes the
    // log: a closed name must stay closed, not resurrect from its WAL
    // on the next OPEN. (In-flight holders of the session keep writing
    // to the unlinked inode harmlessly.)
    std::error_code ec;
    std::filesystem::remove(WalPathFor(name), ec);
  }
  if (obs::Logger* logger = options_.logger;
      logger != nullptr && status.ok()) {
    logger->Log(obs::LogLevel::kInfo, "session.close", {{"session", name}});
  }
  metrics_.Record(ServiceOp::kClose, NsSince(start), status.ok());
  return status;
}

std::vector<std::string> WorkbookService::SessionNames() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, session] : shard->sessions) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::shared_ptr<WorkbookSession>>
WorkbookService::ResidentSessions() const {
  std::vector<std::shared_ptr<WorkbookSession>> sessions;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, session] : shard->sessions) {
      sessions.push_back(session);
    }
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const auto& a, const auto& b) { return a->name() < b->name(); });
  return sessions;
}

size_t WorkbookService::resident_sessions() const {
  return resident_count_.load();
}

size_t WorkbookService::parked_sessions() const {
  std::lock_guard<std::mutex> lock(parked_mu_);
  return parked_.size();
}

void WorkbookService::MaybeEvict() {
  if (options_.max_resident_sessions == 0) return;
  // Single flight: a concurrent sweep is already draining the backlog,
  // and two sweeps would pin each other's victims (use_count re-check).
  bool expected = false;
  if (!evicting_.compare_exchange_strong(expected, true)) return;
  struct ClearFlag {
    std::atomic<bool>& flag;
    ~ClearFlag() { flag.store(false); }
  } clear_flag{evicting_};
  // Sessions to leave alone this sweep: an unsavable victim must not be
  // re-picked forever while savable candidates exist. Holding shared_ptr
  // (not raw pointers) keeps the skip identities valid even if a
  // concurrent Close releases a session mid-sweep.
  std::vector<std::shared_ptr<WorkbookSession>> skip;
  // Bounded attempts: every resident session may turn out unevictable
  // (no backing file / unsavable), and the cap is soft in that case.
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (resident_sessions() <= options_.max_resident_sessions) return;

    // Pick the least-recently-used session that has a backing file and
    // isn't black-listed from an earlier failed save (at its current
    // epoch — any new activity makes it eligible again).
    std::shared_ptr<WorkbookSession> victim;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [name, session] : shard->sessions) {
        if (session->bound_path().empty()) continue;
        if (std::find(skip.begin(), skip.end(), session) != skip.end()) {
          continue;
        }
        {
          std::lock_guard<std::mutex> unsavable_lock(unsavable_mu_);
          auto it = unsavable_.find(name);
          if (it != unsavable_.end()) {
            if (it->second == session->op_epoch()) continue;
            unsavable_.erase(it);  // Changed since the failure: retry.
          }
        }
        if (!victim || session->last_access() < victim->last_access()) {
          victim = session;
        }
      }
    }
    if (!victim) return;  // Nothing evictable: soft cap, stay resident.

    // The epoch pins the session's operation count across the save: any
    // client op (via a pointer obtained before this sweep) bumps it, and
    // a changed epoch below aborts the park so the edit is not lost to a
    // reload of the pre-edit file.
    uint64_t stamp = victim->last_access();
    uint64_t epoch = victim->op_epoch();
    // A clean victim's bound file is already current — no save needed.
    if (victim->Stats().dirty && !victim->Save().ok()) {
      // Unsavable: pin, try the next LRU — and remember the failure so
      // later sweeps don't repeat the doomed disk write every request.
      skip.push_back(victim);
      std::lock_guard<std::mutex> unsavable_lock(unsavable_mu_);
      if (unsavable_.size() > 1024) unsavable_.clear();  // Stale-name bound.
      unsavable_[victim->name()] = victim->op_epoch();
      continue;
    }

    // Park only if nobody touched it while we were saving; otherwise it
    // is hot (or freshly edited) again and the next attempt picks a
    // better victim. Erase and park under the shard lock so no window
    // exists where the name is neither resident nor parked (an Open then
    // would create it empty). The use_count()==2 condition (the map's
    // reference plus our local one) means no client still holds this
    // session: new references are only handed out under the shard lock
    // we hold, so an in-flight client can never mutate a session after
    // it is parked — the lost-edit window is closed, not just narrowed.
    Shard& shard = ShardFor(victim->name());
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.sessions.find(victim->name());
      if (it == shard.sessions.end() || it->second != victim ||
          victim->last_access() != stamp || victim->op_epoch() != epoch ||
          victim.use_count() != 2 || victim->Stats().dirty) {
        // Hot again, or a client still pins it: don't re-pick (and
        // re-save) the same victim for the rest of this sweep.
        skip.push_back(victim);
        continue;
      }
      shard.sessions.erase(it);
      resident_count_.fetch_sub(1);
      std::lock_guard<std::mutex> parked_lock(parked_mu_);
      parked_[victim->name()] = victim->bound_path();
    }
    evictions_.fetch_add(1);
    if (obs::Logger* logger = options_.logger; logger != nullptr) {
      logger->Log(obs::LogLevel::kInfo, "session.evict",
                  {{"session", victim->name()},
                   {"path", victim->bound_path()}});
    }
  }
}

}  // namespace taco
