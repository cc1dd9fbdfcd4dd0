// Accepted-job queue journal: what makes the daemon's job lifecycle survive
// kill -9 (DESIGN.md §14).
//
// Layout under ServiceConfig::journal_dir:
//   queue.journal          — JSONL, one record per lifecycle edge:
//                              {"accepted": {<JobSpec JSON>}}
//                              {"finished": {"id": "...", "status": "..."}}
//   job-<id>.journal       — the job's own core::RunJournal (resume prefix)
//   job-<id>.report.json   — the final frame body, atomically renamed in
//
// A restarted daemon loads the longest valid prefix of queue.journal (a
// SIGKILL mid-append leaves a torn last line — tolerated, like RunJournal's),
// re-enqueues every accepted-but-unfinished spec, and each re-run resumes
// from its job-<id>.journal — so the final report, the run's verdict JSON, is
// byte-identical to an uninterrupted run's.
//
// Not thread-safe: the daemon serializes every append under its state mutex.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "util/json.hpp"

namespace erpi::service {

class QueueJournal {
 public:
  /// Creates `dir` if missing and opens queue.journal for appending.
  /// Appends degrade silently on write failure (the daemon keeps serving;
  /// only restart-resume coverage is lost), mirroring core::RunJournal's
  /// ENOSPC posture.
  explicit QueueJournal(std::string dir);

  void record_accepted(const JobSpec& spec);
  void record_finished(const std::string& id, const std::string& status);

  /// Accepted-but-unfinished specs in acceptance order (empty when the
  /// journal is missing/unreadable). Stops at the first malformed line.
  static std::vector<JobSpec> load_pending(const std::string& dir);

  static std::string queue_path(const std::string& dir);
  /// The job's RunJournal path (Session::Config::resume_journal).
  static std::string job_journal_path(const std::string& dir, const std::string& id);
  static std::string report_path(const std::string& dir, const std::string& id);

  /// Atomic (tmp + rename) final-report persist / lookup. False when the
  /// report could not be persisted (ENOSPC/EIO); callers must then NOT mark
  /// the job finished in queue.journal, or fetch/restart would treat a
  /// reportless job as done forever.
  static bool write_report(const std::string& dir, const std::string& id,
                           const util::Json& body);
  static std::optional<util::Json> read_report(const std::string& dir,
                                               const std::string& id);

 private:
  void append_line(const util::Json& record);

  std::string dir_;
  std::ofstream out_;
};

}  // namespace erpi::service
