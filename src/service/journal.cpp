#include "service/journal.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>

namespace erpi::service {

QueueJournal::QueueJournal(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  out_.open(queue_path(dir_), std::ios::out | std::ios::app);
}

void QueueJournal::append_line(const util::Json& record) {
  if (!out_.is_open()) return;
  out_ << record.dump() << '\n';
  out_.flush();
}

void QueueJournal::record_accepted(const JobSpec& spec) {
  util::Json record = util::Json::object();
  record["accepted"] = spec.to_json();
  append_line(record);
}

void QueueJournal::record_finished(const std::string& id, const std::string& status) {
  util::Json body = util::Json::object();
  body["id"] = id;
  body["status"] = status;
  util::Json record = util::Json::object();
  record["finished"] = std::move(body);
  append_line(record);
}

std::vector<JobSpec> QueueJournal::load_pending(const std::string& dir) {
  std::vector<JobSpec> pending;
  std::ifstream in(queue_path(dir));
  if (!in.is_open()) return pending;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = util::Json::parse(line);
    if (!parsed) break;  // torn tail: keep the valid prefix
    const util::Json& record = parsed.value();
    if (!record.is_object()) break;
    if (record.contains("accepted")) {
      auto spec = JobSpec::from_json(record["accepted"]);
      if (!spec) break;
      pending.push_back(std::move(spec).take());
    } else if (record.contains("finished")) {
      const util::Json& finished = record["finished"];
      if (!finished.is_object() || !finished.contains("id") || !finished["id"].is_string()) {
        break;
      }
      const std::string& id = finished["id"].as_string();
      std::erase_if(pending, [&](const JobSpec& spec) { return spec.id == id; });
    } else {
      break;
    }
  }
  return pending;
}

std::string QueueJournal::queue_path(const std::string& dir) {
  return dir + "/queue.journal";
}

std::string QueueJournal::job_journal_path(const std::string& dir, const std::string& id) {
  return dir + "/job-" + id + ".journal";
}

std::string QueueJournal::report_path(const std::string& dir, const std::string& id) {
  return dir + "/job-" + id + ".report.json";
}

bool QueueJournal::write_report(const std::string& dir, const std::string& id,
                                const util::Json& body) {
  const std::string path = report_path(dir, id);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out.is_open()) return false;
    out << body.dump() << '\n';
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<util::Json> QueueJournal::read_report(const std::string& dir,
                                                    const std::string& id) {
  std::ifstream in(report_path(dir, id));
  if (!in.is_open()) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
  auto parsed = util::Json::parse(text);
  if (!parsed) return std::nullopt;
  return std::move(parsed).take();
}

}  // namespace erpi::service
