#include "corpus/diff.hpp"

namespace erpi::corpus {

util::Json OutcomeDiff::to_json() const {
  util::Json j = util::Json::object();
  j["compared"] = static_cast<int64_t>(compared);
  j["unchanged"] = static_cast<int64_t>(unchanged);
  j["missing"] = static_cast<int64_t>(missing);
  util::Json changes = util::Json::array();
  for (const auto& change : changed) {
    util::Json c = util::Json::object();
    c["plan"] = change.plan;
    c["il"] = change.il;
    c["before"] = util::Json::object();
    core::outcome_to_json(c["before"], change.before);
    c["after"] = util::Json::object();
    core::outcome_to_json(c["after"], change.after);
    changes.push_back(std::move(c));
  }
  j["changed"] = std::move(changes);
  return j;
}

}  // namespace erpi::corpus
