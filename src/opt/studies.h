// Named, ready-to-run optimization studies over the paper's design space:
// channel geometry, flow rate/operating point, and VRM placement — the
// searchable counterparts of the registered sweep plans.
#ifndef BRIGHTSI_OPT_STUDIES_H
#define BRIGHTSI_OPT_STUDIES_H

#include <string>
#include <vector>

#include "opt/optimizer.h"

namespace brightsi::opt {

/// A registry entry: the study name, a one-line summary for --list and the
/// factory that builds the study.
struct StudyDescription {
  std::string name;
  std::string summary;
  Study (*make)();
};

/// All registered study names with summaries, in presentation order.
[[nodiscard]] const std::vector<StudyDescription>& registered_studies();

/// Builds the named study. Throws std::invalid_argument listing the
/// registered names on an unknown name.
[[nodiscard]] Study make_registered_study(const std::string& name);

}  // namespace brightsi::opt

#endif  // BRIGHTSI_OPT_STUDIES_H
