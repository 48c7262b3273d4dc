// The module graph (paper §2.1): nodes are the modules configured into the
// kernel; typed edges are the dependencies between them. Configured at build
// time, it is the second policy-enforcement level — it defines the only
// channels of communication between protection domains.

#ifndef SRC_PATH_MODULE_GRAPH_H_
#define SRC_PATH_MODULE_GRAPH_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/path/module.h"

namespace escort {

class ModuleGraph {
 public:
  explicit ModuleGraph(Kernel* kernel) : kernel_(kernel) {}

  ModuleGraph(const ModuleGraph&) = delete;
  ModuleGraph& operator=(const ModuleGraph&) = delete;

  // Adds a module, assigning it to protection domain `pd`. The graph takes
  // ownership. Returns the module for chaining.
  template <typename M>
  M* Add(std::unique_ptr<M> module, PdId pd) {
    M* raw = module.get();
    raw->pd_ = pd;
    raw->kernel_ = kernel_;
    by_name_[raw->name()] = raw;
    modules_.push_back(std::move(module));
    return raw;
  }

  // Declares the edge a<->b over `iface`. Both modules must support the
  // interface (typed, enforced — paper §2.1). Returns false otherwise.
  bool Connect(Module* a, Module* b, ServiceInterface iface);

  bool Connected(const Module* a, const Module* b) const;

  Module* Find(const std::string& name) const;

  // Boots the graph: wires every module to the path manager and invokes
  // each module's init function in its domain.
  void InitAll(PathManager* manager);

  const std::vector<std::unique_ptr<Module>>& modules() const { return modules_; }

 private:
  Kernel* const kernel_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::map<std::string, Module*> by_name_;
  std::set<std::pair<const Module*, const Module*>> edges_;
};

}  // namespace escort

#endif  // SRC_PATH_MODULE_GRAPH_H_
