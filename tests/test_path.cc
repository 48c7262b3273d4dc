// Path architecture tests: pathCreate/pathDestroy/pathKill, stages,
// destructor ordering, reference counting, crossings, module graph typing,
// demux engine.

#include <gtest/gtest.h>

#include "src/path/path_manager.h"
#include "src/sim/metrics.h"

namespace escort {
namespace {

// A trivial test module: counts messages, forwards in the travel direction,
// optionally records destructor invocations.
class EchoModule : public Module {
 public:
  EchoModule(std::string name, std::vector<std::string>* destroy_log = nullptr)
      : Module(std::move(name), {ServiceInterface::kAsyncIo}), destroy_log_(destroy_log) {}

  void SetNext(Module* next) { next_ = next; }
  Module* next_for_demux = nullptr;
  Path* deliver_to = nullptr;

  OpenResult Open(Path* path, const Attributes& attrs) override {
    (void)path;
    (void)attrs;
    ++opens;
    OpenResult r;
    r.ok = !fail_open;
    r.next = next_;
    if (destroy_log_ != nullptr) {
      r.destructor = [this](Path*, Stage*) { destroy_log_->push_back(name()); };
    }
    return r;
  }

  DemuxDecision Demux(const Message& msg) override {
    (void)msg;
    if (deliver_to != nullptr) {
      return DemuxDecision::Deliver(deliver_to);
    }
    if (next_for_demux != nullptr) {
      return DemuxDecision::Continue(next_for_demux);
    }
    return DemuxDecision::Drop("echo-drop");
  }

  void Process(Stage& stage, Message msg, Direction dir) override {
    ++processed;
    last_dir = dir;
    if (dir == Direction::kUp) {
      stage.path->ForwardUp(stage, std::move(msg));
    } else {
      stage.path->ForwardDown(stage, std::move(msg));
    }
  }

  int opens = 0;
  int processed = 0;
  bool fail_open = false;
  Direction last_dir = Direction::kUp;

 private:
  Module* next_ = nullptr;
  std::vector<std::string>* destroy_log_;
};

// A module that offers only the file-access interface.
class FileAccessModule : public Module {
 public:
  explicit FileAccessModule(std::string name)
      : Module(std::move(name), {ServiceInterface::kFileAccess}) {}

  OpenResult Open(Path* /*path*/, const Attributes& /*attrs*/) override {
    OpenResult r;
    r.ok = true;
    return r;
  }
  void Process(Stage& /*stage*/, Message /*msg*/, Direction /*dir*/) override {}
};

class PathTest : public ::testing::Test {
 protected:
  PathTest() {
    KernelConfig kc;
    kc.start_softclock = false;
    kernel_ = std::make_unique<Kernel>(&eq_, kc);
    graph_ = std::make_unique<ModuleGraph>(kernel_.get());
    a_ = graph_->Add(std::make_unique<EchoModule>("A", &destroy_log_), kKernelDomain);
    b_ = graph_->Add(std::make_unique<EchoModule>("B", &destroy_log_), kKernelDomain);
    c_ = graph_->Add(std::make_unique<EchoModule>("C", &destroy_log_), kKernelDomain);
    a_->SetNext(b_);
    b_->SetNext(c_);
    graph_->Connect(a_, b_, ServiceInterface::kAsyncIo);
    graph_->Connect(b_, c_, ServiceInterface::kAsyncIo);
    manager_ = std::make_unique<PathManager>(kernel_.get(), graph_.get());
    graph_->InitAll(manager_.get());
  }

  Message NewMessage() {
    return Message::Alloc(kernel_.get(), kernel_->domain(0), kKernelDomain, {kKernelDomain},
                          64, 16);
  }

  MetricsRegistry metrics_;  // attached by the tests that read it
  EventQueue eq_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<ModuleGraph> graph_;
  std::unique_ptr<PathManager> manager_;
  std::vector<std::string> destroy_log_;
  EchoModule* a_;
  EchoModule* b_;
  EchoModule* c_;
};

TEST_F(PathTest, CreateWalksOpenChain) {
  Path* p = manager_->Create(a_, Attributes{}, "test-path");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->stages().size(), 3u);
  EXPECT_EQ(p->stages()[0]->module, a_);
  EXPECT_EQ(p->stages()[2]->module, c_);
  EXPECT_EQ(a_->opens, 1);
  EXPECT_EQ(c_->opens, 1);
  EXPECT_EQ(manager_->live_count(), 1u);
}

TEST_F(PathTest, CreateFailsWhenModuleRejects) {
  b_->fail_open = true;
  Path* p = manager_->Create(a_, Attributes{}, "broken");
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(manager_->live_count(), 0u);
}

TEST_F(PathTest, CreateFailsOnUnconnectedModules) {
  // A fresh graph edge-free pair: D -> E is not in the module graph.
  auto* d = graph_->Add(std::make_unique<EchoModule>("D"), kKernelDomain);
  auto* e = graph_->Add(std::make_unique<EchoModule>("E"), kKernelDomain);
  d->SetNext(e);
  Path* p = manager_->Create(d, Attributes{}, "illegal");
  EXPECT_EQ(p, nullptr);
}

TEST_F(PathTest, MessagesFlowUpAndDown) {
  Path* p = manager_->Create(a_, Attributes{}, "flow");
  p->DeliverAt(0, Direction::kUp, NewMessage());
  eq_.RunToCompletion();
  // A -> B -> C (C's ForwardUp falls off the end).
  EXPECT_EQ(a_->processed, 1);
  EXPECT_EQ(b_->processed, 1);
  EXPECT_EQ(c_->processed, 1);

  p->DeliverAt(2, Direction::kDown, NewMessage());
  eq_.RunToCompletion();
  EXPECT_EQ(c_->processed, 2);
  EXPECT_EQ(b_->processed, 2);
  // A::Process(down) calls ForwardDown which stops at index 0.
  EXPECT_EQ(a_->processed, 2);
}

TEST_F(PathTest, DestroyRunsDestructorsInInitializationOrder) {
  Path* p = manager_->Create(a_, Attributes{}, "dtor-order");
  manager_->Destroy(p);
  EXPECT_EQ(destroy_log_, (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(manager_->live_count(), 0u);
  EXPECT_EQ(manager_->destroyed_count(), 1u);
}

TEST_F(PathTest, KillSkipsDestructors) {
  Path* p = manager_->Create(a_, Attributes{}, "killed");
  Cycles cost = manager_->Kill(p);
  EXPECT_TRUE(destroy_log_.empty());
  EXPECT_GT(cost, 0u);
  EXPECT_EQ(manager_->killed_count(), 1u);
  EXPECT_EQ(manager_->live_count(), 0u);
}

TEST_F(PathTest, KillReclaimsThreadsAndBuffers) {
  Path* p = manager_->Create(a_, Attributes{}, "resources");
  // Give the path some resources.
  kernel_->AllocIoBuffer(p, 100, kKernelDomain, {kKernelDomain});
  kernel_->AllocPage(p);
  EXPECT_GE(p->usage().threads, 1u);
  EXPECT_EQ(p->usage().iobuffer_locks, 1u);
  EXPECT_EQ(p->usage().pages, 1u);

  manager_->Kill(p);
  EXPECT_EQ(p->usage().threads, 0u);
  EXPECT_EQ(p->usage().iobuffer_locks, 0u);
  EXPECT_EQ(p->usage().pages, 0u);
  EXPECT_TRUE(p->destroyed());
}

TEST_F(PathTest, CyclesChargedToPathOwner) {
  Path* p = manager_->Create(a_, Attributes{}, "charged");
  Cycles before = p->usage().cycles;
  p->DeliverAt(0, Direction::kUp, NewMessage(), /*extra_cost=*/5000);
  eq_.RunToCompletion();
  EXPECT_GT(p->usage().cycles, before + 5000);
}

TEST_F(PathTest, DemuxDeliversToIdentifiedPath) {
  Path* p = manager_->Create(a_, Attributes{}, "target");
  a_->next_for_demux = b_;
  b_->deliver_to = p;
  Path* got = manager_->DemuxAndDeliver(a_, NewMessage());
  EXPECT_EQ(got, p);
  eq_.RunToCompletion();
  EXPECT_GE(a_->processed, 1);
}

TEST_F(PathTest, DemuxDropsConsumeKernelCycles) {
  const char* reason = nullptr;
  Cycles kernel_before = kernel_->kernel_owner()->usage().cycles;
  Path* got = manager_->DemuxAndDeliver(a_, NewMessage(), &reason);
  EXPECT_EQ(got, nullptr);
  EXPECT_STREQ(reason, "echo-drop");
  EXPECT_EQ(manager_->demux_drops(), 1u);
  eq_.RunToCompletion();
  EXPECT_GT(kernel_->kernel_owner()->usage().cycles, kernel_before);
}

TEST_F(PathTest, DemuxDropsForBackloggedPath) {
  Path* p = manager_->Create(a_, Attributes{}, "slow");
  a_->next_for_demux = b_;
  b_->deliver_to = p;
  manager_->set_input_backlog_limit(2);
  // Stuff the path's worker with pending items (no eq run yet).
  Thread* worker = p->GrabThread();
  worker->Push(1'000'000, kKernelDomain, nullptr);
  worker->Push(1'000'000, kKernelDomain, nullptr);
  worker->Push(1'000'000, kKernelDomain, nullptr);
  const char* reason = nullptr;
  Path* got = manager_->DemuxAndDeliver(a_, NewMessage(), &reason);
  EXPECT_EQ(got, nullptr);
  EXPECT_STREQ(reason, "backlog");
  EXPECT_EQ(manager_->backlog_drops(), 1u);
}

TEST_F(PathTest, DemuxDropsReachTheMetricsRegistryByReason) {
  kernel_->set_metrics(&metrics_);
  Path* p = manager_->Create(a_, Attributes{}, "slow");
  a_->next_for_demux = b_;
  b_->deliver_to = p;
  manager_->set_input_backlog_limit(1);
  Thread* worker = p->GrabThread();
  worker->Push(1'000'000, kKernelDomain, nullptr);
  worker->Push(1'000'000, kKernelDomain, nullptr);
  EXPECT_EQ(manager_->DemuxAndDeliver(a_, NewMessage()), nullptr);
  EXPECT_EQ(manager_->DemuxAndDeliver(a_, NewMessage()), nullptr);
  a_->next_for_demux = nullptr;
  EXPECT_EQ(manager_->DemuxAndDeliver(a_, NewMessage()), nullptr);  // echo-drop

  const MetricCounter* backlog = metrics_.FindCounter("path.demux_drops.backlog");
  ASSERT_NE(backlog, nullptr);
  EXPECT_EQ(manager_->backlog_drops(), 2u);
  EXPECT_EQ(backlog->value(), manager_->backlog_drops());
  const MetricCounter* echo = metrics_.FindCounter("path.demux_drops.echo-drop");
  ASSERT_NE(echo, nullptr);
  EXPECT_EQ(echo->value(), 1u);
  EXPECT_EQ(metrics_.FindCounter("path.demux_drops.dead-path"), nullptr);  // never dropped
}

TEST_F(PathTest, DistinctDomainCountAndCrossings) {
  EventQueue eq2;
  KernelConfig kc;
  kc.start_softclock = false;
  kc.protection_domains = true;
  Kernel pdk(&eq2, kc);
  ModuleGraph graph(&pdk);
  auto* m1 = graph.Add(std::make_unique<EchoModule>("M1"), pdk.CreateDomain("d1")->pd_id());
  auto* m2 = graph.Add(std::make_unique<EchoModule>("M2"), pdk.CreateDomain("d2")->pd_id());
  m1->SetNext(m2);
  graph.Connect(m1, m2, ServiceInterface::kAsyncIo);
  PathManager manager(&pdk, &graph);
  graph.InitAll(&manager);

  Path* p = manager.Create(m1, Attributes{}, "pd-path");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->DistinctDomainCount(), 2);
  EXPECT_TRUE(p->CrossingAllowed(m1->pd(), m2->pd()));
  EXPECT_TRUE(p->CrossingAllowed(m2->pd(), m1->pd()));
  EXPECT_FALSE(p->CrossingAllowed(m1->pd(), 99));
}

TEST_F(PathTest, ModuleGraphRejectsUntypedEdges) {
  ModuleGraph graph(kernel_.get());
  auto* file_mod = graph.Add(std::make_unique<FileAccessModule>("f"), kKernelDomain);
  auto* io_mod = graph.Add(std::make_unique<EchoModule>("io"), kKernelDomain);
  // EchoModule supports only kAsyncIo; FileAccessModule only kFileAccess.
  EXPECT_FALSE(graph.Connect(file_mod, io_mod, ServiceInterface::kFileAccess));
  EXPECT_FALSE(graph.Connect(file_mod, io_mod, ServiceInterface::kAsyncIo));
  EXPECT_FALSE(graph.Connected(file_mod, io_mod));
}

TEST_F(PathTest, StageDomainsListsAllStages) {
  Path* p = manager_->Create(a_, Attributes{}, "domains");
  EXPECT_EQ(p->StageDomains().size(), 3u);
}

TEST_F(PathTest, AccountLabelRetiresWithPath) {
  Path* p = manager_->Create(a_, Attributes{}, "labelled");
  p->DeliverAt(0, Direction::kUp, NewMessage(), 7000);
  eq_.RunToCompletion();
  Cycles live = kernel_->Snapshot().Get("labelled");
  EXPECT_GT(live, 0u);
  manager_->Destroy(p);
  // Cycles survive into the retired ledger under the same label.
  EXPECT_GE(kernel_->Snapshot().Get("labelled"), live);
}

}  // namespace
}  // namespace escort
